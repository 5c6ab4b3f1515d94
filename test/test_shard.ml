(* Tests for the sharded view manager: the partition plan, and a 1-shard
   plan that is the serial scheduler bit for bit.  That sharding is
   otherwise observationally serial — faults included — is the end-to-end
   matrix's (matrix.ml). *)

open Dyno_relational

(* A 1-shard plan is not merely equivalent — dispatch over it must be
   Scheduler.run bit for bit, trace entries included, on a zero-fault
   world. *)
let test_one_shard_identity () =
  let mk () =
    Dyno_workload.Spec.build
      {
        Fixture.base with
        seed = 11;
        dus = 12;
        scs = 2;
        world = Dyno_workload.Scenario.Config.with_trace true Fixture.base.world;
      }
  in
  let config =
    Dyno_core.Run_config.of_strategy Dyno_core.Strategy.Pessimistic
  in
  (* Through the sharded front door (1-shard plan)... *)
  let t1 = mk () in
  let s1 = Dyno_workload.Scenario.run t1 ~config in
  (* ...and through the serial scheduler directly. *)
  let t2 = mk () in
  let s2 =
    Dyno_core.Scheduler.run ~config t2.Dyno_workload.Scenario.engine
      t2.Dyno_workload.Scenario.mv t2.Dyno_workload.Scenario.mk
  in
  Alcotest.(check string)
    "stats byte-identical"
    (Fmt.str "%a" Dyno_core.Stats.pp s1)
    (Fmt.str "%a" Dyno_core.Stats.pp s2);
  Alcotest.(check bool)
    "extent identical" true
    (Relation.equal
       (Dyno_view.Mat_view.extent t1.Dyno_workload.Scenario.mv)
       (Dyno_view.Mat_view.extent t2.Dyno_workload.Scenario.mv));
  Alcotest.(check string)
    "trace byte-identical"
    (Fmt.str "%a" Dyno_sim.Trace.pp t1.Dyno_workload.Scenario.trace)
    (Fmt.str "%a" Dyno_sim.Trace.pp t2.Dyno_workload.Scenario.trace)

(* A cross-shard barrier takes its correction report from [Correct], the
   single queue's own: a pass that merges a dependency cycle counts as a
   correction even where it leaves the message order as it was.  On the
   spec of [dyno run --dus 10 --scs 4 --seed 7] three shards correct as
   often as one queue does. *)
let test_barrier_counts_merges () =
  let run shards =
    let t, stats =
      Dyno_workload.Spec.run
        (Dyno_workload.Spec.with_transport Dyno_net.Channel.reliable
           {
             Dyno_workload.Spec.default with
             seed = 7;
             dus = 10;
             scs = 4;
             world =
               Dyno_workload.Scenario.Config.(
                 Dyno_workload.Spec.paper_world ~rows:200
                 |> with_snapshots true |> with_trace true
                 |> with_shards shards);
           })
    in
    ( stats,
      Dyno_sim.Trace.count t.Dyno_workload.Scenario.trace Dyno_sim.Trace.Correct
    )
  in
  let serial, _ = run 1 and sharded, entries = run 3 in
  Alcotest.(check int) "a barrier was raised" 1
    sharded.Dyno_core.Stats.cross_shard_barriers;
  Alcotest.(check int) "cycles merged as on one queue"
    serial.Dyno_core.Stats.merges sharded.Dyno_core.Stats.merges;
  Alcotest.(check int) "corrections as on one queue" 3
    serial.Dyno_core.Stats.corrections;
  Alcotest.(check int) "corrections at the barrier" 3
    sharded.Dyno_core.Stats.corrections;
  Alcotest.(check int) "one Correct trace entry per correction"
    sharded.Dyno_core.Stats.corrections entries

(* The partition plan itself. *)
let test_plan () =
  let p = Dyno_core.Shard.plan ~shards:3 [ "DS1"; "DS2"; "DS3" ] in
  Alcotest.(check int) "count" 3 (Dyno_core.Shard.count p);
  Alcotest.(check int) "round-robin 0" 0 (Dyno_core.Shard.owner p "DS1");
  Alcotest.(check int) "round-robin 1" 1 (Dyno_core.Shard.owner p "DS2");
  Alcotest.(check bool)
    "unknown source rejected" true
    (match Dyno_core.Shard.owner p "DS9" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "bad shard count rejected" true
    (match Dyno_core.Shard.plan ~shards:0 [ "DS1" ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Validation error paths of the plan constructor itself. *)
let test_plan_errors () =
  Alcotest.(check bool)
    "duplicate source rejected" true
    (match Dyno_core.Shard.plan ~shards:2 [ "DS1"; "DS2"; "DS1" ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "empty source list rejected" true
    (match Dyno_core.Shard.plan ~shards:2 [] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* More shards than sources is legal — some shards just own nothing. *)
  let p = Dyno_core.Shard.plan ~shards:4 [ "DS1"; "DS2" ] in
  Alcotest.(check int) "oversized plan keeps its count" 4
    (Dyno_core.Shard.count p);
  Alcotest.(check (list int))
    "shard 3 legally empty" [ 0; 1 ]
    (List.map (Dyno_core.Shard.owner p) [ "DS1"; "DS2" ])

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [
          Alcotest.test_case "partition plan" `Quick test_plan;
          Alcotest.test_case "validation errors" `Quick test_plan_errors;
        ] );
      ( "identity",
        [ Alcotest.test_case "1 shard = serial, bit for bit" `Quick
            test_one_shard_identity ] );
      ( "barrier",
        [ Alcotest.test_case "a merge-only pass is a correction" `Quick
            test_barrier_counts_merges ] );
    ]
