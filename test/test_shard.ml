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
  Alcotest.(check (list string))
    "shard 3 legally empty" []
    (Dyno_core.Shard.sources_of p 3)

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
    ]
