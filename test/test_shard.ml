(* Property tests for the sharded view manager: partitioning the sources
   across shards — each with its own queue, channel and exactly-once
   sequencer — must be observationally equivalent to the single serial
   view manager.  Shard-local DU rounds commit in global arrival order
   with exclusion sets fixed at dispatch, and schema changes serialize at
   the cross-shard barrier, so the only thing sharding may change is the
   simulated clock — never the view.

   Checked under fault injection (per-shard channels draw independent
   RNG streams, so loss/dup/reorder patterns differ between the serial
   and sharded runs — the equivalence must hold anyway: exactly-once
   sequencing makes the delivered per-source streams identical). *)

open Dyno_relational
open Dyno_net

let scenario ?faults ?net_seed ~shards ~seed ~n_dus ~n_scs () =
  let timeline =
    Dyno_workload.Generator.mixed ~rows:10 ~seed ~n_dus ~du_interval:0.2
      ~sc_start:0.1 ~sc_interval:1.5
      ~sc_kinds:(Dyno_workload.Generator.drop_then_renames n_scs)
      ()
  in
  let c =
    Dyno_workload.Scenario.Config.(
      default |> with_rows 10
      |> with_cost { Dyno_sim.Cost_model.default with row_scale = 1.0 }
      |> with_snapshots true |> with_shards shards)
  in
  let c =
    match faults with
    | Some f -> Dyno_workload.Scenario.Config.with_faults f c
    | None -> c
  in
  let c =
    match net_seed with
    | Some n -> Dyno_workload.Scenario.Config.with_net_seed n c
    | None -> c
  in
  Dyno_workload.Scenario.make c ~timeline

(* Per-source sets of update messages integrated into the view (see
   test_parallel.ml): commit-log ids resolved through the id ->
   (source, version) index.  Serial and sharded runs may interleave
   commits differently on the clock, but must apply the same updates of
   every source. *)
let applied_per_source (t : Dyno_workload.Scenario.t) =
  let index = Dyno_workload.Scenario.msg_index t in
  let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Dyno_view.Mat_view.commit) ->
      List.iter
        (fun id ->
          match List.assoc_opt id index with
          | None -> ()
          | Some (src, version) -> (
              match Hashtbl.find_opt tbl src with
              | Some l -> l := version :: !l
              | None -> Hashtbl.add tbl src (ref [ version ])))
        c.maintained)
    (Dyno_view.Mat_view.commits t.mv);
  Hashtbl.fold
    (fun src l acc -> (src, List.sort_uniq Int.compare !l) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let arb_shard_workload =
  QCheck.make
    QCheck.Gen.(
      let f01 lo hi = map (fun x -> float_of_int x /. 100.0) (int_range lo hi) in
      pair
        (quad (int_range 1 10000) (int_range 1 12) (int_range 0 2)
           (int_range 0 2))
        (quad (f01 0 25) (f01 0 25)
           (pair (f01 0 25) (int_range 0 1))
           (int_range 0 1000)))
    ~print:
      (fun ((seed, dus, scs, strat), (loss, dup, (reorder, sh), net_seed)) ->
      Fmt.str
        "seed=%d dus=%d scs=%d strategy=%d loss=%.2f dup=%.2f reorder=%.2f \
         shards=%d net_seed=%d"
        seed dus scs strat loss dup reorder
        (if sh = 0 then 2 else 4)
        net_seed)

(* The golden property of the sharded engine: for every workload, fault
   mix and strategy, [shards = k] reaches the same final extent, the
   same strong-consistency verdict and the same per-source applied
   sets as the single serial view manager. *)
let prop_sharded_equals_serial =
  QCheck.Test.make
    ~name:"sharded maintenance is observationally serial (faults included)"
    ~count:300 arb_shard_workload
    (fun ((seed, n_dus, n_scs, strat), (loss, dup, (reorder, sh), net_seed))
       ->
      let strategy =
        match strat with
        | 0 -> Dyno_core.Strategy.Pessimistic
        | 1 -> Dyno_core.Strategy.Optimistic
        | _ -> Dyno_core.Strategy.Merge_all
      in
      let shards = if sh = 0 then 2 else 4 in
      let faults =
        {
          Channel.reliable with
          loss;
          dup;
          reorder;
          reorder_delay = 0.5;
          retransmit = 0.05;
        }
      in
      let run ~shards =
        let t = scenario ~faults ~net_seed ~shards ~seed ~n_dus ~n_scs () in
        let stats =
          Dyno_workload.Scenario.run t
            ~config:(Dyno_core.Run_config.of_strategy strategy)
        in
        (t, stats)
      in
      let ts, stats_s = run ~shards:1 in
      let tk, stats_k = run ~shards in
      let same_extent =
        Relation.equal
          (Dyno_view.Mat_view.extent ts.Dyno_workload.Scenario.mv)
          (Dyno_view.Mat_view.extent tk.Dyno_workload.Scenario.mv)
      in
      let strong_s =
        Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong ts)
      in
      let strong_k =
        Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong tk)
      in
      let convergent =
        match Dyno_workload.Scenario.check_convergent tk with
        | Ok b -> b
        | Error _ -> false
      in
      let same_applied = applied_per_source ts = applied_per_source tk in
      let no_undefined =
        stats_s.Dyno_core.Stats.view_undefined
        = stats_k.Dyno_core.Stats.view_undefined
      in
      same_extent && convergent
      && Bool.equal strong_s strong_k
      && same_applied && no_undefined)

(* Shards combine with per-shard parallelism: every shard dispatches an
   antichain of its own queue per round.  Same observational claim. *)
let prop_sharded_parallel_equals_serial =
  QCheck.Test.make
    ~name:"shards x parallel is observationally serial" ~count:60
    arb_shard_workload
    (fun ((seed, n_dus, n_scs, strat), (loss, dup, (reorder, sh), net_seed))
       ->
      let strategy =
        match strat with
        | 0 -> Dyno_core.Strategy.Pessimistic
        | 1 -> Dyno_core.Strategy.Optimistic
        | _ -> Dyno_core.Strategy.Merge_all
      in
      let shards = if sh = 0 then 2 else 4 in
      let faults =
        {
          Channel.reliable with
          loss;
          dup;
          reorder;
          reorder_delay = 0.5;
          retransmit = 0.05;
        }
      in
      let run ~shards ~parallel =
        let t = scenario ~faults ~net_seed ~shards ~seed ~n_dus ~n_scs () in
        ignore
          (Dyno_workload.Scenario.run t
             ~config:
               Dyno_core.Run_config.(
                 of_strategy strategy |> with_parallel parallel)
            : Dyno_core.Stats.t);
        t
      in
      let ts = run ~shards:1 ~parallel:1 in
      let tk = run ~shards ~parallel:3 in
      Relation.equal
        (Dyno_view.Mat_view.extent ts.Dyno_workload.Scenario.mv)
        (Dyno_view.Mat_view.extent tk.Dyno_workload.Scenario.mv)
      && applied_per_source ts = applied_per_source tk
      && Bool.equal
           (Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong ts))
           (Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong tk)))

(* A 1-shard plan is not merely equivalent — dispatch over it must be
   Scheduler.run bit for bit, trace entries included, on a zero-fault
   world. *)
let test_one_shard_identity () =
  let mk () =
    let timeline =
      Dyno_workload.Generator.mixed ~rows:10 ~seed:11 ~n_dus:12
        ~du_interval:0.2 ~sc_start:0.1 ~sc_interval:1.5
        ~sc_kinds:(Dyno_workload.Generator.drop_then_renames 2)
        ()
    in
    Dyno_workload.Scenario.make
      Dyno_workload.Scenario.Config.(
        default |> with_rows 10
        |> with_cost { Dyno_sim.Cost_model.default with row_scale = 1.0 }
        |> with_snapshots true |> with_trace true)
      ~timeline
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

let to_alcotest = QCheck_alcotest.to_alcotest

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
      ( "equivalence",
        List.map to_alcotest
          [ prop_sharded_equals_serial; prop_sharded_parallel_equals_serial ]
      );
    ]
