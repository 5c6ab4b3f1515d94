(* Integration tests of the full Dyno loop over the paper's 6-relation
   world: every strategy must drain every workload, converge to the
   recomputed extent, and keep every committed view state strongly
   consistent. *)

open Dyno_workload
open Dyno_core

let cost = Dyno_sim.Cost_model.free
let row1 = { Dyno_sim.Cost_model.default with row_scale = 1.0 }

(* World config shared by most integration workloads: snapshots + trace on. *)
let tracked ~rows ~cost =
  Scenario.Config.(
    default |> with_rows rows |> with_cost cost |> with_snapshots true
    |> with_trace true)

let strategies =
  [ Strategy.Pessimistic; Strategy.Optimistic; Strategy.Merge_all ]

let run_workload ~rows ~timeline ~strategy () =
  let t = Scenario.make (tracked ~rows ~cost) ~timeline in
  let stats = Scenario.run t ~config:(Run_config.of_strategy strategy) in
  (t, stats)

let assert_converged t =
  match Scenario.check_convergent t with
  | Ok true -> ()
  | Ok false ->
      Alcotest.failf "view did not converge to recomputed extent@.%a"
        Dyno_sim.Trace.pp t.Scenario.trace
  | Error e -> Alcotest.failf "convergence check impossible: %s" e

let assert_strong t =
  let r = Scenario.check_strong t in
  if not (Consistency.ok r) then
    Alcotest.failf "strong consistency violated: %a@.trace:@.%a"
      Consistency.pp_report r Dyno_sim.Trace.pp t.Scenario.trace

let test_du_only strategy () =
  let timeline =
    Generator.mixed ~rows:30 ~seed:42 ~n_dus:40 ~du_interval:0.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let t, stats = run_workload ~rows:30 ~timeline ~strategy () in
  Alcotest.(check int) "40 DUs maintained" 40
    (stats.Stats.du_maintained + stats.Stats.irrelevant);
  Alcotest.(check int) "no aborts" 0 stats.Stats.aborts;
  assert_converged t;
  assert_strong t

let test_mixed strategy () =
  let timeline =
    Generator.mixed ~rows:25 ~seed:7 ~n_dus:30 ~du_interval:0.0
      ~sc_interval:0.0
      ~sc_kinds:(Generator.drop_then_renames 4)
      ()
  in
  let t, stats = run_workload ~rows:25 ~timeline ~strategy () in
  Alcotest.(check bool) "queue drained" true
    (Dyno_view.Umq.is_empty t.Scenario.umq);
  ignore stats;
  assert_converged t;
  assert_strong t

let test_mixed_spaced strategy () =
  (* Schema changes spread out in time (nonzero simulated costs so that
     arrivals interleave with ongoing maintenance). *)
  let timeline =
    Generator.mixed ~rows:20 ~seed:11 ~n_dus:25 ~du_interval:0.1
      ~sc_start:0.5 ~sc_interval:2.0
      ~sc_kinds:(Generator.drop_then_renames 5)
      ()
  in
  let t = Scenario.make (tracked ~rows:20 ~cost:row1) ~timeline in
  let stats = Scenario.run t ~config:(Run_config.of_strategy strategy) in
  ignore stats;
  assert_converged t;
  assert_strong t

let test_all_sc_kinds strategy () =
  let timeline =
    Generator.mixed ~rows:15 ~seed:3 ~n_dus:20 ~du_interval:0.05
      ~sc_start:0.2 ~sc_interval:1.0
      ~sc_kinds:
        [
          Generator.Rename_attr;
          Generator.Add_attr;
          Generator.Drop_attr;
          Generator.Rename_rel;
          Generator.Rename_rel;
          Generator.Drop_attr;
        ]
      ()
  in
  let t = Scenario.make (tracked ~rows:15 ~cost:row1) ~timeline in
  let stats = Scenario.run t ~config:(Run_config.of_strategy strategy) in
  ignore stats;
  assert_converged t;
  assert_strong t

let test_rename_chain strategy () =
  (* Two renames of the same relation queued together: the second one's
     name no longer matches the view's stale reference — the case the
     conservative CD test exists for. *)
  let timeline =
    Generator.build ~rows:10 ~seed:5
      [
        Generator.At_du 0.0;
        Generator.At_sc (0.0, Generator.Rename_rel);
        Generator.At_sc (0.0, Generator.Rename_rel);
        Generator.At_sc (0.0, Generator.Rename_rel);
        Generator.At_du 0.0;
      ]
  in
  let t, _stats = run_workload ~rows:10 ~timeline ~strategy () in
  assert_converged t;
  assert_strong t

let test_recompute_mode strategy () =
  (* the naive-recompute baseline must deliver the same correctness *)
  let timeline =
    Generator.mixed ~rows:12 ~seed:17 ~n_dus:12 ~du_interval:0.1
      ~sc_interval:1.5
      ~sc_kinds:(Generator.drop_then_renames 2)
      ()
  in
  let t = Scenario.make (tracked ~rows:12 ~cost:row1) ~timeline in
  let _stats =
    Scenario.run t
      ~config:
        Run_config.(
          of_strategy strategy |> with_vm_mode Dyno_core.Run_config.Recompute)
  in
  assert_converged t;
  assert_strong t

let test_du_grouping strategy () =
  (* grouped (deferred) DU maintenance must deliver the same final state
     with fewer view commits *)
  let mk () =
    Generator.mixed ~rows:15 ~seed:13 ~n_dus:24 ~du_interval:0.05
      ~sc_start:0.4 ~sc_interval:1.0
      ~sc_kinds:(Generator.drop_then_renames 2)
      ()
  in
  let run du_group =
    let t = Scenario.make (tracked ~rows:15 ~cost:row1) ~timeline:(mk ()) in
    let stats =
      Scenario.run t
        ~config:Run_config.(of_strategy strategy |> with_du_group du_group)
    in
    assert_converged t;
    assert_strong t;
    stats
  in
  let single = run 1 in
  let grouped = run 8 in
  Alcotest.(check bool) "grouping commits less often" true
    (grouped.Stats.view_commits < single.Stats.view_commits)

(* A grouped sweep reports what it did, as the same updates do one by
   one: the probes it sends reach the statistics, and a group none of
   whose updates touches the view ends irrelevant — no batch, no Batch
   episode, no view commit. *)
let test_grouped_reports () =
  let world ~obs =
    Scenario.make
      Scenario.Config.(default |> with_rows 10 |> with_obs obs)
      ~timeline:
        (Generator.mixed ~rows:10 ~seed:3 ~n_dus:12 ~du_interval:0.0
           ~sc_interval:0.0 ~sc_kinds:[] ())
  in
  let grouped du_group = Run_config.(default |> with_du_group du_group) in
  List.iter
    (fun du_group ->
      let obs = Dyno_obs.Obs.create () in
      let stats = Scenario.run (world ~obs) ~config:(grouped du_group) in
      let sent =
        match
          Dyno_obs.Metrics.histogram_summary (Dyno_obs.Obs.metrics obs)
            "probe.rtt_s"
        with
        | Some h -> h.Dyno_obs.Metrics.count
        | None -> 0
      in
      if sent = 0 then Alcotest.fail "the workload sends no probe";
      Alcotest.(check int)
        (Fmt.str "du_group %d: probes = probe.rtt_s count" du_group)
        sent stats.Stats.probes)
    [ 1; 4 ];
  (* Over V2 (R1 join R2) most of the 12 updates touch no relation of the
     view. *)
  let over_v2 du_group =
    let obs = Dyno_obs.Obs.create () in
    let t = world ~obs in
    let v2 = Scenario.add_view t (Paper_schema.view2_query ()) in
    let stats = Scheduler.run ~config:(grouped du_group) t.engine v2 t.mk in
    let ended_irrelevant =
      List.length
        (List.filter
           (fun (r : Dyno_obs.Lineage.record) ->
             r.Dyno_obs.Lineage.term = Some Dyno_obs.Lineage.Irrelevant)
           (Dyno_obs.Lineage.records (Dyno_obs.Obs.lineage obs)))
    in
    (stats, ended_irrelevant)
  in
  let one, _ = over_v2 1 and group, ended_irrelevant = over_v2 4 in
  Alcotest.(check int) "ungrouped: 10 irrelevant" 10 one.Stats.irrelevant;
  if group.Stats.irrelevant = 0 then
    Alcotest.fail "no group of 4 left V2 untouched";
  Alcotest.(check int) "grouped: every update irrelevant or batched" 12
    (group.Stats.irrelevant + group.Stats.batch_updates);
  Alcotest.(check int) "grouped: irrelevant updates end irrelevant"
    group.Stats.irrelevant ended_irrelevant;
  Alcotest.(check int) "grouped: one Batch episode per batch"
    group.Stats.batches
    (Stats.episodes group Stats.Batch_maint ~aborted:false).Stats.count;
  Alcotest.(check int) "grouped: one view commit per batch"
    group.Stats.batches group.Stats.view_commits

(* -- strategy-independent edge cases -------------------------------- *)

let test_view_undefined () =
  (* dropping a join key (not dispensable, no replacement) leaves the view
     undefined; later updates are acknowledged and dropped, and the run
     still terminates cleanly *)
  let timeline =
    Dyno_sim.Timeline.of_list
      [
        ( 0.0,
          Dyno_sim.Timeline.Sc
            (Dyno_relational.Schema_change.Drop_attribute
               { source = "DS1"; rel = "R1"; attr = "K1" }) );
      ]
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 8 |> with_cost cost |> with_trace true)
      ~timeline
  in
  (* a DU arriving after the view died *)
  Dyno_sim.Timeline.schedule t.Scenario.timeline ~time:1.0
    (Dyno_sim.Timeline.Du
       (Dyno_relational.Update.insert ~source:"DS2" ~rel:"R3"
          (Paper_schema.schema_of_rel 3)
          (Paper_schema.tuple_for 3 0)));
  let stats =
    Scenario.run t ~config:(Run_config.of_strategy Strategy.Pessimistic)
  in
  Alcotest.(check bool) "view undefined" true stats.Stats.view_undefined;
  Alcotest.(check bool) "queue drained anyway" true
    (Dyno_view.Umq.is_empty t.Scenario.umq);
  Alcotest.(check int) "later update dropped" 1 stats.Stats.irrelevant

let test_step_limit () =
  let timeline =
    Generator.mixed ~rows:8 ~seed:1 ~n_dus:30 ~du_interval:0.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(default |> with_rows 8 |> with_cost cost)
      ~timeline
  in
  Alcotest.(check bool) "step limit raises" true
    (match
       Scenario.run t
         ~config:
           Run_config.(
             of_strategy Strategy.Pessimistic |> with_max_steps 3)
     with
    | _ -> false
    | exception Dyno_core.Scheduler.Step_limit_exceeded _ -> true)

let test_idle_accounting () =
  (* spaced updates: maintenance cost excludes waiting *)
  let timeline =
    Generator.mixed ~rows:8 ~seed:2 ~n_dus:3 ~du_start:5.0 ~du_interval:10.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(default |> with_rows 8 |> with_cost row1)
      ~timeline
  in
  let stats =
    Scenario.run t ~config:(Run_config.of_strategy Strategy.Optimistic)
  in
  Alcotest.(check bool) "idle time accounted" true (stats.Stats.idle > 20.0);
  Alcotest.(check bool) "busy excludes idle" true (stats.Stats.busy < 5.0);
  Alcotest.(check int) "no aborts when spaced" 0 stats.Stats.aborts

let test_spaced_scs_never_abort () =
  let timeline =
    Generator.mixed ~rows:8 ~seed:3 ~n_dus:0 ~sc_start:0.0
      ~sc_interval:10_000.0
      ~sc_kinds:(Generator.drop_then_renames 3)
      ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 8 |> with_cost row1 |> with_snapshots true)
      ~timeline
  in
  let stats =
    Scenario.run t ~config:(Run_config.of_strategy Strategy.Optimistic)
  in
  Alcotest.(check int) "no aborts" 0 stats.Stats.aborts;
  assert_converged t;
  assert_strong t

(* A detection pass charges its time on the simulated clock, and a
   commit arriving meanwhile is admitted behind the graph's snapshot.
   These are the specs of [dyno run --dus 400 --du-interval 0.15 --scs 10
   --sc-interval 5] with [--seed 17], [--seed 10 --strategy optimistic]
   and [--seed 12 --multi], built as the CLI builds them: each admits an
   update during detection, and correction must keep it queued. *)
let test_admitted_during_detection () =
  let spec ~seed ~strategy =
    Spec.with_transport Dyno_net.Channel.reliable
      {
        Spec.default with
        seed;
        dus = 400;
        scs = 10;
        du_interval = 0.15;
        sc_interval = 5.0;
        run = Run_config.of_strategy strategy;
        world = Scenario.Config.(Spec.paper_world ~rows:200 |> with_snapshots true);
      }
  in
  let check_view (t : Scenario.t) mv label =
    (match Consistency.convergent t.engine mv with
    | Ok true -> ()
    | Ok false -> Alcotest.failf "%s did not converge" label
    | Error e -> Alcotest.failf "%s not checkable: %s" label e);
    let r = Consistency.check_strong t.engine mv in
    if not (Consistency.ok r && r.Consistency.skipped = 0 && r.checked > 0)
    then
      Alcotest.failf "%s strong consistency: %a" label Consistency.pp_report r
  in
  List.iter
    (fun (seed, strategy) ->
      let s = spec ~seed ~strategy in
      let t, (_ : Stats.t) = Spec.run s in
      check_view t t.mv (Fmt.str "seed %d" seed))
    [ (17, Strategy.Pessimistic); (10, Strategy.Optimistic) ];
  let s = spec ~seed:12 ~strategy:Strategy.Pessimistic in
  let t = Spec.build s in
  let views = [ t.mv; Scenario.add_view t (Paper_schema.view2_query ()) ] in
  ignore
    (Scheduler.dispatch ~config:s.run ~plan:t.plan t.engine views t.mk
      : Stats.t);
  List.iteri
    (fun i mv -> check_view t mv (Fmt.str "seed 12 --multi, view %d" i))
    views

let suite strategy =
  let n = Strategy.to_string strategy in
  [
    Alcotest.test_case (n ^ ": DU-only workload") `Quick (test_du_only strategy);
    Alcotest.test_case (n ^ ": mixed flood") `Quick (test_mixed strategy);
    Alcotest.test_case (n ^ ": mixed spaced") `Quick (test_mixed_spaced strategy);
    Alcotest.test_case (n ^ ": all SC kinds") `Quick (test_all_sc_kinds strategy);
    Alcotest.test_case (n ^ ": rename chain") `Quick (test_rename_chain strategy);
    Alcotest.test_case (n ^ ": recompute baseline") `Quick
      (test_recompute_mode strategy);
    Alcotest.test_case (n ^ ": grouped DU maintenance") `Quick
      (test_du_grouping strategy);
  ]

let () =
  Alcotest.run "scheduler"
    (List.map (fun s -> (Strategy.to_string s, suite s)) strategies
    @ [
        ( "edge cases",
          [
            Alcotest.test_case "view becomes undefined" `Quick test_view_undefined;
            Alcotest.test_case "step limit" `Quick test_step_limit;
            Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
            Alcotest.test_case "spaced SCs never abort" `Quick
              test_spaced_scs_never_abort;
            Alcotest.test_case "update admitted during detection" `Quick
              test_admitted_during_detection;
            Alcotest.test_case "grouped sweeps report what they did" `Quick
              test_grouped_reports;
          ] );
      ])
