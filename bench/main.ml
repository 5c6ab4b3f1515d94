(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 6) plus Bechamel micro-benchmarks of the detection/correction
   machinery and an ablation of the correction granularity.

     dune exec bench/main.exe                  -- everything
     dune exec bench/main.exe -- --only fig10  -- one experiment
     dune exec bench/main.exe -- --rows 1000   -- larger physical extent
     dune exec bench/main.exe -- --fast        -- fewer points (CI)

   Reported times are SIMULATED seconds from the calibrated cost model
   (see lib/sim/cost_model.ml and DESIGN.md §3): the paper's absolute
   numbers came from a 4-PC Oracle8i testbed, so only the shapes are
   expected to match.  The micro benches are REAL time.

   Each experiment checks its own claims as it runs and exits 1 naming
   the first that fails.  The simulated outputs are deterministic, so
   [dune runtest] pins them byte for byte (test/golden/dune); host speed
   is perfbench's, measured in paired runs. *)

open Dyno_relational
open Dyno_workload
open Dyno_core

let rows = ref 500
let fast = ref false
let only = ref ""
let quota = ref 0.5

let line = String.make 72 '-'

let header fmt =
  Fmt.kstr (fun s -> Fmt.pr "@.%s@.%s@.%s@." line s line) fmt

(* A claim an experiment makes of its own result: one that does not hold
   ends the bench with [claim failed: <claim>] on stderr and exit 1. *)
let claim ok fmt =
  Fmt.kstr
    (fun s ->
      if not ok then begin
        Fmt.epr "claim failed: %s@." s;
        exit 1
      end)
    fmt

(* The claim that [value] reaches [floor], the floor stated once. *)
let at_least floor value what =
  claim (value >= floor) "%s is at least %g (%.2f)" what floor value

(* Every paper-world experiment is one spec: [--rows] tuples per
   relation charged as the paper's 100k, DUs trickling in one per second
   (a realistic background load) and the schema-change train starting at
   once. *)
let spec ?(strategy = Strategy.Pessimistic) () =
  {
    Spec.default with
    du_interval = 1.0;
    world = Spec.paper_world ~rows:!rows;
    run = Run_config.of_strategy strategy;
  }

(* [n] data updates [interval] seconds apart, and no schema change. *)
let du_only ~seed ~interval n =
  Generator.mixed ~rows:!rows ~seed ~n_dus:n ~du_interval:interval
    ~sc_interval:0.0 ~sc_kinds:[] ()

let stats_of ?timeline s = snd (Spec.run ?timeline s)

(* ------------------------------------------------------------------ *)
(* Figure 8: data-update processing with vs without detection          *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header
    "Figure 8 - DU processing cost with vs without detection (seconds)";
  Fmt.pr
    "paper shape: both series indistinguishable, linear, ~700 s at 3000 \
     DUs@.@.";
  Fmt.pr "%8s  %14s  %17s  %12s@." "#DUs" "with detection"
    "without detection" "paper (~)";
  let points =
    if !fast then [ 500; 1000; 1500 ] else [ 500; 1000; 1500; 2000; 2500; 3000 ]
  in
  List.iter
    (fun n ->
      (* "With detection": the Dyno pessimistic loop runs its pre-exec flag
         check before every maintenance; "without": the optimistic loop
         never detects (and nothing ever breaks in a DU-only workload). *)
      let run strategy =
        stats_of ~timeline:(du_only ~seed:8 ~interval:0.0 n) (spec ~strategy ())
      in
      let with_d = run Strategy.Pessimistic in
      let without_d = run Strategy.Optimistic in
      Fmt.pr "%8d  %14.1f  %17.1f  %12.1f@." n with_d.Stats.busy
        without_d.Stats.busy
        (0.233 *. float_of_int n))
    points

(* ------------------------------------------------------------------ *)
(* Figure 9: cost of broken query (two conflict workloads x 3 modes)   *)
(* ------------------------------------------------------------------ *)

(* Explicit conflicting updates over the paper schema. *)
let du_on_r1 () =
  Dyno_sim.Timeline.Du
    (Update.insert ~source:"DS1" ~rel:"R1"
       (Paper_schema.schema_of_rel 1)
       (Paper_schema.tuple_for ~salt:777 1 0))

let drop_attr_r3 () =
  Dyno_sim.Timeline.Sc
    (Schema_change.Drop_attribute { source = "DS2"; rel = "R3"; attr = "B3" })

let rename_r5 () =
  Dyno_sim.Timeline.Sc
    (Schema_change.Rename_relation
       { source = "DS3"; old_name = "R5"; new_name = "R5X" })

let fig9 () =
  header "Figure 9 - cost of broken query (seconds)";
  Fmt.pr
    "paper shape: optimistic highest, much higher for SC+SC; pessimistic \
     close to no-concurrency@.@.";
  let run_events spaced strategy events =
    let timeline =
      Dyno_sim.Timeline.of_list
        (List.mapi
           (fun i ev -> ((if spaced then float_of_int i *. 10_000.0 else 0.0), ev))
           events)
    in
    stats_of ~timeline (spec ~strategy ())
  in
  let workloads =
    [
      ("one DU + one SC", [ du_on_r1 (); drop_attr_r3 () ]);
      ("one SC + one SC", [ drop_attr_r3 (); rename_r5 () ]);
    ]
  in
  Fmt.pr "%18s  %10s  %11s  %18s  %18s@." "workload" "no-conc."
    "pessimistic" "optimistic" "(abort of opt.)";
  List.iter
    (fun (name, events) ->
      let no_con = run_events true Strategy.Pessimistic events in
      let pess = run_events false Strategy.Pessimistic events in
      let opt = run_events false Strategy.Optimistic events in
      Fmt.pr "%18s  %10.1f  %11.1f  %18.1f  %18.1f@." name
        no_con.Stats.busy pess.Stats.busy opt.Stats.busy opt.Stats.abort_cost)
    workloads

(* ------------------------------------------------------------------ *)
(* Figures 10-12: mixed workloads                                      *)
(* ------------------------------------------------------------------ *)

(* One point of Figures 10-12: its optimistic and pessimistic runs. *)
let both (s : Spec.t) =
  let run strategy = stats_of { s with run = Run_config.of_strategy strategy } in
  (run Strategy.Optimistic, run Strategy.Pessimistic)

let print_4series points point_label results =
  Fmt.pr "%12s  %11s  %11s  %11s  %11s@." point_label "optimistic"
    "abort(opt)" "pessimistic" "abort(pess)";
  List.iter2
    (fun p (opt, pess) ->
      Fmt.pr "%12s  %11.1f  %11.1f  %11.1f  %11.1f@." p
        opt.Stats.busy opt.Stats.abort_cost pess.Stats.busy
        pess.Stats.abort_cost)
    points results

let fig10 () =
  header
    "Figure 10 - varying the time interval between schema changes \
     (200 DUs + 10 SCs; seconds)";
  Fmt.pr
    "paper shape: cheapest at 0 s (one batch), peak when interval is near \
     one SC maintenance time, pessimistic consistently below optimistic@.@.";
  let points =
    if !fast then [ 0.; 9.; 23.; 41. ] else [ 0.; 3.; 9.; 17.; 23.; 29.; 41. ]
  in
  let results =
    List.map
      (fun itv ->
        both { (spec ()) with seed = 21; dus = 200; scs = 10; sc_interval = itv })
      points
  in
  print_4series
    (List.map (fun p -> Fmt.str "%.0f s" p) points)
    "interval" results

let fig11 () =
  header
    "Figure 11 - increasing the number of schema changes (interval 25 s, \
     200 DUs; seconds)";
  Fmt.pr
    "paper shape: cost and abort cost grow with #SCs; pessimistic below \
     optimistic@.@.";
  let points = if !fast then [ 5; 15; 25 ] else [ 5; 10; 15; 20; 25 ] in
  let results =
    List.map
      (fun n ->
        both { (spec ()) with seed = 22; dus = 200; scs = n; sc_interval = 25.0 })
      points
  in
  print_4series (List.map string_of_int points) "#SCs" results

let fig12 () =
  header
    "Figure 12 - increasing the number of data updates (5 SCs, interval \
     25 s; seconds)";
  Fmt.pr
    "paper shape: abort cost roughly flat in #DUs (aborts are caused by \
     schema changes)@.@.";
  let points =
    if !fast then [ 200; 400; 600 ] else [ 200; 300; 400; 500; 600 ]
  in
  let results =
    List.map
      (fun n ->
        both { (spec ()) with seed = 23; dus = n; scs = 5; sc_interval = 25.0 })
      points
  in
  print_4series (List.map string_of_int points) "#DUs" results

(* ------------------------------------------------------------------ *)
(* Ablation: correction granularity and strategy choice                *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header
    "Ablation - correction granularity (200 DUs + 10 SCs, interval 9 s)";
  Fmt.pr
    "merge-all collapses the whole queue on any conflict: fewer, larger \
     maintenance steps,@.fewer intermediate view states (coarser \
     freshness), and larger abort exposure (Section 4.2).@.@.";
  Fmt.pr "%12s  %9s  %9s  %8s  %9s  %8s  %8s@." "strategy" "cost(s)"
    "abort(s)" "aborts" "commits" "batches" "merges";
  List.iter
    (fun strategy ->
      let s =
        stats_of
          {
            (spec ~strategy ()) with
            seed = 31;
            dus = 200;
            scs = 10;
            sc_interval = 9.0;
          }
      in
      Fmt.pr "%12s  %9.1f  %9.1f  %8d  %9d  %8d  %8d@."
        (Strategy.to_string strategy)
        s.Stats.busy s.Stats.abort_cost s.Stats.aborts s.Stats.view_commits
        s.Stats.batches s.Stats.merges)
    [ Strategy.Pessimistic; Strategy.Optimistic; Strategy.Merge_all ];
  Fmt.pr
    "@.Baseline - incremental VM (SWEEP deltas) vs naive recompute per DU \
     (100 DUs, no SCs):@.@.";
  Fmt.pr "%14s  %10s  %9s@." "vm mode" "cost(s)" "commits";
  List.iter
    (fun (label, vm_mode) ->
      let s =
        stats_of
          ~timeline:(du_only ~seed:32 ~interval:0.0 100)
          { (spec ()) with run = Run_config.(default |> with_vm_mode vm_mode) }
      in
      Fmt.pr "%14s  %10.1f  %9d@." label s.Stats.busy s.Stats.view_commits)
    [
      ("incremental", Dyno_core.Run_config.Incremental);
      ("recompute", Dyno_core.Run_config.Recompute);
    ];
  Fmt.pr
    "@.Deferred/grouped DU maintenance (200 DUs flooding in, no SCs): group \
     size vs cost@.and view freshness (commits).@.@.";
  Fmt.pr "%12s  %10s  %9s@." "group size" "cost(s)" "commits";
  List.iter
    (fun du_group ->
      let s =
        stats_of
          ~timeline:(du_only ~seed:33 ~interval:0.0 200)
          { (spec ()) with run = Run_config.(default |> with_du_group du_group) }
      in
      Fmt.pr "%12d  %10.1f  %9d@." du_group s.Stats.busy s.Stats.view_commits)
    [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Sensitivity: what drives the Figure 11 abort growth                 *)
(* ------------------------------------------------------------------ *)

let sensitivity () =
  header
    "Sensitivity - drop-attribute maintenance cost vs the 25 s interval \
     (10 SCs, 200 DUs)";
  Fmt.pr
    "Figure 11's abort growth appears exactly when one shape-changing \
     maintenance takes@.longer than the inter-SC interval: each arriving \
     rename then breaks the in-flight@.drop, merges with it and restarts \
     it.  Sweeping the rebuild cost shows the crossover.@.@.";
  Fmt.pr "%22s  %14s  %9s  %9s@." "rebuild cost/tuple" "drop maint (s)"
    "cost(s)" "abort(s)";
  List.iter
    (fun rebuild ->
      let base = spec () in
      let cost_model =
        { base.world.cost with Dyno_sim.Cost_model.va_rebuild_per_tuple = rebuild }
      in
      let s =
        stats_of
          {
            base with
            seed = 22;
            dus = 200;
            scs = 10;
            sc_interval = 25.0;
            world = Scenario.Config.with_cost cost_model base.world;
          }
      in
      (* one drop ≈ rename cost + rebuild over the 100k-tuple extent *)
      let drop_estimate =
        20.0 +. (rebuild *. Dyno_sim.Cost_model.rows cost_model !rows)
      in
      Fmt.pr "%22.0e  %14.1f  %9.1f  %9.1f@." rebuild drop_estimate
        s.Stats.busy s.Stats.abort_cost)
    [ 0.0; 2.0e-5; 6.0e-5; 1.2e-4 ]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (real time): detection / correction machinery      *)
(* ------------------------------------------------------------------ *)

(* One Bechamel measurement -> ns/op estimate. *)
let ns_of_test ?quota_s test =
  let open Bechamel in
  let quota_s = match quota_s with Some q -> q | None -> !quota in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some [ est ] -> Some est | _ -> acc)
    results None

let synthetic_umq ~n_dus ~n_scs =
  let umq = Dyno_view.Umq.create () in
  for i = 0 to n_dus - 1 do
    let r = (i mod Paper_schema.n_relations) + 1 in
    ignore
      (Dyno_view.Umq.enqueue umq ~commit_time:(float_of_int i)
         ~source_version:i
         (Dyno_view.Update_msg.Du
            (Update.insert
               ~source:(Paper_schema.source_of_rel r)
               ~rel:(Paper_schema.rel_name r)
               (Paper_schema.schema_of_rel r)
               (Paper_schema.tuple_for ~salt:i r 0))))
  done;
  for i = 0 to n_scs - 1 do
    let r = (i mod Paper_schema.n_relations) + 1 in
    ignore
      (Dyno_view.Umq.enqueue umq
         ~commit_time:(float_of_int (n_dus + i))
         ~source_version:(n_dus + i)
         (Dyno_view.Update_msg.Sc
            (Schema_change.Rename_relation
               {
                 source = Paper_schema.source_of_rel r;
                 old_name = Paper_schema.rel_name r;
                 new_name = Fmt.str "%s_x%d" (Paper_schema.rel_name r) i;
               })))
  done;
  umq

let micro () =
  header
    "Micro-benchmarks (REAL time) - detection & correction machinery";
  Fmt.pr
    "the paper's claim: detection overhead on DU processing is negligible \
     (O(1) flag check);@.graph build is O(m*n), correction O(n+e).@.@.";
  let open Bechamel in
  let query = Paper_schema.view_query () in
  let schemas = Paper_schema.view_schemas () in
  let test_flag =
    let umq = synthetic_umq ~n_dus:1000 ~n_scs:0 in
    Test.make ~name:"flag fast path (1000 DUs, 0 SC)"
      (Staged.stage (fun () ->
           ignore (Dyno_view.Umq.peek_schema_change_flag umq)))
  in
  let graph_test ~n_dus ~n_scs =
    let umq = synthetic_umq ~n_dus ~n_scs in
    let entries = Dyno_view.Umq.entries umq in
    Test.make
      ~name:(Fmt.str "graph build (%d DUs, %d SCs)" n_dus n_scs)
      (Staged.stage (fun () ->
           ignore (Dep_graph.build query schemas entries)))
  in
  let correct_test ~n_dus ~n_scs =
    let umq = synthetic_umq ~n_dus ~n_scs in
    let entries = Dyno_view.Umq.entries umq in
    let g = Dep_graph.build query schemas entries in
    Test.make
      ~name:(Fmt.str "correction: SCC+toposort (%d DUs, %d SCs)" n_dus n_scs)
      (Staged.stage (fun () -> ignore (Dep_graph.correct g)))
  in
  List.iter
    (fun t ->
      match ns_of_test t with
      | Some est -> Fmt.pr "%-45s %12.1f ns/op@." (Test.name t) est
      | None -> Fmt.pr "%-45s (no estimate)@." (Test.name t))
    [
      test_flag;
      graph_test ~n_dus:100 ~n_scs:1;
      graph_test ~n_dus:100 ~n_scs:10;
      graph_test ~n_dus:1000 ~n_scs:10;
      correct_test ~n_dus:100 ~n_scs:10;
      correct_test ~n_dus:1000 ~n_scs:10;
    ]

(* ------------------------------------------------------------------ *)
(* Join micro-benchmarks (real time): physical plans head to head      *)
(* ------------------------------------------------------------------ *)

let join_bench () =
  header "Join micro-benchmarks (REAL time) - physical plans, n x n equi-join";
  Fmt.pr
    "indexed: persistent hash index on the join key, built once and probed \
     per run@.(the maintenance hot path - commits keep the index \
     maintained); ephemeral:@.per-run hash build and discard; nested-loop: \
     the O(n*m) reference plan.@.@.";
  let open Bechamel in
  let sch_r = Schema.of_list [ Attr.int "k"; Attr.int "v" ] in
  let sch_s = Schema.of_list [ Attr.int "k2"; Attr.int "w" ] in
  let q =
    Query.make ~name:"J"
      ~select:[ Query.item "R.k"; Query.item "R.v"; Query.item "S.w" ]
      ~from:[ Query.table ~alias:"R" "ds" "R"; Query.table ~alias:"S" "ds" "S" ]
      ~where:[ Predicate.eq_attr "R.k" "S.k2" ]
  in
  let make_rel sch n salt =
    Relation.of_list sch
      (List.init n (fun i -> [ Value.int i; Value.int ((i * 7) + salt) ]))
  in
  let sizes = if !fast then [ 1_000 ] else [ 1_000; 10_000 ] in
  Fmt.pr "%8s  %15s  %15s  %15s  %10s  %12s@." "rows" "indexed" "ephemeral"
    "nested-loop" "nl/indexed" "nl/ephemeral";
  List.iter
    (fun n ->
      let r = make_rel sch_r n 0 and s = make_rel sch_s n 3 in
      let catalog = Eval.catalog [ ("R", r); ("S", s) ] in
      (* Warm the persistent indexes so the indexed series measures
         probe cost, not the one-off build (in the VM, source commits
         keep them maintained incrementally across probes). *)
      ignore (Eval.run ~planner:`Indexed ~catalog q);
      let t_indexed =
        Test.make
          ~name:(Fmt.str "indexed (%d rows)" n)
          (Staged.stage (fun () ->
               ignore (Eval.run ~planner:`Indexed ~catalog q)))
      in
      let kr = Schema.index_of sch_r "k" and ks = Schema.index_of sch_s "k2" in
      let t_ephemeral =
        Test.make
          ~name:(Fmt.str "ephemeral hash (%d rows)" n)
          (Staged.stage (fun () ->
               ignore (Eval.positional_join r s [ (kr, ks) ])))
      in
      let t_nested =
        Test.make
          ~name:(Fmt.str "nested loop (%d rows)" n)
          (Staged.stage (fun () ->
               ignore (Eval.run ~planner:`Nested_loop ~catalog q)))
      in
      (* A single 10k x 10k nested-loop op runs for seconds: give it
         quota enough for a couple of samples so OLS has points to fit. *)
      let nested_quota = Float.max !quota 2.0 in
      match
        ( ns_of_test t_indexed,
          ns_of_test t_ephemeral,
          ns_of_test ~quota_s:nested_quota t_nested )
      with
      | Some i, Some e, Some nl ->
          Fmt.pr "%8d  %12.0f ns  %12.0f ns  %12.0f ns  %9.1fx  %11.1fx@." n i
            e nl (nl /. i) (nl /. e);
          (* Both plans are measured against the reference in the same
             run, so the ratio holds on any host; a broken index reads
             about 1x. *)
          let ratio plan t =
            at_least 10.0 (nl /. t)
              (Fmt.str "join: nested loop / %s at %d rows" plan n)
          in
          ratio "indexed" i;
          ratio "ephemeral hash" e
      | _ -> claim false "join: every plan has an estimate at %d rows" n)
    sizes

(* ------------------------------------------------------------------ *)
(* Loss-point world of the transport and self-maintenance benches      *)
(* ------------------------------------------------------------------ *)

let loss_points () =
  if !fast then [ 0.0; 0.1; 0.3 ] else [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4 ]

(* The paper's world under a DU-only trickle, with [loss] on the channel,
   run under [run]. *)
let loss_run ?(run = Run_config.default) loss =
  let s = spec () in
  let faults = { Dyno_net.Channel.reliable with loss; retransmit = 0.1 } in
  Spec.run
    ~timeline:(du_only ~seed:8 ~interval:1.0 (if !fast then 100 else 300))
    {
      s with
      world = Scenario.Config.(s.world |> with_faults faults |> with_net_seed 8);
      run;
    }

let converged t =
  match Scenario.check_convergent t with Ok b -> b | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Transport: maintenance cost vs channel loss rate                    *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: sweeps the lib/net fault injector.  Shape to
   expect: busy time grows with the loss rate (timeouts + backoff are
   charged to the view manager), while the view still converges — the
   retry loop and the UMQ sequencer absorb every fault. *)
let net_bench () =
  header "Transport - maintenance cost vs message/RPC loss rate (seconds)";
  Fmt.pr
    "expected shape: busy grows with loss (timeout + backoff); converged \
     stays true@.@.";
  Fmt.pr "%8s  %10s  %10s  %8s  %8s  %10s@." "loss" "busy" "net wait"
    "retries" "lost" "converged";
  List.iter
    (fun loss ->
      let t, stats = loss_run loss in
      let converged = converged t in
      Fmt.pr "%8.2f  %10.1f  %10.1f  %8d  %8d  %10b@." loss stats.Stats.busy
        stats.Stats.net_wait stats.Stats.retries stats.Stats.msgs_lost
        converged;
      claim converged "net: the view converges at loss %.2f" loss)
    (loss_points ())

(* ------------------------------------------------------------------ *)
(* Chain-join world of the overlap and scale benches                   *)
(* ------------------------------------------------------------------ *)

(* Source Si holds one relation Ti(Ki, Ai) and the view chain-joins
   T1..Tn on consecutive keys, so every DU needs n - 1 probe round trips
   to the OTHER sources, and DUs from distinct sources are mutually
   independent.  The cost model is latency-dominated (1 s query RTT,
   microsecond scans). *)
let chain_src i = Fmt.str "S%d" i
let chain_rel i = Fmt.str "T%d" i

let chain_schema i =
  Schema.of_list [ Attr.int (Fmt.str "K%d" i); Attr.int (Fmt.str "A%d" i) ]

let chain_du mku i row =
  Dyno_sim.Timeline.Du
    (mku ~source:(chain_src i) ~rel:(chain_rel i) (chain_schema i) row)

(* Assemble the [n]-source world with [base_rows] rows per relation and
   view [name] over [timeline], and drain it through the dispatch core
   with the sources dealt over [shards] queues. *)
let run_chain ~name ~n ~base_rows ?(obs = Dyno_obs.Obs.disabled)
    ?(shards = 1) ~config timeline =
  let idx = List.init n (fun i -> i + 1) in
  let key i = Fmt.str "%s.K%d" (chain_rel i) i in
  let query =
    Query.make ~name
      ~select:
        (List.concat_map
           (fun i ->
             [
               Query.item (key i); Query.item (Fmt.str "%s.A%d" (chain_rel i) i);
             ])
           idx)
      ~from:(List.map (fun i -> Query.table (chain_src i) (chain_rel i)) idx)
      ~where:
        (List.init (n - 1) (fun i ->
             Predicate.eq_attr (key (i + 1)) (key (i + 2))))
  in
  let registry = Dyno_source.Registry.create () in
  List.iter
    (fun i ->
      let s = Dyno_source.Data_source.create (chain_src i) in
      Dyno_source.Registry.register registry s;
      Dyno_source.Data_source.add_relation s (chain_rel i) (chain_schema i);
      Dyno_source.Data_source.load s (chain_rel i)
        (List.init base_rows (fun k ->
             [ Value.int k; Value.int ((k * 3) + i) ])))
    idx;
  let t =
    Scenario.assemble
      Scenario.Config.(
        default
        |> with_cost
             {
               Dyno_sim.Cost_model.default with
               query_latency = 1.0;
               row_scale = 1.0;
             }
        |> with_obs obs |> with_shards shards)
      ~registry ~mk:(Dyno_source.Meta_knowledge.create ()) ~view:query
      ~timeline
  in
  (Scenario.run t ~config, Dyno_view.Mat_view.extent t.mv)

(* ------------------------------------------------------------------ *)
(* Overlap: serial vs dependency-parallel maintenance (simulated time)  *)
(* ------------------------------------------------------------------ *)

(* Four chain-joined sources: serial busy time is ~3 RTTs per DU
   back-to-back, while [--parallel 4] overlaps whole antichains of four.
   [n_rounds] waves of one insert per source, all committed within the
   first half-second so the UMQ always holds a full-width antichain. *)
let overlap_sources = 4

let overlap_run ?obs ~parallel () =
  let base_rows = 50 in
  let n_rounds = if !fast then 6 else 12 in
  let tl = Dyno_sim.Timeline.create () in
  for j = 0 to n_rounds - 1 do
    for i = 1 to overlap_sources do
      Dyno_sim.Timeline.schedule tl
        ~time:(0.01 *. float_of_int ((j * overlap_sources) + i))
        (chain_du Update.insert i
           [ Value.int (j mod base_rows); Value.int (1000 + (j * 10) + i) ])
    done
  done;
  run_chain ~name:"OV" ~n:overlap_sources ~base_rows ?obs
    ~config:(Run_config.with_parallel parallel Run_config.default)
    tl

let overlap_bench () =
  header
    "Overlap - dependency-parallel maintenance, 4 independent sources \
     (SIMULATED seconds)";
  Fmt.pr
    "four single-relation sources, chain-join view, 1 s probe RTT: serial \
     pays@.every round-trip back-to-back; parallel dispatches antichains \
     of 4.@.@.";
  let stats_s, extent_s = overlap_run ~parallel:1 () in
  let stats_p, extent_p = overlap_run ~parallel:overlap_sources () in
  claim
    (Relation.equal extent_s extent_p)
    "overlap: the parallel extent equals the serial one";
  (* The same parallel run with the full obs stack (spans + metrics +
     lineage) on must stay byte-identical in simulated time. *)
  let stats_obs, extent_obs =
    overlap_run ~obs:(Dyno_obs.Obs.create ()) ~parallel:overlap_sources ()
  in
  claim
    (Relation.equal extent_p extent_obs)
    "overlap: the extent with observability on equals the one with it off";
  let busy_delta = Float.abs (stats_obs.Stats.busy -. stats_p.Stats.busy) in
  claim (busy_delta <= 1e-9)
    "overlap: observability leaves simulated busy unchanged (delta %g s)"
    busy_delta;
  let speedup = stats_s.Stats.busy /. stats_p.Stats.busy in
  Fmt.pr "%12s  %10s  %10s  %8s@." "mode" "busy (s)" "commits" "probes";
  Fmt.pr "%12s  %10.1f  %10d  %8d@." "serial" stats_s.Stats.busy
    stats_s.Stats.view_commits stats_s.Stats.probes;
  Fmt.pr "%12s  %10.1f  %10d  %8d@."
    (Fmt.str "parallel=%d" overlap_sources)
    stats_p.Stats.busy stats_p.Stats.view_commits stats_p.Stats.probes;
  Fmt.pr "@.speedup: %.2fx (extents identical)@." speedup;
  at_least 2.0 speedup "overlap: serial / parallel busy"

(* ------------------------------------------------------------------ *)
(* Lineage overhead: overlap's parallel leg, obs on vs off (HOST time) *)
(* ------------------------------------------------------------------ *)

(* The overlap bench's parallel leg with the full obs stack (spans +
   metrics + lineage) on and off.  A run takes a millisecond or two of
   host CPU, so one timing of each leg is noise: each leg's time is the
   median of [reps] runs, the legs alternating.  Its allocation is
   exact: words allocated, the minor heap emptied before each read.  Host
   time and words vary by host and build, so no golden pins the
   [lineage:] line. *)
let lineage_bench () =
  header
    "Lineage overhead - overlap's parallel leg, observability on vs off \
     (HOST CPU)";
  let reps = 31 in
  let off () = overlap_run ~parallel:overlap_sources () in
  let on () =
    overlap_run ~obs:(Dyno_obs.Obs.create ()) ~parallel:overlap_sources ()
  in
  let cpu f =
    let t0 = Sys.time () in
    ignore (f () : Stats.t * Relation.t);
    Sys.time () -. t0
  in
  let words f =
    let allocated () =
      Gc.minor ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let w0 = allocated () in
    let r = f () in
    (r, allocated () -. w0)
  in
  (* one throwaway each to warm allocators before timing *)
  ignore (off () : Stats.t * Relation.t);
  ignore (on () : Stats.t * Relation.t);
  let cpu_offs = Array.make reps 0.0 and cpu_lins = Array.make reps 0.0 in
  for k = 0 to reps - 1 do
    cpu_offs.(k) <- cpu off;
    cpu_lins.(k) <- cpu on
  done;
  (* Nearest-rank quartiles of a leg's times. *)
  let quartile ts q =
    let a = Array.copy ts in
    Array.sort Float.compare a;
    a.(q * (Array.length a - 1) / 4)
  in
  let cpu_off = quartile cpu_offs 2 and cpu_lin = quartile cpu_lins 2 in
  let (stats_off, _), words_off = words off in
  let (stats_lin, _), words_lin = words on in
  let alloc_ratio = words_lin /. words_off in
  let busy_delta = Float.abs (stats_lin.Stats.busy -. stats_off.Stats.busy) in
  let cpu_overhead_pct =
    if cpu_off > 0.0 then (cpu_lin -. cpu_off) /. cpu_off *. 100.0 else 0.0
  in
  Fmt.pr
    "lineage: busy_s delta %.9f (must be 0), host CPU %+.1f%% vs obs-off \
     (medians of %d alternating runs: %.4fs [%.4f..%.4f] -> %.4fs \
     [%.4f..%.4f]), allocation %.3fx obs-off (%.0f -> %.0f words, exact)@."
    busy_delta cpu_overhead_pct reps cpu_off (quartile cpu_offs 1)
    (quartile cpu_offs 3) cpu_lin (quartile cpu_lins 1) (quartile cpu_lins 3)
    alloc_ratio words_off words_lin;
  (* host CPU timings on a run this short are noisy: fail only on a
     blowup past 50%; an observability budget needs a longer workload *)
  claim
    (cpu_off <= 0.01 || cpu_overhead_pct <= 50.0)
    "lineage: recording costs at most 50%% more host CPU (%.1f%%)"
    cpu_overhead_pct

(* ------------------------------------------------------------------ *)
(* Self-maintenance: the auxiliary-view tier vs the probing SWEEP       *)
(* ------------------------------------------------------------------ *)

(* Same world and fault sweep as the transport bench, run twice per loss
   point: the probing baseline and [--self-maint].  Once the auxiliary
   projections are seeded, every DU sweep over the chain-join view is
   fully covered and answers locally, so the self-maintaining run dodges
   the probe round-trips entirely — and with them the channel's losses,
   timeouts and backoff.  Extents are asserted identical at every point
   (the tier is an optimization, never a semantic change). *)
let selfmaint_bench () =
  header
    "Self-maintenance - auxiliary-view tier vs probing SWEEP under \
     transport loss (SIMULATED seconds)";
  Fmt.pr
    "expected shape: >= 60%% of probe round-trips answered locally; busy \
     and bytes-on-wire@.drop accordingly; extents stay identical at every \
     loss rate.@.@.";
  Fmt.pr "%8s  %8s  %8s  %8s  %7s  %10s  %10s  %12s@." "loss" "probes"
    "probes'" "avoided" "pct" "busy" "busy'" "bytes saved";
  List.iter
    (fun loss ->
      let base, stats_b = loss_run loss in
      let sm, stats_s =
        loss_run ~run:(Run_config.with_self_maint true Run_config.default) loss
      in
      claim
        (Relation.equal
           (Dyno_view.Mat_view.extent base.Scenario.mv)
           (Dyno_view.Mat_view.extent sm.Scenario.mv))
        "selfmaint: the extent equals the probing run's at loss %.2f" loss;
      let avoided = stats_s.Stats.probes_avoided in
      let pct =
        let total = stats_s.Stats.probes + avoided in
        if total = 0 then 0.0
        else 100.0 *. float_of_int avoided /. float_of_int total
      in
      Fmt.pr "%8.2f  %8d  %8d  %8d  %6.1f%%  %10.1f  %10.4f  %10d B@." loss
        stats_b.Stats.probes stats_s.Stats.probes avoided pct
        stats_b.Stats.busy stats_s.Stats.busy stats_s.Stats.bytes_saved;
      claim (converged sm) "selfmaint: the view converges at loss %.2f" loss;
      at_least 60.0 pct
        (Fmt.str "selfmaint: %% of probes avoided at loss %.2f" loss))
    (loss_points ());
  Fmt.pr
    "@.(probes' / busy' = the --self-maint run; extents checked identical \
     at every point)@."

(* ------------------------------------------------------------------ *)
(* Scale: sharded view manager, DU throughput at bounded staleness      *)
(* ------------------------------------------------------------------ *)

(* Eight chain-joined sources, heavy-tailed (Zipf alpha = 0.7) per-source
   commit distribution, and a paced arrival schedule: each leg offers
   load at ~91% of what its hottest shard can sustain, so the view's
   staleness stays bounded (checked as a [view.*.staleness_s] p99 SLO)
   and the reported throughput is honest-to-goodness sustained DU/s of
   simulated time, not a drain rate with unbounded lag.  Every DU
   alternates insert/delete of one off-join-key row, so extents stay
   bounded across a million updates while each sweep still pays its 7
   probe round-trips. *)
let scale_bench () =
  header
    "Scale - sharded view manager: sustained DU/s at bounded staleness \
     (SIMULATED time)";
  Fmt.pr
    "8 Zipf-weighted sources partitioned over 1/2/4/8 shards; each leg is \
     paced to ~91%%@.of its hottest shard's service rate, so throughput \
     scales as 1 / (hottest shard's@.traffic share) while staleness p99 \
     stays bounded.@.@.";
  let n_sources = 8 in
  let sources = List.init n_sources (fun i -> chain_src (i + 1)) in
  let weights = Generator.zipf ~alpha:0.7 ~n:n_sources in
  (* Deterministic heavy-tailed source stream: smooth weighted
     round-robin over the Zipf weights.  Deterministic pacing keeps the
     whole bench reproducible (stable baselines) and avoids artificial
     burst noise in the staleness tail. *)
  let source_stream () =
    let acc = Array.make n_sources 0.0 in
    fun () ->
      let best = ref 0 in
      for i = 0 to n_sources - 1 do
        acc.(i) <- acc.(i) +. weights.(i);
        if acc.(i) > acc.(!best) then best := i
      done;
      acc.(!best) <- acc.(!best) -. 1.0;
      !best
  in
  let build_timeline ~n ~horizon =
    let next = source_stream () in
    let flip = Array.make n_sources false in
    let tl = Dyno_sim.Timeline.create () in
    for j = 0 to n - 1 do
      let i = next () in
      let mku = if flip.(i) then Update.delete else Update.insert in
      flip.(i) <- not flip.(i);
      Dyno_sim.Timeline.schedule tl
        ~time:(horizon *. float_of_int j /. float_of_int n)
        (chain_du mku (i + 1) [ Value.int (100 + i); Value.int i ])
    done;
    tl
  in
  (* Spans off (a million Maintain spans is gigabytes of retained
     records), metrics on: the staleness histograms and shard gauges are
     bounded-size. *)
  let run ~shards ~timeline =
    let obs =
      {
        Dyno_obs.Obs.spans = Dyno_obs.Span.disabled;
        metrics = Dyno_obs.Metrics.create ~enabled:true ();
        series = Dyno_obs.Timeseries.disabled;
        lineage = Dyno_obs.Lineage.disabled;
      }
    in
    let stats, _ =
      run_chain ~name:"SCALE" ~n:n_sources ~base_rows:4 ~obs ~shards
        ~config:
          Run_config.(
            of_strategy Strategy.Pessimistic |> with_max_steps max_int)
        timeline
    in
    (stats, Dyno_obs.Obs.metrics obs)
  in
  (* Calibrate the per-DU service time (everything arrives at t = 0, one
     shard, serial drain): the pacing horizons below derive from it, so
     the bench self-adjusts if the cost model moves. *)
  let cal_n = if !fast then 200 else 500 in
  let s_du =
    let stats, _ =
      run ~shards:1 ~timeline:(build_timeline ~n:cal_n ~horizon:0.0)
    in
    stats.Stats.busy /. float_of_int cal_n
  in
  let n = if !fast then 20_000 else 1_000_000 in
  let slo_thresh = 25.0 *. s_du in
  let slo_spec = Fmt.str "view.SCALE.staleness_s.p99 <= %.6g" slo_thresh in
  let objective = Dyno_obs.Slo.parse_exn slo_spec in
  Fmt.pr
    "calibrated service time: %.2f simulated s/DU; %d DUs per leg; SLO: \
     %s@.@."
    s_du n slo_spec;
  (* Hottest shard's traffic share under the plan's round-robin deal. *)
  let w_max shards =
    let plan = Shard.plan ~shards sources in
    let w = Array.make shards 0.0 in
    List.iteri
      (fun i s ->
        let o = Shard.owner plan s in
        w.(o) <- w.(o) +. weights.(i))
      sources;
    Array.fold_left Float.max 0.0 w
  in
  Fmt.pr "%7s  %12s  %14s  %5s  %9s  %8s  %8s@." "shards" "DU/s (sim)"
    "staleness p99" "SLO" "barriers" "speedup" "ideal";
  let base_throughput = ref 0.0 in
  List.iter
    (fun shards ->
      let wm = w_max shards in
      let horizon = 1.1 *. float_of_int n *. s_du *. wm in
      let stats, metrics = run ~shards ~timeline:(build_timeline ~n ~horizon) in
      let makespan = stats.Stats.end_time in
      let du_per_s = float_of_int n /. makespan in
      if shards = 1 then base_throughput := du_per_s;
      let p99 =
        match
          Dyno_obs.Metrics.histogram_summary metrics "view.SCALE.staleness_s"
        with
        | Some h -> h.Dyno_obs.Metrics.p99
        | None -> Float.nan
      in
      let verdict = Dyno_obs.Slo.eval metrics objective in
      let barriers =
        Dyno_obs.Metrics.counter_value metrics "sched.cross_shard_barriers"
      in
      let speedup = du_per_s /. !base_throughput in
      Fmt.pr "%7d  %12.4f  %12.2f s  %5s  %9d  %7.2fx  %7.2fx@." shards
        du_per_s p99
        (if verdict.Dyno_obs.Slo.pass then "ok" else "FAIL")
        barriers speedup (1.0 /. wm);
      claim verdict.Dyno_obs.Slo.pass
        "scale: the staleness SLO holds at %d shard(s)" shards;
      if shards = 8 then at_least 2.5 speedup "scale: 8-shard / 1-shard DU/s")
    [ 1; 2; 4; 8 ];
  Fmt.pr
    "@.(ideal = 1 / hottest shard's Zipf traffic share; the paced \
     horizon makes each@.leg's makespan track it, minus the drain \
     tail)@."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("ablation", ablation);
    ("sensitivity", sensitivity);
    ("micro", micro);
    ("join", join_bench);
    ("net", net_bench);
    ("overlap", overlap_bench);
    ("lineage", lineage_bench);
    ("selfmaint", selfmaint_bench);
    ("scale", scale_bench);
  ]

(* The one source of truth for what exists: both [--list] and the
   [--only] usage string derive from the [experiments] table. *)
let experiment_names = List.map fst experiments

let () =
  let list_only = ref false in
  let specs =
    [
      ("--list", Arg.Set list_only, "list the available experiments, one per line, and exit");
      ("--only", Arg.Set_string only, Fmt.str "run a single experiment (%s)" (String.concat ", " experiment_names));
      ("--rows", Arg.Set_int rows, "physical rows per relation (default 500; logical is always 100k via cost scaling)");
      ("--fast", Arg.Set fast, "fewer sweep points / smaller join sizes");
      ("--quota", Arg.Set_float quota, "bechamel quota per micro-bench, seconds (default 0.5)");
    ]
  in
  Arg.parse specs (fun _ -> ()) "dyno benchmarks";
  if !list_only then begin
    List.iter (Fmt.pr "%s@.") experiment_names;
    exit 0
  end;
  let todo =
    if !only = "" then List.map snd experiments
    else
      match List.assoc_opt !only experiments with
      | Some f -> [ f ]
      | None ->
          Fmt.epr "unknown experiment %s (try --list)@." !only;
          exit 1
  in
  Fmt.pr
    "Dyno benchmark harness - %d physical rows/relation, cost model scaled \
     to the paper's 100k.@.All figure numbers are SIMULATED seconds; micro \
     benches are real time.@."
    !rows;
  List.iter (fun f -> f ()) todo
