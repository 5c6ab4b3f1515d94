(* Tests for the observability layer (lib/obs) and its integration:

   - span recorder mechanics: nesting, attrs, disabled no-op;
   - metrics registry: counters, gauges, histogram quantiles;
   - the trace log: every entry kept and counted;
   - chrome-trace structural checks: every child span lies within its
     parent's [ts, ts + dur] window;
   - cross-accounting: Σ Maintain span durations = Stats.busy, and the
     span-derived breakdown agrees with Stats on busy/abort/idle/net-wait;
   - the obs-off guarantee: enabling recording changes no Stats byte and
     no view tuple;
   - laziness: lineage and span texts are rendered when exported, once;
     an enabled trace renders at record time; a disabled recorder never
     renders;
   - the allocation budget: a fleet-shaped run with every recorder on
     allocates at most 1.2x the words of the same run with them off;
   - the dense stores: spans by id across interleaved contexts, lineage
     records by message id and by (source, seq) whatever the keys'
     spread; a registered metric updates without allocating;
   - JSON round-trips: stats, metrics, chrome trace and lineage JSONL
     all parse under the tiny checker in Json_check. *)

open Dyno_obs

(* -- a small faulty workload that exercises every span kind ------------- *)

(* The shared base run, traced, with [loss] on channel stream 99. *)
let spec ?(obs = Obs.disabled) ?(loss = 0.0) ?(shards = 1) ~seed ~dus ~scs
    () : Dyno_workload.Spec.t =
  {
    Fixture.base with
    seed;
    dus;
    scs;
    world =
      Dyno_workload.Scenario.Config.(
        Fixture.base.world |> with_trace true
        |> with_faults
             { Dyno_net.Channel.reliable with loss; retransmit = 0.05 }
        |> with_net_seed 99 |> with_obs obs |> with_shards shards);
  }

(* The world's view and the CLI's narrower --multi view [V2], as a
   two-view set. *)
let two_views (t : Dyno_workload.Scenario.t) =
  [
    t.mv;
    Dyno_workload.Scenario.add_view t
      (Dyno_workload.Paper_schema.view2_query ());
  ]

(* The three dispatch shapes the shared accounting must hold for: one
   queue and one view at width 1, two shards at width 2, and a two-view
   set. *)
type mode = Serial | Sharded | Multi

let modes = [ ("serial", Serial); ("2 shards x 2", Sharded); ("two views", Multi) ]

let run_mode ?(strategy = Dyno_core.Strategy.Pessimistic) mode
    (t : Dyno_workload.Scenario.t) =
  let config = Dyno_core.Run_config.of_strategy strategy in
  match mode with
  | Serial -> Dyno_workload.Scenario.run t ~config
  | Sharded ->
      Dyno_workload.Scenario.run t
        ~config:(Dyno_core.Run_config.with_parallel 2 config)
  | Multi ->
      Dyno_core.Scheduler.dispatch ~config t.Dyno_workload.Scenario.engine
        (two_views t) t.Dyno_workload.Scenario.mk

let run_observed ?loss ?(strategy = Dyno_core.Strategy.Pessimistic)
    ?(mode = Serial) ?(seed = 11) () =
  let obs = Obs.create () in
  let shards = if mode = Sharded then 2 else 1 in
  let t =
    Dyno_workload.Spec.build (spec ~obs ?loss ~shards ~seed ~dus:12 ~scs:2 ())
  in
  let stats = run_mode ~strategy mode t in
  (obs, t, stats)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* -- span recorder ------------------------------------------------------ *)

let test_span_nesting_ids () =
  let r = Span.create () in
  let clock = ref 0.0 in
  let now () = !clock in
  let inner_id = ref 0 in
  let outer =
    Span.with_span r ~now Span.Maintain (lazy "outer") (fun outer ->
        clock := 1.0;
        Span.with_span r ~now Span.Probe (lazy "inner") (fun inner ->
            inner_id := inner;
            clock := 2.0);
        clock := 3.0;
        outer)
  in
  match Span.(find r !inner_id, find r outer) with
  | Some inner, Some outer_span ->
      Alcotest.(check int) "child parented" outer inner.Span.parent;
      Alcotest.(check int) "root has no parent" 0 outer_span.Span.parent;
      Alcotest.(check (float 0.0)) "inner start" 1.0 inner.Span.start;
      Alcotest.(check (float 0.0)) "inner finish" 2.0 inner.Span.finish;
      Alcotest.(check (float 0.0)) "outer finish" 3.0 outer_span.Span.finish
  | _ -> Alcotest.fail "both spans should be recorded"

let test_span_disabled_noop () =
  let r = Span.disabled in
  let id =
    Span.with_span r
      ~now:(fun () -> 0.0)
      Span.Maintain (lazy "x")
      (fun id ->
        Span.set_attr r id "k" "v";
        Span.instant r ~time:0.0 "ev" (lazy "d");
        id)
  in
  Alcotest.(check int) "id is 0" 0 id;
  Alcotest.(check int) "no spans" 0 (Span.span_count r);
  Alcotest.(check int) "no events" 0 (List.length (Span.events r))

let test_span_exception_safety () =
  let r = Span.create () in
  let clock = ref 5.0 in
  (try
     Span.with_span r
       ~now:(fun () -> !clock)
       Span.Vs (lazy "boom")
       (fun _ ->
         clock := 7.0;
         failwith "boom")
   with Failure _ -> ());
  match Span.spans r with
  | [ s ] ->
      Alcotest.(check (float 0.0)) "closed at raise time" 7.0 s.Span.finish;
      Alcotest.(check int) "nothing left open" 0 (List.length (Span.open_spans r))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* -- metrics ------------------------------------------------------------ *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "a");
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value m "g");
  Alcotest.(check int) "absent counter is 0" 0 (Metrics.counter_value m "zz")

let test_metrics_quantiles () =
  let m = Metrics.create () in
  (* 100 observations 0.01 .. 1.00: p50 ≈ 0.5, p99 ≈ 1.0 up to one log₂
     bucket of slack (quantile returns the bucket's upper bound clamped to
     the observed max). *)
  for i = 1 to 100 do
    Metrics.observe m "lat_s" (float_of_int i /. 100.0)
  done;
  let p50 = Metrics.quantile m "lat_s" 0.5 in
  let p99 = Metrics.quantile m "lat_s" 0.99 in
  Alcotest.(check bool) "p50 in [0.5, 1.0]" true (p50 >= 0.5 && p50 <= 1.0);
  Alcotest.(check bool) "p99 in [0.99, 1.0]" true (p99 >= 0.99 && p99 <= 1.0);
  match Metrics.histogram_summary m "lat_s" with
  | Some s ->
      Alcotest.(check int) "count" 100 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 50.5 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "min" 0.01 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 1.0 s.Metrics.max
  | None -> Alcotest.fail "summary expected"

let test_metrics_disabled_noop () =
  let m = Metrics.disabled in
  Metrics.incr m "a";
  Metrics.observe m "h" 1.0;
  Alcotest.(check int) "no counter" 0 (Metrics.counter_value m "a");
  Alcotest.(check (list string)) "no names" [] (Metrics.names m)

(* -- trace log ------------------------------------------------------------ *)

let test_trace_unbounded_growth () =
  let open Dyno_sim in
  let t = Trace.create () in
  for i = 1 to 1000 do
    Trace.record t ~time:(float_of_int i) Trace.Commit (lazy "c")
  done;
  Alcotest.(check int) "all retained" 1000 (List.length (Trace.entries t));
  Alcotest.(check int) "count" 1000 (Trace.count t Trace.Commit)

(* -- chrome-trace structure: children nest within parents --------------- *)

let test_span_nesting_in_run () =
  let obs, _, _ = run_observed ~loss:0.3 () in
  let spans = Span.spans (Obs.spans obs) in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  List.iter
    (fun (s : Span.t) ->
      if s.Span.parent <> 0 then
        match Hashtbl.find_opt by_id s.Span.parent with
        | None -> Alcotest.failf "span %d: dangling parent %d" s.Span.id s.Span.parent
        | Some p ->
            let within =
              s.Span.start >= p.Span.start -. 1e-9
              && s.Span.finish <= p.Span.finish +. 1e-9
            in
            if not within then
              Alcotest.failf
                "span %d [%g, %g] escapes parent %d [%g, %g]" s.Span.id
                s.Span.start s.Span.finish p.Span.id p.Span.start p.Span.finish)
    spans;
  (* the run under faults exercises the whole vocabulary we care about *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "kind %s present" (Span.kind_to_string k))
        true
        (Span.count_kind (Obs.spans obs) k > 0))
    Span.[ Maintain; Detect; Correct; Probe; Refresh; Vs; Va; Batch; Retry; Timeout ]

(* -- cross-accounting against Stats ------------------------------------- *)

let sum_kind r k = Span.total_duration r k

let test_maintain_sum_equals_busy () =
  List.iter
    (fun (name, mode) ->
      let obs, _, stats = run_observed ~loss:0.3 ~mode () in
      let r = Obs.spans obs in
      Alcotest.(check (float 1e-6))
        (name ^ ": Σ maintain = Stats.busy")
        stats.Dyno_core.Stats.busy (sum_kind r Span.Maintain))
    modes

let test_breakdown_matches_stats () =
  List.iter
    (fun (name, mode) ->
      let obs, _, stats = run_observed ~loss:0.3 ~mode () in
      let b = Export.breakdown (Obs.spans obs) in
      let open Dyno_core in
      Alcotest.(check (float 1e-6)) (name ^ ": busy") stats.Stats.busy
        b.Export.busy;
      Alcotest.(check (float 1e-6))
        (name ^ ": abort cost") stats.Stats.abort_cost b.Export.abort_cost;
      Alcotest.(check (float 1e-6))
        (name ^ ": net wait") stats.Stats.net_wait b.Export.net_wait;
      Alcotest.(check (float 1e-6))
        (name ^ ": idle = horizon - busy")
        (b.Export.horizon -. b.Export.busy)
        b.Export.idle)
    modes

(* Every detection pass leaves one Detect entry, whatever the dispatch
   shape (the sharded barrier and the view-set pass included). *)
let test_detect_entry_per_pass () =
  List.iter
    (fun (name, mode) ->
      List.iter
        (fun seed ->
          let _, t, stats = run_observed ~mode ~seed () in
          let detections = stats.Dyno_core.Stats.detections in
          if detections = 0 then
            Alcotest.failf "%s seed %d: no detection pass to check" name seed;
          Alcotest.(check int)
            (Fmt.str "%s seed %d: Detect entries = detections" name seed)
            detections
            (Dyno_sim.Trace.count t.Dyno_workload.Scenario.trace
               Dyno_sim.Trace.Detect))
        [ 11; 12; 13 ])
    modes

(* Merge-all collapses keep their provenance on every dispatch path: one
   Merge trace entry and one lineage merge (parent links to the batch's
   oldest update) per collapse, from grouped sweeps and parallel rounds as
   from the queue head. *)
let test_merge_all_provenance () =
  List.iter
    (fun (name, run) ->
      let obs = Obs.create () in
      let t, stats =
        Dyno_workload.Spec.run
          {
            seed = 1;
            dus = 16;
            du_interval = 0.05;
            scs = 2;
            sc_start = 0.3;
            sc_interval = 1.0;
            world =
              Dyno_workload.Scenario.Config.(
                Fixture.base.world |> with_snapshots false |> with_trace true
                |> with_obs obs);
            run;
          }
      in
      let merges = stats.Dyno_core.Stats.merges in
      if merges < 2 then Alcotest.failf "%s: expected repeated collapses" name;
      Alcotest.(check int) (name ^ ": one Merge entry per collapse") merges
        (Dyno_sim.Trace.count t.Dyno_workload.Scenario.trace
           Dyno_sim.Trace.Merge);
      Alcotest.(check int)
        (name ^ ": one lineage merge per collapse")
        merges
        (Metrics.counter_value (Obs.metrics obs) "lineage.merges");
      (* every collapsed member other than the oldest links to a parent *)
      let linked =
        List.length
          (List.filter
             (fun (r : Lineage.record) -> r.Lineage.parent >= 0)
             (Lineage.records (Obs.lineage obs)))
      in
      if linked = 0 then Alcotest.failf "%s: no merge-all parent links" name)
    Dyno_core.Run_config.
      [
        ("grouped sweeps", of_strategy Dyno_core.Strategy.Merge_all |> with_du_group 4);
        ("parallel rounds", of_strategy Dyno_core.Strategy.Merge_all |> with_parallel 3);
      ]

let test_metrics_mirror_stats () =
  let obs, _, stats = run_observed ~loss:0.3 () in
  let m = Obs.metrics obs in
  let open Dyno_core in
  Alcotest.(check int)
    "du_maintained mirrored" stats.Stats.du_maintained
    (Metrics.counter_value m "sched.du_maintained");
  Alcotest.(check int)
    "probes mirrored" stats.Stats.probes
    (Metrics.counter_value m "sched.probes");
  Alcotest.(check int)
    "live retries = stats retries" stats.Stats.retries
    (Metrics.counter_value m "net.retries");
  Alcotest.(check (float 1e-9))
    "busy gauge" stats.Stats.busy
    (Metrics.gauge_value m "sched.busy_s")

(* -- obs off changes nothing -------------------------------------------- *)

let test_obs_off_identical () =
  let run obs =
    let t, stats =
      Dyno_workload.Spec.run (spec ~obs ~loss:0.3 ~seed:11 ~dus:12 ~scs:2 ())
    in
    ( Fmt.str "%a" Dyno_core.Stats.pp stats,
      Dyno_view.Mat_view.extent t.Dyno_workload.Scenario.mv )
  in
  let s_off, e_off = run Obs.disabled in
  let s_on, e_on = run (Obs.create ()) in
  Alcotest.(check string) "stats byte-identical" s_off s_on;
  Alcotest.(check bool) "extent identical" true
    (Dyno_relational.Relation.equal e_off e_on);
  (* lineage off with the rest of obs on is just as invisible *)
  let s_nl, e_nl = run (Obs.create ~lineage:false ()) in
  Alcotest.(check string) "lineage-off stats byte-identical" s_off s_nl;
  Alcotest.(check bool) "lineage-off extent identical" true
    (Dyno_relational.Relation.equal e_off e_nl)

(* -- laziness: texts are rendered when read, once ------------------------ *)

(* A text that counts how often it is rendered. *)
let counted calls text =
  lazy
    (incr calls;
     text)

let test_lineage_renders_when_read () =
  let calls = ref 0 in
  let record lin =
    Lineage.commit lin ~source:"DS1" ~seq:1 ~time:0.0 ~sc:false
      ~detail:(counted calls "DU counted");
    Lineage.admit lin ~source:"DS1" ~seq:1 ~time:0.1 ~msg_id:0;
    Lineage.finish lin ~ids:[ 0 ] ~time:0.2 ~state:Lineage.Applied
      ~detail:(lazy "done")
  in
  record Lineage.disabled;
  Alcotest.(check int) "a disabled recorder renders nothing" 0 !calls;
  let lin = Lineage.create () in
  record lin;
  Alcotest.(check int) "recording renders nothing" 0 !calls;
  let jsonl = Lineage.to_jsonl lin in
  let narrative =
    match Lineage.records lin with
    | [ r ] -> Fmt.str "%a" Lineage.pp_record r
    | _ -> Alcotest.fail "one record expected"
  in
  Alcotest.(check int) "two exports render it once" 1 !calls;
  Alcotest.(check bool) "JSONL carries the text" true
    (contains jsonl "DU counted");
  Alcotest.(check bool) "narrative carries the text" true
    (contains narrative "DU counted")

let test_span_renders_when_read () =
  let names = ref 0 and details = ref 0 in
  let record r =
    Span.with_span r
      ~now:(fun () -> 0.0)
      Span.Maintain (counted names "step counted")
      (fun _ -> Span.instant r ~time:0.0 "ev" (counted details "detail counted"))
  in
  record Span.disabled;
  Alcotest.(check (pair int int)) "a disabled recorder renders nothing" (0, 0)
    (!names, !details);
  let r = Span.create () in
  record r;
  Alcotest.(check (pair int int)) "recording renders nothing" (0, 0)
    (!names, !details);
  let first = Export.chrome_trace r in
  let second = Export.chrome_trace r in
  Alcotest.(check (pair int int)) "two exports render each once" (1, 1)
    (!names, !details);
  List.iter
    (fun (what, doc) ->
      Alcotest.(check bool) (what ^ " carries the name") true
        (contains doc "step counted");
      Alcotest.(check bool) (what ^ " carries the detail") true
        (contains doc "detail counted"))
    [ ("first export", first); ("second export", second) ]

let test_trace_renders_at_record () =
  let calls = ref 0 in
  let off = Dyno_sim.Trace.create ~enabled:false () in
  Dyno_sim.Trace.record off ~time:0.0 Dyno_sim.Trace.Info
    (counted calls "off");
  Alcotest.(check int) "a disabled trace renders nothing" 0 !calls;
  let on = Dyno_sim.Trace.create () in
  Dyno_sim.Trace.record on ~time:0.0 Dyno_sim.Trace.Info (counted calls "on");
  Alcotest.(check int) "an enabled trace renders at record time" 1 !calls;
  match Dyno_sim.Trace.entries on with
  | [ e ] -> Alcotest.(check string) "detail" "on" e.Dyno_sim.Trace.detail
  | _ -> Alcotest.fail "one entry expected"

(* -- observability allocation budget -------------------------------------- *)

(* A fleet-shaped run (3 shards, width 2, self-maintenance, 5% loss, dup
   and reorder, one DU every 0.15 sim s) allocates at most 1.2x the words
   with spans, metrics, lineage and a 10 s series on as with all of them
   off.  Words are minor + major - promoted.  OCaml 5 counts a minor
   heap's words only when it is collected, so each read first empties it
   with [Gc.minor]; the count then repeats to the word, whatever earlier
   tests left in the heap. *)
let fleet_words ~obs ~seed =
  let rows = 500 in
  let spec =
    Dyno_workload.Spec.with_transport
      {
        Dyno_net.Channel.reliable with
        loss = 0.05;
        dup = 0.05;
        reorder = 0.05;
        reorder_delay = 1.5;
      }
      {
        Dyno_workload.Spec.default with
        seed;
        world =
          Dyno_workload.Scenario.Config.(
            Dyno_workload.Spec.paper_world ~rows |> with_shards 3
            |> with_obs obs);
        run =
          Dyno_core.Run_config.(
            default |> with_parallel 2 |> with_self_maint true);
      }
  in
  let t =
    Dyno_workload.Spec.build spec
      ~timeline:
        (Dyno_workload.Generator.build ~rows ~seed
           (List.init 300 (fun k ->
                Dyno_workload.Generator.At_du (0.15 *. float_of_int k))))
  in
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Dyno_workload.Scenario.run t ~config:spec.run : Dyno_core.Stats.t);
  words () -. w0

let test_obs_allocation_budget () =
  List.iter
    (fun seed ->
      let off = fleet_words ~obs:Obs.disabled ~seed in
      let on = fleet_words ~obs:(Obs.create ~sample_interval:10.0 ()) ~seed in
      let ratio = on /. off in
      Printf.printf "seed %d: obs on %.0f / off %.0f words = %.3fx\n" seed on
        off ratio;
      if ratio > 1.2 then
        Alcotest.failf
          "seed %d: obs on allocates %.0f words, %.2fx the %.0f words with obs \
           off (budget 1.2x)"
          seed on ratio off)
    [ 1; 2; 3 ]

(* -- lineage: cursor tiling, forensics, terminals ----------------------- *)

let terminal_kinds = [ "applied"; "irrelevant"; "dropped_undefined" ]

let terminal_event_count r =
  List.length
    (List.filter
       (fun (e : Lineage.event) -> List.mem e.Lineage.kind terminal_kinds)
       (Lineage.events r))

(* The rendered detail of a record's first event of [kind]. *)
let detail_of r kind =
  match
    List.find_opt (fun (e : Lineage.event) -> e.Lineage.kind = kind)
      (Lineage.events r)
  with
  | Some e -> Lazy.force e.Lineage.detail
  | None -> Alcotest.failf "no %s event" kind

let test_lineage_cursor_tiling () =
  let mx = Metrics.create () in
  let lin = Lineage.create ~metrics:mx () in
  Lineage.commit lin ~source:"DS1" ~seq:1 ~time:0.0 ~sc:false
    ~detail:(lazy "DU");
  Lineage.sent lin ~source:"DS1" ~seq:1 ~time:0.0 ~transmissions:2
    ~duplicated:false ~arrival:0.4;
  Lineage.arrive lin ~source:"DS1" ~seq:1 ~time:0.4;
  Lineage.admit lin ~source:"DS1" ~seq:1 ~time:0.4 ~msg_id:0;
  Lineage.dispatch lin ~ids:[ 0 ] ~time:1.4 ~detail:(lazy "head") ();
  Lineage.set_scope lin [ 0 ];
  Lineage.probe_begin lin ~time:1.5;
  Lineage.probe_end lin ~time:1.7 ~detail:(lazy "probe DS1");
  Lineage.finish lin ~ids:[ 0 ] ~time:2.0 ~state:Lineage.Applied
    ~detail:(lazy "done");
  (* the terminal registers its metrics under the historical names, in
     first-use order: the terminal counter, the total, then every
     non-zero segment in canonical order *)
  Alcotest.(check (list string))
    "finish's metric names"
    [
      "lineage.applied"; "lineage.total_s"; "lineage.channel_s";
      "lineage.queue_s"; "lineage.probe_s"; "lineage.compute_s";
    ]
    (Metrics.names mx);
  Alcotest.(check int) "terminal counted" 1
    (Metrics.counter_value mx "lineage.applied");
  Alcotest.(check bool) "segment histogram" true
    (Metrics.kind_of mx "lineage.queue_s" = Some `Histogram);
  match Lineage.find_msg lin 0 with
  | None -> Alcotest.fail "record should be indexed by msg id"
  | Some r ->
      Alcotest.(check string) "send detail"
        "2 transmissions (1 lost), arrival t=0.400s" (detail_of r "send");
      Alcotest.(check string) "admit detail" "admitted exactly-once as msg #0"
        (detail_of r "admit");
      let seg = Lineage.segment_value r in
      Alcotest.(check (float 1e-12)) "channel" 0.4 (seg Lineage.Channel);
      Alcotest.(check (float 1e-12)) "queue" 1.0 (seg Lineage.Queue);
      Alcotest.(check (float 1e-12)) "probe" 0.2 (seg Lineage.Probe);
      (* compute = 0.1 before the probe + 0.3 trailing at finish *)
      Alcotest.(check (float 1e-12)) "compute" 0.4 (seg Lineage.Compute);
      Alcotest.(check (float 1e-12)) "elapsed" 2.0 (Lineage.elapsed r);
      Alcotest.(check (float 1e-12))
        "segments tile the elapsed interval" (Lineage.elapsed r)
        (Lineage.segment_sum r);
      Alcotest.(check int) "exactly one terminal event" 1
        (terminal_event_count r);
      (* the record is sealed: later charges are structural no-ops *)
      Lineage.dispatch lin ~ids:[ 0 ] ~time:9.0 ~detail:(lazy "too late") ();
      Lineage.finish lin ~ids:[ 0 ] ~time:9.5 ~state:Lineage.Irrelevant
        ~detail:(lazy "second terminal loses");
      Alcotest.(check (float 1e-12)) "sum unchanged after seal" 2.0
        (Lineage.segment_sum r);
      Alcotest.(check bool) "first terminal wins" true
        (r.Lineage.term = Some Lineage.Applied)

let test_lineage_hold_dedup_merge () =
  let mx = Metrics.create () in
  let lin = Lineage.create ~metrics:mx () in
  (* a held-for-gap packet charges [Hold] between arrival and admission *)
  Lineage.commit lin ~source:"DS2" ~seq:2 ~time:0.0 ~sc:false
    ~detail:(lazy "DU");
  Lineage.sent lin ~source:"DS2" ~seq:2 ~time:0.0 ~transmissions:1
    ~duplicated:true ~arrival:0.3;
  Lineage.arrive lin ~source:"DS2" ~seq:2 ~time:0.3;
  Lineage.held lin ~source:"DS2" ~seq:2 ~time:0.3;
  Lineage.dedup lin ~source:"DS2" ~seq:2 ~time:0.5;
  Lineage.admit lin ~source:"DS2" ~seq:2 ~time:0.9 ~msg_id:7;
  (match Lineage.find_msg lin 7 with
  | None -> Alcotest.fail "held record should be admitted as msg 7"
  | Some r ->
      Alcotest.(check string) "duplicated send detail"
        "1 transmission, duplicated in flight, arrival t=0.300s"
        (detail_of r "send");
      Alcotest.(check string) "release detail"
        "released from gap hold as msg #7" (detail_of r "admit");
      Alcotest.(check string) "dedup detail" "duplicate delivery discarded"
        (detail_of r "dedup");
      Alcotest.(check (float 1e-12)) "hold charged" 0.6
        (Lineage.segment_value r Lineage.Hold);
      Alcotest.(check int) "dedup counted" 1
        (Metrics.counter_value mx "lineage.dedups"));
  (* a merge links members to the batch's smallest id as causal parent *)
  List.iter
    (fun (seq, id) ->
      Lineage.commit lin ~source:"DS1" ~seq ~time:1.0 ~sc:(seq = 9)
        ~detail:(lazy "member");
      Lineage.admit lin ~source:"DS1" ~seq ~time:1.0 ~msg_id:id)
    [ (8, 3); (9, 5) ];
  Lineage.merged lin ~ids:[ 5; 3 ] ~time:2.0 ~detail:(lazy "cycle merged");
  (match (Lineage.find_msg lin 3, Lineage.find_msg lin 5) with
  | Some a, Some b ->
      Alcotest.(check string) "merge detail" "cycle merged"
        (detail_of b "merge");
      Alcotest.(check int) "smallest id is the parent" (-1) a.Lineage.parent;
      Alcotest.(check int) "member links to parent" 3 b.Lineage.parent
  | _ -> Alcotest.fail "merge members should exist");
  Alcotest.(check int) "merges counted" 1
    (Metrics.counter_value mx "lineage.merges")

let test_lineage_disabled_noop () =
  let lin = Lineage.disabled in
  Lineage.commit lin ~source:"DS1" ~seq:1 ~time:0.0 ~sc:false
    ~detail:(lazy "x");
  Lineage.admit lin ~source:"DS1" ~seq:1 ~time:0.0 ~msg_id:0;
  Lineage.finish lin ~ids:[ 0 ] ~time:1.0 ~state:Lineage.Applied
    ~detail:(lazy "x");
  Alcotest.(check bool) "reports disabled" false (Lineage.enabled lin);
  Alcotest.(check int) "no records" 0 (List.length (Lineage.records lin));
  Alcotest.(check bool) "no index" true (Lineage.find_msg lin 0 = None);
  Alcotest.(check string) "empty JSONL" "" (Lineage.to_jsonl lin)

let test_lineage_abort_forensics () =
  (* optimistic strategy applies before detection, so drop-column SCs force
     real aborts: the narrative must name the aborting SC and the CD/SD
     edges behind the wait *)
  let obs, _, _ =
    run_observed ~loss:0.2 ~strategy:Dyno_core.Strategy.Optimistic ()
  in
  let records = Lineage.records (Obs.lineage obs) in
  let has kind pred =
    List.exists
      (fun r ->
        List.exists
          (fun (e : Lineage.event) ->
            e.Lineage.kind = kind && pred (Lazy.force e.Lineage.detail))
          (Lineage.events r))
      records
  in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "an abort names its SC" true
    (has "abort" (fun d -> contains_sub d "aborting SC #"));
  Alcotest.(check bool) "a CD/SD edge was recorded" true
    (has "dep-edge" (fun d -> contains_sub d "edge"));
  Alcotest.(check bool) "aborts counted" true
    (Metrics.counter_value (Obs.metrics obs) "lineage.aborts" > 0);
  (* the narrative printer agrees with the event list *)
  let aborted =
    List.find
      (fun r ->
        List.exists
          (fun (e : Lineage.event) -> e.Lineage.kind = "abort")
          (Lineage.events r))
      records
  in
  let text = Fmt.str "%a" Lineage.pp_record aborted in
  Alcotest.(check bool) "narrative mentions the abort" true
    (contains_sub text "aborting SC #")

(* [dyno explain --view NAME] selects through
   [Scenario.updates_to_view]: NAME must be one of the run's views.
   "DU" and "admitted" occur in the run's lineage text, yet only "V"
   names a view; its updates are the records applied to it. *)
let test_updates_to_view () =
  let obs = Obs.create () in
  let t, _ = Dyno_workload.Spec.run (spec ~obs ~seed:1 ~dus:10 ~scs:1 ()) in
  let lin = Obs.lineage obs in
  let records = Lineage.records lin in
  let in_text word =
    List.exists
      (fun r ->
        List.exists
          (fun (e : Lineage.event) -> contains (Lazy.force e.Lineage.detail) word)
          (Lineage.events r))
      records
  in
  List.iter
    (fun word ->
      Alcotest.(check bool) (word ^ " occurs in lineage text") true (in_text word);
      match Dyno_workload.Scenario.updates_to_view t lin word with
      | Ok _ -> Alcotest.failf "%s is not a view of the run" word
      | Error views ->
          Alcotest.(check (list string)) "the run's views" [ "V" ] views)
    [ "DU"; "admitted" ];
  match Dyno_workload.Scenario.updates_to_view t lin "V" with
  | Error _ -> Alcotest.fail "V is the run's view"
  | Ok hits ->
      let applied =
        List.filter (fun r -> r.Lineage.term = Some Lineage.Applied) records
      in
      Alcotest.(check bool) "some update applied" true (applied <> []);
      Alcotest.(check (list int)) "exactly the applied records"
        (List.map (fun r -> r.Lineage.msg_id) applied)
        (List.map (fun r -> r.Lineage.msg_id) hits)

(* A probe's flush admits a source's in-flight packets at once (FIFO
   streams), which can be before their planned arrival.  The record must
   then arrive when it is admitted: an arrival charged at the later plan
   moves the cursor back and counts the interval twice.  The spec is the
   CLI's [run --rows 10 --dus 12 --scs 2 --du-interval 0.2 --sc-interval
   1.5 --seed 16 --loss 0.25 --dup 0.25 --reorder 0.25 --reorder-delay 0.5
   --parallel 4], which flushes msg #1 0.45 s ahead of its plan. *)
let test_lineage_flush_arrival () =
  let obs = Obs.create () in
  let spec =
    Dyno_workload.Spec.with_transport
      {
        Dyno_net.Channel.reliable with
        loss = 0.25;
        dup = 0.25;
        reorder = 0.25;
        reorder_delay = 0.5;
      }
      {
        Dyno_workload.Spec.default with
        seed = 16;
        dus = 12;
        scs = 2;
        du_interval = 0.2;
        sc_interval = 1.5;
        world =
          Dyno_workload.Scenario.Config.(
            Dyno_workload.Spec.paper_world ~rows:10
            |> with_snapshots true |> with_obs obs);
        run = Dyno_core.Run_config.(default |> with_parallel 4);
      }
  in
  ignore (Dyno_workload.Spec.run spec);
  let at kind r =
    List.filter_map
      (fun (e : Lineage.event) ->
        if e.Lineage.kind = kind then Some e.Lineage.at else None)
      (Lineage.events r)
  in
  let terminal =
    List.filter
      (fun r -> r.Lineage.term <> None)
      (Lineage.records (Obs.lineage obs))
  in
  Alcotest.(check int) "terminal records" 14 (List.length terminal);
  List.iter
    (fun r ->
      let who = Fmt.str "msg %d" r.Lineage.msg_id in
      Alcotest.(check (float 1e-6))
        (who ^ ": segments tile commit -> terminal")
        (Lineage.elapsed r) (Lineage.segment_sum r);
      match (at "arrive" r, at "admit" r) with
      | arrive :: _, admit :: _ ->
          Alcotest.(check bool) (who ^ ": arrives by its admission") true
            (arrive <= admit)
      | _ -> ())
    terminal

(* -- JSON round-trips --------------------------------------------------- *)

let test_json_round_trips () =
  let obs, _, stats = run_observed ~loss:0.3 () in
  Json_check.check_exn ~what:"stats JSON"
    (Dyno_core.Stats.to_json_string stats);
  Json_check.check_exn ~what:"metrics JSON"
    (Metrics.to_json_string (Obs.metrics obs));
  Json_check.check_exn ~what:"chrome trace"
    (Export.chrome_trace ~lineage:(Obs.lineage obs) (Obs.spans obs));
  Json_check.check_jsonl_exn ~what:"lineage JSONL"
    (Lineage.to_jsonl (Obs.lineage obs));
  (* the Perfetto flow thread: a start at commit and a binding-point end
     per admitted update must be present in the same document *)
  let trace = Export.chrome_trace ~lineage:(Obs.lineage obs) (Obs.spans obs) in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "flow start events present" true
    (contains_sub trace "\"ph\": \"s\"");
  Alcotest.(check bool) "flow end events present" true
    (contains_sub trace "\"bp\": \"e\"")

let test_json_escaping () =
  (* attr/name values with quotes, backslashes and control chars must
     still render as valid JSON *)
  let r = Span.create () in
  Span.with_span r
    ~now:(fun () -> 0.0)
    Span.Probe (lazy "na\"me\\with\ttabs")
    (fun id -> Span.set_attr r id "k\"ey" "v\nal");
  Span.instant r ~time:0.0 "ev\"ent" (lazy "de\ttail");
  Json_check.check_exn ~what:"escaped chrome trace" (Export.chrome_trace r);
  let m = Metrics.create () in
  Metrics.incr m "weird\"name\\";
  Json_check.check_exn ~what:"escaped metrics" (Metrics.to_json_string m);
  Json_check.check_exn ~what:"checker rejects garbage is tested inline"
    "{\"a\": [1, 2.5e-3, true, null, \"x\\u00e9\"]}";
  match Json_check.check "{\"a\": }" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker should reject malformed JSON"

(* -- metrics edge cases: empty / single / bucket bounds / clamping ------ *)

let test_metrics_empty_histogram () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "absent quantile is 0" 0.0
    (Metrics.quantile m "never" 0.5);
  Alcotest.(check bool) "absent summary is None" true
    (Metrics.histogram_summary m "never" = None);
  (* a name registered as another kind is not a histogram either *)
  Metrics.incr m "c";
  Alcotest.(check bool) "counter has no summary" true
    (Metrics.histogram_summary m "c" = None);
  Alcotest.(check (float 0.0)) "counter quantile is 0" 0.0
    (Metrics.quantile m "c" 0.99)

let test_metrics_single_sample () =
  let m = Metrics.create () in
  Metrics.observe m "one" 0.37;
  (* with a single observation every quantile clamps to the observed max *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Fmt.str "q=%g collapses to the sample" q)
        0.37
        (Metrics.quantile m "one" q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  match Metrics.histogram_summary m "one" with
  | Some s ->
      Alcotest.(check int) "count" 1 s.Metrics.count;
      Alcotest.(check (float 1e-12)) "sum" 0.37 s.Metrics.sum;
      Alcotest.(check (float 1e-12)) "min" 0.37 s.Metrics.min;
      Alcotest.(check (float 1e-12)) "max" 0.37 s.Metrics.max;
      Alcotest.(check (float 1e-12)) "p50 = p99 = the sample" s.Metrics.p50
        s.Metrics.p99
  | None -> Alcotest.fail "summary expected"

let test_metrics_bucket_boundaries () =
  let m = Metrics.create () in
  (* exactly the base bound (1 µs) lands in bucket 0 whose upper bound is
     exactly 1e-6 — the quantile readout is exact, not off by a bucket *)
  Metrics.observe m "edge" 1e-6;
  Alcotest.(check (float 1e-18)) "p99 at exact base bound" 1e-6
    (Metrics.quantile m "edge" 0.99);
  (* un-clamped bound readout: 100 samples inside (1 µs, 2 µs] plus one
     above ⇒ p50 is that bucket's upper bound, exactly 2e-6 *)
  for _ = 1 to 100 do
    Metrics.observe m "bounds" 1.1e-6
  done;
  Metrics.observe m "bounds" 3e-6;
  Alcotest.(check (float 1e-18)) "p50 = log₂ bucket upper bound" 2e-6
    (Metrics.quantile m "bounds" 0.5);
  Alcotest.(check (float 1e-18)) "p99 still in the low bucket" 2e-6
    (Metrics.quantile m "bounds" 0.99)

let test_metrics_max_clamping () =
  let m = Metrics.create () in
  (* 40, 50, 60 s all fall in the same [33.6, 67.1] log₂ bucket: without
     clamping every quantile would read the bucket bound 67.1; the clamp
     pins them to the observed max *)
  List.iter (Metrics.observe m "lat") [ 40.0; 50.0; 60.0 ];
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Fmt.str "q=%g clamps to max" q)
        60.0
        (Metrics.quantile m "lat" q))
    [ 0.5; 0.9; 0.99 ];
  match Metrics.histogram_summary m "lat" with
  | Some s ->
      Alcotest.(check (float 1e-9)) "summary p50 clamped too" 60.0 s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "max" 60.0 s.Metrics.max
  | None -> Alcotest.fail "summary expected"

(* -- time-series sampler ------------------------------------------------ *)

let test_series_interval_gating () =
  let s = Timeseries.create ~interval:1.0 () in
  let v = ref 0.0 in
  Timeseries.probe s "x" (fun _ -> !v);
  Alcotest.(check bool) "first sample due immediately" true
    (Timeseries.maybe_sample s ~now:0.0);
  Alcotest.(check bool) "within the interval: skipped" false
    (Timeseries.maybe_sample s ~now:0.4);
  v := 7.0;
  Alcotest.(check bool) "due again at the interval" true
    (Timeseries.maybe_sample s ~now:1.0);
  (match Timeseries.samples s with
  | [ a; b ] ->
      Alcotest.(check (float 0.0)) "t₀" 0.0 a.Timeseries.at;
      Alcotest.(check (float 0.0)) "x@t₀" 0.0
        (List.assoc "x" a.Timeseries.values);
      Alcotest.(check (float 0.0)) "x@t₁ reads the probe live" 7.0
        (List.assoc "x" b.Timeseries.values)
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l));
  (* a forced sample at an already-sampled instant dedupes... *)
  Timeseries.sample s ~now:1.0;
  Alcotest.(check int) "same-instant force deduped" 2 (Timeseries.length s);
  (* ...but a forced sample mid-interval is taken *)
  Timeseries.sample s ~now:1.25;
  Alcotest.(check int) "off-interval force taken" 3 (Timeseries.length s)

let test_series_counter_rates () =
  let s = Timeseries.create ~interval:0.5 () in
  let c = ref 0.0 in
  Timeseries.probe s ~kind:`Counter "c" (fun _ -> !c);
  Timeseries.sample s ~now:0.0;
  c := 10.0;
  Timeseries.sample s ~now:2.0;
  match Timeseries.samples s with
  | [ a; b ] ->
      Alcotest.(check (float 0.0)) "first sample has no history: rate 0" 0.0
        (List.assoc "c.rate" a.Timeseries.values);
      Alcotest.(check (float 1e-12)) "rate = Δv/Δt" 5.0
        (List.assoc "c.rate" b.Timeseries.values);
      Alcotest.(check (float 0.0)) "raw value kept alongside" 10.0
        (List.assoc "c" b.Timeseries.values)
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l)

let test_series_ring_and_jsonl () =
  let s = Timeseries.create ~capacity:3 ~interval:1.0 () in
  Timeseries.probe s "x" (fun now -> now *. 2.0);
  for i = 0 to 4 do
    Timeseries.sample s ~now:(float_of_int i)
  done;
  Alcotest.(check int) "ring holds capacity" 3 (Timeseries.length s);
  Alcotest.(check int) "evictions counted" 2 (Timeseries.dropped s);
  (match Timeseries.samples s with
  | [ a; _; c ] ->
      Alcotest.(check (float 0.0)) "oldest retained" 2.0 a.Timeseries.at;
      Alcotest.(check (float 0.0)) "newest last" 4.0 c.Timeseries.at
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l));
  Json_check.check_jsonl_exn ~what:"series JSONL" (Timeseries.to_jsonl s);
  Alcotest.check_raises "interval <= 0 rejected"
    (Invalid_argument "Timeseries.create: interval <= 0") (fun () ->
      ignore (Timeseries.create ~interval:0.0 ()));
  Alcotest.check_raises "capacity <= 0 rejected"
    (Invalid_argument "Timeseries.create: capacity <= 0") (fun () ->
      ignore (Timeseries.create ~capacity:0 ~interval:1.0 ()))

let test_series_disabled_noop () =
  let s = Timeseries.disabled in
  Timeseries.probe s "x" (fun _ -> 1.0);
  Alcotest.(check bool) "never samples" false (Timeseries.maybe_sample s ~now:0.0);
  Timeseries.sample s ~now:1.0;
  Alcotest.(check int) "stays empty" 0 (Timeseries.length s);
  Alcotest.(check bool) "reports disabled" false (Timeseries.enabled s);
  (* Obs only owns a live sampler when an interval was requested *)
  Alcotest.(check bool) "Obs.create () has no sampler" false
    (Timeseries.enabled (Obs.series (Obs.create ())));
  Alcotest.(check bool) "Obs.create ~sample_interval has one" true
    (Timeseries.enabled (Obs.series (Obs.create ~sample_interval:0.5 ())))

(* -- SLO parsing + evaluation ------------------------------------------- *)

let test_slo_parse () =
  (match Slo.parse "staleness.p99 <= 30" with
  | Ok o ->
      Alcotest.(check string) "metric" "staleness" o.Slo.metric;
      Alcotest.(check bool) "stat" true (o.Slo.stat = Slo.P99);
      Alcotest.(check bool) "op" true (o.Slo.op = Slo.Le);
      Alcotest.(check (float 0.0)) "threshold" 30.0 o.Slo.threshold
  | Error e -> Alcotest.failf "should parse: %s" e);
  (match Slo.parse "stall_ratio < 0.2" with
  | Ok o ->
      Alcotest.(check bool) "no suffix means raw value" true
        (o.Slo.stat = Slo.Value);
      Alcotest.(check bool) "strict op" true (o.Slo.op = Slo.Lt)
  | Error e -> Alcotest.failf "should parse: %s" e);
  (match Slo.parse "view.V.staleness_s.max == 0" with
  | Ok o ->
      (* only the last dot-segment is a stat candidate: dotted metric
         names survive *)
      Alcotest.(check string) "dotted metric kept" "view.V.staleness_s"
        o.Slo.metric;
      Alcotest.(check bool) "max stat" true (o.Slo.stat = Slo.Max);
      Alcotest.(check bool) "eq op" true (o.Slo.op = Slo.Eq)
  | Error e -> Alcotest.failf "should parse: %s" e);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %S" bad)
    [ ""; "no operator here"; "m <= "; "m <= twelve"; " <= 3" ];
  Alcotest.check_raises "parse_exn raises on garbage"
    (Invalid_argument "\"nope\": no comparison operator (<= < >= > ==)")
    (fun () -> ignore (Slo.parse_exn "nope"))

let test_slo_eval () =
  let m = Metrics.create () in
  Metrics.set_gauge m "sched.stall_ratio" 0.25;
  Metrics.incr m ~by:4 "sched.aborts";
  Metrics.observe m "staleness_s" 0.5;
  Metrics.observe m "staleness_s" 0.5;
  Metrics.observe m "staleness_s" 40.0;
  let eval spec = Slo.eval m (Slo.parse_exn spec) in
  (* resolution chain: literal, NAME_s, sched.NAME *)
  let v = eval "stall_ratio <= 0.3" in
  Alcotest.(check bool) "gauge via sched. prefix passes" true v.Slo.pass;
  Alcotest.(check (option (float 0.0))) "actual read" (Some 0.25) v.Slo.actual;
  Alcotest.(check bool) "counter compares as float" true
    (eval "aborts <= 4").Slo.pass;
  Alcotest.(check bool) "counter strict fail" false
    (eval "aborts < 4").Slo.pass;
  (* histogram: NAME finds NAME_s; bare name defaults to the tail
     quantile, which clamps to the observed max *)
  Alcotest.(check bool) "staleness <= 40 passes" true
    (eval "staleness <= 40").Slo.pass;
  Alcotest.(check bool) "staleness <= 30 fails" false
    (eval "staleness <= 30").Slo.pass;
  Alcotest.(check bool) "explicit p50 stays low" true
    (eval "staleness.p50 <= 1").Slo.pass;
  Alcotest.(check bool) "count stat" true (eval "staleness.count == 3").Slo.pass;
  Alcotest.(check bool) "mean stat" true
    (eval "staleness.mean <= 13.7").Slo.pass;
  (* a metric that was never recorded is unverifiable: FAIL, actual None *)
  let missing = eval "no_such_metric <= 1" in
  Alcotest.(check bool) "missing metric fails" false missing.Slo.pass;
  Alcotest.(check bool) "missing metric has no actual" true
    (missing.Slo.actual = None);
  let vs = Slo.eval_all m (List.map Slo.parse_exn [ "aborts <= 4"; "stall_ratio <= 0.3" ]) in
  Alcotest.(check bool) "all_pass over passing set" true (Slo.all_pass vs);
  Alcotest.(check bool) "all_pass spots one failure" false
    (Slo.all_pass (vs @ [ eval "aborts < 4" ]))

(* -- OpenMetrics exposition --------------------------------------------- *)

let test_openmetrics_format () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "net.retries";
  Metrics.set_gauge m "sched.stall_ratio" 0.25;
  Metrics.observe m "staleness_s" 0.5;
  Metrics.observe m "staleness_s" 1.5;
  let out = Export.openmetrics m in
  Alcotest.(check bool) "counter sanitized + _total suffix" true
    (contains out "# TYPE dyno_net_retries counter");
  Alcotest.(check bool) "counter sample" true
    (contains out "dyno_net_retries_total 3");
  Alcotest.(check bool) "gauge sample" true
    (contains out "dyno_sched_stall_ratio 0.25");
  Alcotest.(check bool) "histogram as summary" true
    (contains out "# TYPE dyno_staleness_s summary");
  Alcotest.(check bool) "tail quantile series" true
    (contains out "dyno_staleness_s{quantile=\"0.99\"}");
  Alcotest.(check bool) "count series" true
    (contains out "dyno_staleness_s_count 2");
  Alcotest.(check bool) "sum series" true
    (contains out "dyno_staleness_s_sum 2");
  let n = String.length out in
  Alcotest.(check bool) "terminated by # EOF" true
    (n >= 6 && String.sub out (n - 6) 6 = "# EOF\n")

(* -- dense stores: spans and lineage records by id ------------------------ *)

(* 10k spans opened and closed across four interleaved contexts, each
   span ended from whichever context happens to be ambient.  A model
   keeps every context's open stack: each span must parent under the top
   of its own context's stack, close exactly when ended, and be found by
   its id afterwards. *)
let test_span_dense_contexts () =
  let r = Span.create () in
  let n_ctx = 4 in
  let model = Array.make n_ctx [] in
  let parent = Hashtbl.create 64 and finish = Hashtbl.create 64 in
  let rng = Random.State.make [| 7 |] in
  let opened = ref 0 and step = ref 0 in
  let open_ids () = List.sort compare (List.concat (Array.to_list model)) in
  while !opened < 10_000 do
    incr step;
    let time = float_of_int !step in
    let ctx = Random.State.int rng n_ctx in
    Span.set_context r ctx;
    if List.length model.(ctx) < 3 && Random.State.bool rng then begin
      let id = Span.begin_span r ~time Span.Task (lazy "task") in
      incr opened;
      Hashtbl.replace parent id (match model.(ctx) with [] -> 0 | p :: _ -> p);
      model.(ctx) <- id :: model.(ctx)
    end
    else begin
      let c = Random.State.int rng n_ctx in
      match model.(c) with
      | [] -> ()
      | id :: rest ->
          Span.end_span r ~time id;
          Hashtbl.replace finish id time;
          model.(c) <- rest
    end;
    if !step mod 997 = 0 then
      Alcotest.(check (list int)) "open spans follow the model" (open_ids ())
        (List.sort compare
           (List.map (fun (sp : Span.t) -> sp.Span.id) (Span.open_spans r)))
  done;
  Array.iteri
    (fun ctx stack ->
      Span.set_context r ((ctx + 1) mod n_ctx);
      List.iter
        (fun id ->
          Span.end_span r ~time:0.5 id;
          Hashtbl.replace finish id 0.5)
        stack)
    model;
  Alcotest.(check int) "nothing left open" 0 (List.length (Span.open_spans r));
  Alcotest.(check int) "every span closed" 10_000 (Span.span_count r);
  Hashtbl.iter
    (fun id p ->
      match Span.find r id with
      | None -> Alcotest.failf "span %d not found" id
      | Some sp ->
          Alcotest.(check int) "id" id sp.Span.id;
          Alcotest.(check int) (Fmt.str "span %d's parent" id) p sp.Span.parent;
          Alcotest.(check (float 0.0))
            (Fmt.str "span %d's finish" id)
            (Hashtbl.find finish id) sp.Span.finish)
    parent

(* [find], [set_attr], [set_name] and [end_span] on an open, a closed
   and an unknown id. *)
let test_span_dense_ids () =
  let r = Span.create () in
  let a = Span.begin_span r ~time:1.0 Span.Maintain (lazy "a") in
  let b = Span.begin_span r ~time:2.0 Span.Probe (lazy "b") in
  Span.end_span r ~time:3.0 b;
  List.iter
    (fun id ->
      Span.set_attr r id "k" "v";
      Span.set_attr r id "k" "w";
      Span.set_name r id (lazy "renamed"))
    [ a; b; 0; -1; b + 1; max_int ];
  (match (Span.find r a, Span.find r b) with
  | Some sa, Some sb ->
      Alcotest.(check (float 0.0)) "a still open" sa.Span.start sa.Span.finish;
      Alcotest.(check (float 0.0)) "b closed" 3.0 sb.Span.finish;
      Alcotest.(check int) "b under a" a sb.Span.parent;
      List.iter
        (fun (sp : Span.t) ->
          Alcotest.(check (list (pair string string)))
            "latest attribute value" [ ("k", "w") ] sp.Span.attrs;
          Alcotest.(check string) "renamed" "renamed" (Lazy.force sp.Span.name))
        [ sa; sb ]
  | _ -> Alcotest.fail "open and closed spans are found");
  List.iter
    (fun id ->
      Alcotest.(check bool) (Fmt.str "id %d unknown" id) true
        (Span.find r id = None))
    [ 0; -1; b + 1; max_int; min_int ];
  Span.end_span r ~time:9.0 b;
  Span.end_span r ~time:9.0 (b + 1);
  Span.end_span r ~time:9.0 0;
  Alcotest.(check int) "closed and unknown ids close nothing" 1
    (Span.span_count r);
  Alcotest.(check (list int)) "a still open" [ a ]
    (List.map (fun (sp : Span.t) -> sp.Span.id) (Span.open_spans r))

(* Ending an outer span closes its open children with it. *)
let test_span_dense_orphans () =
  let r = Span.create () in
  let a = Span.begin_span r ~time:0.0 Span.Maintain (lazy "a") in
  let b = Span.begin_span r ~time:1.0 Span.Probe (lazy "b") in
  let c = Span.begin_span r ~time:2.0 Span.Retry (lazy "c") in
  Span.end_span r ~time:5.0 a;
  Alcotest.(check int) "all three closed" 3 (Span.span_count r);
  Alcotest.(check int) "none open" 0 (List.length (Span.open_spans r));
  List.iter
    (fun id ->
      match Span.find r id with
      | Some sp -> Alcotest.(check (float 0.0)) "closed with a" 5.0 sp.Span.finish
      | None -> Alcotest.fail "closed spans are found")
    [ a; b; c ];
  Span.end_span r ~time:6.0 c;
  Alcotest.(check int) "a second end is a no-op" 3 (Span.span_count r)

(* Records are found by message id and by (source, seq) when keys start
   high, skip values and arrive out of order; unknown keys find none. *)
let test_lineage_dense_keys () =
  let lin = Lineage.create () in
  let keyed =
    [
      ("DS1", 1_000_000, 5_000); ("DS1", 1_000_007, 4_990); ("DS2", 3, 12);
      ("DS1", 999_990, 7_000); ("DS2", 1, 6); ("DS1", 5, 5_001);
    ]
  in
  List.iter
    (fun (source, seq, _) ->
      Lineage.commit lin ~source ~seq ~time:0.0 ~sc:false ~detail:(lazy "du"))
    keyed;
  List.iteri
    (fun i (source, seq, msg_id) ->
      let time = float_of_int (i + 1) in
      Lineage.arrive lin ~source ~seq ~time;
      Lineage.admit lin ~source ~seq ~time ~msg_id)
    keyed;
  List.iteri
    (fun i (source, seq, msg_id) ->
      match Lineage.find_msg lin msg_id with
      | None -> Alcotest.failf "msg %d not found" msg_id
      | Some r ->
          Alcotest.(check (pair string int)) "record of the key" (source, seq)
            (r.Lineage.source, r.Lineage.seq);
          Alcotest.(check (float 0.0)) "arrival charged by key"
            (float_of_int (i + 1))
            (Lineage.segment_value r Lineage.Channel))
    keyed;
  (* unknown keys: charge nothing, admit nothing *)
  Lineage.arrive lin ~source:"DS1" ~seq:4 ~time:9.0;
  Lineage.admit lin ~source:"DS1" ~seq:1_000_001 ~time:9.0 ~msg_id:4_991;
  Lineage.admit lin ~source:"DS9" ~seq:1 ~time:9.0 ~msg_id:4_992;
  List.iter
    (fun id ->
      Alcotest.(check bool) (Fmt.str "msg %d unknown" id) true
        (Lineage.find_msg lin id = None))
    [ 0; -1; 7; 4_991; 4_992; 5_002; 6_999; max_int; min_int ];
  Alcotest.(check (list (pair string int))) "commit order"
    (List.map (fun (source, seq, _) -> (source, seq)) keyed)
    (List.map
       (fun (r : Lineage.record) -> (r.Lineage.source, r.Lineage.seq))
       (Lineage.records lin))

(* Once a name is registered, [incr], [observe] and the gauge setters
   allocate nothing. *)
let test_metrics_hits_allocate_nothing () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.observe m "h" 0.5;
  Metrics.set_gauge m "g" 1.0;
  Metrics.add_gauge m "a" 1.0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Metrics.incr m "c";
    Metrics.observe m "h" 0.5;
    Metrics.set_gauge m "g" 2.0;
    Metrics.add_gauge m "a" 1.5
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "no words allocated" 0.0 words;
  Alcotest.(check int) "counter" 1_001 (Metrics.counter_value m "c");
  Alcotest.(check (float 1e-9)) "gauge" 2.0 (Metrics.gauge_value m "g");
  Alcotest.(check (float 1e-9)) "accumulated gauge" 1_501.0
    (Metrics.gauge_value m "a");
  Alcotest.(check (list string)) "registration order" [ "c"; "h"; "g"; "a" ]
    (Metrics.names m);
  match Metrics.histogram_summary m "h" with
  | Some s ->
      Alcotest.(check int) "observations" 1_001 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 500.5 s.Metrics.sum
  | None -> Alcotest.fail "histogram registered"

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting + ids" `Quick test_span_nesting_ids;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_noop;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_quantiles;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_metrics_disabled_noop;
          Alcotest.test_case "empty histogram" `Quick
            test_metrics_empty_histogram;
          Alcotest.test_case "single sample" `Quick test_metrics_single_sample;
          Alcotest.test_case "log₂ bucket boundaries" `Quick
            test_metrics_bucket_boundaries;
          Alcotest.test_case "quantiles clamp to max" `Quick
            test_metrics_max_clamping;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "interval gating + dedupe" `Quick
            test_series_interval_gating;
          Alcotest.test_case "counter rate derivation" `Quick
            test_series_counter_rates;
          Alcotest.test_case "ring eviction + JSONL" `Quick
            test_series_ring_and_jsonl;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_series_disabled_noop;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "eval + resolution chain" `Quick test_slo_eval;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_openmetrics_format;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "cursor tiles the interval" `Quick
            test_lineage_cursor_tiling;
          Alcotest.test_case "hold + dedup + merge parent" `Quick
            test_lineage_hold_dedup_merge;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_lineage_disabled_noop;
          Alcotest.test_case "abort forensics name the SC" `Quick
            test_lineage_abort_forensics;
          Alcotest.test_case "a flushed packet arrives when admitted" `Quick
            test_lineage_flush_arrival;
          Alcotest.test_case "explain --view names a view of the run" `Quick
            test_updates_to_view;
        ] );
      ( "laziness",
        [
          Alcotest.test_case "lineage renders when read, once" `Quick
            test_lineage_renders_when_read;
          Alcotest.test_case "spans render when read, once" `Quick
            test_span_renders_when_read;
          Alcotest.test_case "trace renders at record time" `Quick
            test_trace_renders_at_record;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fleet-shaped run allocates <= 1.2x obs off"
            `Quick test_obs_allocation_budget;
        ] );
      ( "trace-ring",
        [
          Alcotest.test_case "unbounded growth" `Quick
            test_trace_unbounded_growth;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "children nest within parents" `Quick
            test_span_nesting_in_run;
          Alcotest.test_case "Σ maintain = Stats.busy" `Quick
            test_maintain_sum_equals_busy;
          Alcotest.test_case "breakdown matches Stats" `Quick
            test_breakdown_matches_stats;
          Alcotest.test_case "Detect entry per detection pass" `Quick
            test_detect_entry_per_pass;
          Alcotest.test_case "merge-all provenance on every path" `Quick
            test_merge_all_provenance;
          Alcotest.test_case "metrics mirror Stats" `Quick
            test_metrics_mirror_stats;
          Alcotest.test_case "obs off changes nothing" `Quick
            test_obs_off_identical;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trips parse" `Quick test_json_round_trips;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
        ] );
      ( "dense",
        [
          Alcotest.test_case "10k spans across interleaved contexts" `Quick
            test_span_dense_contexts;
          Alcotest.test_case "open, closed and unknown span ids" `Quick
            test_span_dense_ids;
          Alcotest.test_case "an outer end closes its orphans" `Quick
            test_span_dense_orphans;
          Alcotest.test_case "lineage keys high, sparse, out of order" `Quick
            test_lineage_dense_keys;
          Alcotest.test_case "metric hits allocate nothing" `Quick
            test_metrics_hits_allocate_nothing;
        ] );
    ]
