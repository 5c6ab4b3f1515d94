(* Tests for the run report: the episode table in every dispatch shape,
   its summaries, event counts and broken-query attribution. *)

open Dyno_sim
open Dyno_core

let tr () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 Trace.Maint_start
    (lazy "#0@0.000s DU(R1@DS1, 1 tuples)");
  Trace.record t ~time:0.1 Trace.Query_sent (lazy "DS1 <- q");
  Trace.record t ~time:0.3 Trace.Refresh (lazy "view += 1");
  Trace.record t ~time:1.0 Trace.Maint_start (lazy "#1@1.000s SC(ALTER ...)");
  Trace.record t ~time:8.5 Trace.Broken_query
    (lazy "broken query adapt:V:R3 at DS2: relation R3 does not exist");
  Trace.record t ~time:8.5 Trace.Abort (lazy "maintenance aborted");
  Trace.record t ~time:9.0 Trace.Maint_start (lazy "BATCH{#1; #2}");
  Trace.record t ~time:29.0 Trace.Adapt (lazy "view re-materialized");
  t

let test_summary () =
  let s = Stats.create () in
  List.iter (Stats.note_episode s Stats.Du_maint ~aborted:false) [ 1.0; 2.0; 3.0 ];
  Stats.note_episode s Stats.Sc_maint ~aborted:true 7.5;
  match (Report.of_run s (Trace.create ())).Report.episodes with
  | [ (Stats.Du_maint, false, du); (Stats.Sc_maint, true, sc) ] ->
      Alcotest.(check int) "count" 3 du.Report.count;
      Alcotest.(check (float 1e-9)) "total" 6.0 du.Report.total;
      Alcotest.(check (float 1e-9)) "mean" 2.0 du.Report.mean;
      Alcotest.(check (float 1e-9)) "max" 3.0 du.Report.max;
      Alcotest.(check int) "aborted SC" 1 sc.Report.count
  | cells ->
      Alcotest.failf "expected the two non-empty cells, got %d"
        (List.length cells)

let test_event_counts () =
  let r = Report.of_run (Stats.create ()) (tr ()) in
  Alcotest.(check bool) "maint-start counted" true
    (List.assoc_opt Trace.Maint_start r.Report.event_counts = Some 3);
  Alcotest.(check bool) "zero kinds omitted" true
    (List.assoc_opt Trace.Compensate r.Report.event_counts = None)

let test_broken_by_source () =
  let r = Report.of_run (Stats.create ()) (tr ()) in
  Alcotest.(check (list (pair string int))) "DS2 blamed" [ ("DS2", 1) ]
    r.Report.broken_by_source

let test_on_live_run () =
  let t, stats =
    Dyno_workload.Spec.run
      {
        Fixture.base with
        seed = 9;
        dus = 10;
        scs = 2;
        sc_start = 0.0;
        sc_interval = 2.0;
        world =
          Dyno_workload.Scenario.Config.(
            Fixture.base.world |> with_snapshots false |> with_trace true);
      }
  in
  let r = Report.of_run stats t.Dyno_workload.Scenario.trace in
  let finished =
    List.fold_left
      (fun n (_, aborted, s) -> if aborted then n else n + s.Report.count)
      0 r.Report.episodes
  in
  Alcotest.(check bool) "episodes cover all commits" true
    (finished >= stats.Stats.view_commits - stats.Stats.irrelevant);
  List.iter
    (fun (_, _, s) ->
      Alcotest.(check bool) "durations non-negative" true (s.Report.max >= 0.0))
    r.Report.episodes

(* The CLI's [run --dus 40 --scs 3 --seed 1 --report] in the other
   dispatch shapes: a round counts each member that refreshed, and a view
   set each entry once.  29 data updates refresh the view. *)
let cli_report ?(views = 1) ~shards ~parallel () =
  let open Dyno_workload in
  let t =
    Spec.build
      { Spec.default with dus = 40; scs = 3;
        world = Scenario.Config.(Spec.paper_world ~rows:200 |> with_shards shards
                                 |> with_trace true) }
  in
  let config = Run_config.(default |> with_parallel parallel) in
  let v2 () = Scenario.add_view t (Paper_schema.view2_query ()) in
  let mvs = if views = 2 then [ t.mv; v2 () ] else [ t.mv ] in
  Report.of_run (Scheduler.dispatch ~config t.engine mvs t.mk) t.trace

let test_rounds_and_shards () =
  List.iter
    (fun (name, shards, parallel) ->
      match (cli_report ~shards ~parallel ()).Report.episodes with
      | (Stats.Du_maint, false, s) :: _ ->
          Alcotest.(check int) (name ^ ": data update (ok)") 29 s.Report.count
      | _ -> Alcotest.failf "%s: no data update (ok) row" name)
    [ ("serial", 1, 1); ("--parallel 4", 1, 4); ("--shards 3", 3, 1) ]

let test_view_set () =
  let r = cli_report ~views:2 ~shards:1 ~parallel:1 () in
  Alcotest.(check bool) "episodes tabulated" true (r.Report.episodes <> []);
  Alcotest.(check bool) "one maint-start per dispatched entry" true
    (List.assoc_opt Trace.Maint_start r.Report.event_counts <> None)

(* Every optional section of [Stats.pp] starts a line of its own, also
   when the line before it is short (a run whose transport never
   misbehaved): the sections share one vertical box. *)
let test_stats_sections () =
  let s = Stats.create () in
  s.Stats.view_commits <- 384;
  s.Stats.compensations <- 6;
  s.Stats.cross_shard_barriers <- 1;
  s.Stats.probes_avoided <- 7;
  s.Stats.bytes_saved <- 640;
  let check ~transport n =
    let lines = String.split_on_char '\n' (Fmt.str "%a" Stats.pp s) in
    let has line = List.mem line lines in
    Alcotest.(check bool) "probes line ends the first section" true
      (has "probes: 0 (compensated 6), view commits: 384");
    Alcotest.(check bool) "transport line" transport
      (List.exists (String.starts_with ~prefix:"transport:") lines);
    Alcotest.(check bool) "barrier line" true (has "cross-shard barriers: 1");
    Alcotest.(check bool) "self-maintenance line" true
      (has "self-maintenance: 7 probe(s) avoided, ~640 B saved");
    Alcotest.(check int) "line count" n (List.length lines)
  in
  check ~transport:false 7;
  s.Stats.retries <- 1;
  check ~transport:true 9

let () =
  Alcotest.run "report"
    [
      ( "report",
        [
          Alcotest.test_case "summaries" `Quick test_summary;
          Alcotest.test_case "event counts" `Quick test_event_counts;
          Alcotest.test_case "broken-query attribution" `Quick test_broken_by_source;
          Alcotest.test_case "live run digestion" `Quick test_on_live_run;
          Alcotest.test_case "rounds and shards count every refresh" `Quick
            test_rounds_and_shards;
          Alcotest.test_case "a view set tabulates its episodes" `Quick
            test_view_set;
          Alcotest.test_case "stats: every section on its own line" `Quick
            test_stats_sections;
        ] );
    ]
