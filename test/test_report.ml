(* Unit tests for the trace-derived report: episode extraction, outcome
   split, event counts, broken-query attribution. *)

open Dyno_sim
open Dyno_core

let tr () =
  let t = Trace.create () in
  (* a successful DU maintenance: 0.0 .. 0.3 *)
  Trace.record t ~time:0.0 Trace.Maint_start
    (lazy "#0@0.000s DU(R1@DS1, 1 tuples)");
  Trace.record t ~time:0.1 Trace.Query_sent (lazy "DS1 <- q");
  Trace.record t ~time:0.3 Trace.Refresh (lazy "view += 1");
  (* an aborted SC maintenance: 1.0 .. 8.5 *)
  Trace.record t ~time:1.0 Trace.Maint_start (lazy "#1@1.000s SC(ALTER ...)");
  Trace.record t ~time:8.5 Trace.Broken_query
    (lazy "broken query adapt:V:R3 at DS2: relation R3 does not exist");
  Trace.record t ~time:8.5 Trace.Abort (lazy "maintenance aborted");
  (* a successful batch: 9.0 .. 29.0 *)
  Trace.record t ~time:9.0 Trace.Maint_start (lazy "BATCH{#1; #2}");
  Trace.record t ~time:29.0 Trace.Adapt (lazy "view re-materialized");
  t

let test_episodes () =
  let r = Report.of_trace (tr ()) in
  Alcotest.(check int) "three episodes" 3 (List.length r.Report.episodes);
  let du_ok = Report.by_kind r Report.Du_maint ~aborted:false in
  Alcotest.(check int) "one successful DU" 1 (List.length du_ok);
  Alcotest.(check (float 1e-9)) "DU duration" 0.3 (List.hd du_ok);
  let sc_ab = Report.by_kind r Report.Sc_maint ~aborted:true in
  Alcotest.(check int) "one aborted SC" 1 (List.length sc_ab);
  Alcotest.(check (float 1e-9)) "SC abort duration" 7.5 (List.hd sc_ab);
  let batch_ok = Report.by_kind r Report.Batch_maint ~aborted:false in
  Alcotest.(check (float 1e-9)) "batch duration" 20.0 (List.hd batch_ok)

let test_summary () =
  let s = Report.summarize [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "count" 3 s.Report.count;
  Alcotest.(check (float 1e-9)) "total" 6.0 s.Report.total;
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Report.mean;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Report.max;
  Alcotest.(check int) "empty" 0 (Report.summarize []).Report.count

let test_event_counts () =
  let r = Report.of_trace (tr ()) in
  Alcotest.(check bool) "maint-start counted" true
    (List.assoc_opt Trace.Maint_start r.Report.event_counts = Some 3);
  Alcotest.(check bool) "zero kinds omitted" true
    (List.assoc_opt Trace.Compensate r.Report.event_counts = None)

let test_broken_by_source () =
  let r = Report.of_trace (tr ()) in
  Alcotest.(check (list (pair string int))) "DS2 blamed" [ ("DS2", 1) ]
    r.Report.broken_by_source

let test_on_live_run () =
  (* the report machinery must digest a real trace without confusion *)
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
  let r = Report.of_trace t.Dyno_workload.Scenario.trace in
  let finished =
    List.length (List.filter (fun e -> not e.Report.aborted) r.Report.episodes)
  in
  Alcotest.(check bool) "episodes cover all commits" true
    (finished >= stats.Stats.view_commits - stats.Stats.irrelevant);
  List.iter
    (fun e ->
      Alcotest.(check bool) "durations non-negative" true (e.Report.duration >= 0.0))
    r.Report.episodes

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
          Alcotest.test_case "episode extraction" `Quick test_episodes;
          Alcotest.test_case "summaries" `Quick test_summary;
          Alcotest.test_case "event counts" `Quick test_event_counts;
          Alcotest.test_case "broken-query attribution" `Quick test_broken_by_source;
          Alcotest.test_case "live run digestion" `Quick test_on_live_run;
          Alcotest.test_case "stats: every section on its own line" `Quick
            test_stats_sections;
        ] );
    ]
