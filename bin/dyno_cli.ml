(* dyno — command-line driver for the Dyno view-maintenance simulator.

   Subcommands:
     run      simulate a mixed DU/SC workload over the paper's 6-relation
              schema under a chosen concurrency strategy
     inspect  print the dependency graph + corrected legal order for a
              workload, without running maintenance
     demo     the walk-throughs of the paper's examples are example
              binaries; this points at them

   Examples:
     dyno run --strategy pessimistic --dus 200 --scs 10 --sc-interval 9
     dyno run --strategy optimistic --dus 50 --scs 5 --trace
     dyno inspect --dus 8 --scs 3 *)

open Cmdliner
open Dyno_workload
open Dyno_core

(* ---- shared options ------------------------------------------------ *)

(* [conv] restricted to the values [ok] accepts: anything else is a usage
   error (exit 124) whose message names the flag and [expect]. *)
let bounded conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Fmt.str "%s is not %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let at_least_one = bounded Arg.int ~expect:"at least 1" (fun n -> n >= 1)
let count = bounded Arg.int ~expect:"non-negative" (fun n -> n >= 0)
let positive = bounded Arg.float ~expect:"positive" (fun x -> x > 0.0)
let duration = bounded Arg.float ~expect:"non-negative" (fun x -> x >= 0.0)

let probability =
  bounded Arg.float ~expect:"in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)

let rows =
  let doc = "Physical tuples per relation (cost model scales to 100k)." in
  Arg.(value & opt at_least_one 200 & info [ "rows" ] ~docv:"N" ~doc)

let dus =
  let doc = "Number of data updates." in
  Arg.(value & opt count 100 & info [ "dus" ] ~docv:"N" ~doc)

let scs =
  let doc = "Number of schema changes (1 drop-attribute + renames)." in
  Arg.(value & opt count 5 & info [ "scs" ] ~docv:"N" ~doc)

let du_interval =
  let doc = "Seconds between data-update commits." in
  Arg.(value & opt duration 1.0 & info [ "du-interval" ] ~docv:"S" ~doc)

let sc_interval =
  let doc = "Seconds between schema-change commits." in
  Arg.(value & opt duration 10.0 & info [ "sc-interval" ] ~docv:"S" ~doc)

let seed =
  let doc = "Workload random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let strategy =
  let parse s =
    match Strategy.of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Fmt.str "unknown strategy %S" s))
  in
  let strategy_conv = Arg.conv ~docv:"STRATEGY" (parse, Strategy.pp) in
  let doc = "Concurrency strategy: pessimistic | optimistic | merge-all." in
  Arg.(
    value & opt strategy_conv Strategy.Pessimistic & info [ "strategy"; "s" ] ~doc)

let trace_flag =
  let doc = "Print the full execution trace." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let no_compensation =
  let doc = "Disable SWEEP compensation (demonstrates duplication anomalies)." in
  Arg.(value & flag & info [ "no-compensation" ] ~doc)

let report_flag =
  let doc = "Print a cost-breakdown report derived from the trace." in
  Arg.(value & flag & info [ "report" ] ~doc)

(* ---- transport-fault options --------------------------------------- *)

let loss =
  let doc =
    "P[one update-message transmission is lost] (retransmitted); below 1, \
     or no message would ever arrive."
  in
  let loss_probability =
    bounded Arg.float ~expect:"in [0, 1)" (fun p -> p >= 0.0 && p < 1.0)
  in
  Arg.(value & opt loss_probability 0.0 & info [ "loss" ] ~docv:"P" ~doc)

let dup =
  let doc = "P[an update message is delivered twice]." in
  Arg.(value & opt probability 0.0 & info [ "dup" ] ~docv:"P" ~doc)

let reorder =
  let doc = "P[an update message is held back past its successors]." in
  Arg.(value & opt probability 0.0 & info [ "reorder" ] ~docv:"P" ~doc)

let jitter =
  let doc = "Max extra uniform delivery delay per message, seconds." in
  Arg.(value & opt duration 0.0 & info [ "jitter" ] ~docv:"S" ~doc)

let reorder_delay =
  let doc =
    "How long a held-back message is delayed, seconds (it overtakes      nothing unless this exceeds the update interval)."
  in
  Arg.(value & opt duration 1.5 & info [ "reorder-delay" ] ~docv:"S" ~doc)

let outages =
  let parse s =
    let bad why = Error (`Msg (Fmt.str "bad outage %S (%s)" s why)) in
    match String.split_on_char ':' s with
    | [ src; start; dur ] -> (
        match (float_of_string_opt start, float_of_string_opt dur) with
        | Some st, Some d
          when Float.is_finite st && st >= 0.0 && Float.is_finite d && d > 0.0
          ->
            if List.mem src Paper_schema.sources then
              Ok
                {
                  Dyno_net.Channel.source = src;
                  starts = st;
                  ends = st +. d;
                }
            else
              bad
                (Fmt.str "no source %s; the sources are %s" src
                   (String.concat ", " Paper_schema.sources))
        | _ -> bad "want a finite START >= 0 and a finite DUR > 0")
    | _ -> bad "want SRC:START:DUR"
  in
  let pp_outage ppf (o : Dyno_net.Channel.outage) =
    Fmt.pf ppf "%s:%g:%g" o.source o.starts (o.ends -. o.starts)
  in
  let outage_conv = Arg.conv ~docv:"SRC:START:DUR" (parse, pp_outage) in
  let doc =
    "Make source $(i,SRC) unreachable from $(i,START) for $(i,DUR)      simulated seconds (repeatable)."
  in
  Arg.(
    value
    & opt_all outage_conv []
    & info [ "outage" ] ~docv:"SRC:START:DUR" ~doc)

let net_seed =
  let doc =
    "Transport-channel random seed (defaults to the workload seed)."
  in
  Arg.(value & opt (some int) None & info [ "net-seed" ] ~docv:"SEED" ~doc)

let json_file =
  let doc = "Write the run statistics as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_out =
  let doc =
    "Record spans and write them as Chrome trace-event JSON to $(docv) \
     (load in ui.perfetto.dev or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Record metrics (counters, gauges, latency histograms) and write them \
     as JSON to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let lineage_out =
  let doc =
    "Write per-update causal lineage (commit → channel → sequencer → \
     queue → dispatch → probes → terminal, with per-segment charged \
     durations) as JSON-lines to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "lineage-out" ] ~docv:"FILE" ~doc)

let no_lineage =
  let doc =
    "Disable per-update lineage recording while keeping the rest of the \
     observability stack on (lineage-off runs are byte-identical; used \
     for overhead measurement)."
  in
  Arg.(value & flag & info [ "no-lineage" ] ~doc)

let critical_path_flag =
  let doc =
    "Print the critical-path table: commit→terminal staleness decomposed \
     into channel / hold / queue / barrier / probe / compute segments."
  in
  Arg.(value & flag & info [ "critical-path" ] ~doc)

(* The status of a command that could not write a file it was asked
   for. *)
let cannot_write = 1

(* Write [contents ()] and a newline to [path], when given, and announce
   it; a file that cannot be written ends the command with one line and
   [cannot_write]. *)
let export path contents announce =
  Option.iter
    (fun f ->
      (try
         Out_channel.with_open_text f (fun oc ->
             output_string oc (contents ());
             output_char oc '\n')
       with Sys_error e ->
         (* An [open] error already reads "FILE: reason". *)
         let prefix = f ^ ": " in
         Fmt.epr "dyno: cannot write %s@."
           (if String.starts_with ~prefix e then e else prefix ^ e);
         exit cannot_write);
      announce f)
    path

(* ---- telemetry options ---------------------------------------------- *)

let sample_interval =
  let doc =
    "Telemetry sampling interval in simulated seconds: snapshot queue \
     depth, in-flight work, commit/apply frontiers and view staleness \
     into a ring-buffered time series at most once per $(docv)."
  in
  Arg.(
    value
    & opt (some positive) None
    & info [ "sample-interval" ] ~docv:"S" ~doc)

let series_out =
  let doc = "Write the sampled time series as JSON-lines to $(docv)." in
  Arg.(value & opt (some string) None & info [ "series-out" ] ~docv:"FILE" ~doc)

let openmetrics_out =
  let doc =
    "Write the metrics registry in OpenMetrics/Prometheus text exposition \
     to $(docv)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "openmetrics-out" ] ~docv:"FILE" ~doc)

let slo_specs =
  let parse s =
    match Dyno_obs.Slo.parse s with
    | Ok o -> Ok o
    | Error e -> Error (`Msg e)
  in
  let slo_conv = Arg.conv ~docv:"SPEC" (parse, Dyno_obs.Slo.pp_objective) in
  let doc =
    "Service-level objective over the end-of-run metrics, e.g. \
     'staleness.p99 <= 30' or 'stall_ratio <= 0.2' (repeatable)."
  in
  Arg.(value & opt_all slo_conv [] & info [ "slo" ] ~docv:"SPEC" ~doc)

let slo_exit =
  let doc = "Exit with status 3 when any $(b,--slo) objective fails." in
  Arg.(value & flag & info [ "slo-exit" ] ~doc)

let watch_flag =
  let doc =
    "Live telemetry: redraw an ANSI table of every sampled series at each \
     sampling instant (implies sampling; default interval 1 s)."
  in
  Arg.(value & flag & info [ "watch" ] ~doc)

(* Sampling is on iff requested explicitly or implied by an output that
   needs it. *)
let effective_interval ~sample_interval ~series_out ~watch =
  match sample_interval with
  | Some _ -> sample_interval
  | None -> if series_out <> None || watch then Some 1.0 else None

let install_watch series =
  if Dyno_obs.Timeseries.enabled series then
    Dyno_obs.Timeseries.on_sample series (fun s ->
        Fmt.pr "\027[2J\027[H";
        Fmt.pr "dyno telemetry — t = %.3f s (simulated)@."
          s.Dyno_obs.Timeseries.at;
        Fmt.pr "%-40s %14s@." "series" "value";
        Fmt.pr "%s@." (String.make 55 '-');
        List.iter
          (fun (n, v) -> Fmt.pr "%-40s %14.6g@." n v)
          s.Dyno_obs.Timeseries.values;
        Fmt.pr "@?")

(* Per-view staleness summary derived from the [view.<v>.staleness_*]
   histograms the freshness tracker records at every apply. *)
let staleness_section mx =
  let open Dyno_obs in
  let views =
    Metrics.fold mx
      (fun acc name m ->
        match m with
        | Metrics.Histogram _
          when String.length name > 17
               && String.sub name 0 5 = "view."
               && Filename.check_suffix name ".staleness_s" ->
            String.sub name 5 (String.length name - 17) :: acc
        | _ -> acc)
      []
    |> List.rev
  in
  if views <> [] then begin
    Fmt.pr "@.staleness (view lag behind the sources' commit frontier):@.";
    Fmt.pr "  %-12s %-9s %9s %9s %9s %9s %7s@." "view" "" "p50" "p90" "p99"
      "max" "n";
    List.iter
      (fun v ->
        (match
           Metrics.histogram_summary mx (Fmt.str "view.%s.staleness_s" v)
         with
        | Some s ->
            Fmt.pr "  %-12s %-9s %9.3f %9.3f %9.3f %9.3f %7d@." v "seconds"
              s.Metrics.p50 s.Metrics.p90 s.Metrics.p99 s.Metrics.max
              s.Metrics.count
        | None -> ());
        match
          Metrics.histogram_summary mx (Fmt.str "view.%s.staleness_versions" v)
        with
        | Some s ->
            Fmt.pr "  %-12s %-9s %9.0f %9.0f %9.0f %9.0f %7d@." "" "versions"
              s.Metrics.p50 s.Metrics.p90 s.Metrics.p99 s.Metrics.max
              s.Metrics.count
        | None -> ())
      views
  end

(* Critical-path table: the lineage per-segment histograms decompose each
   update's commit-to-terminal elapsed time; the quantiles show where the
   population loses its time. *)
let critical_path_section mx =
  let open Dyno_obs in
  match Metrics.histogram_summary mx "lineage.total_s" with
  | None ->
      Fmt.pr
        "@.critical path: no lineage data (lineage disabled or no update \
         reached a terminal state)@."
  | Some tot ->
      Fmt.pr
        "@.critical path (commit→terminal elapsed, decomposed by \
         segment):@.";
      Fmt.pr "  %-10s %9s %9s %9s %9s %7s@." "segment" "p50" "p90" "p99"
        "max" "n";
      List.iter
        (fun seg ->
          let name = Lineage.segment_name seg in
          match
            Metrics.histogram_summary mx (Fmt.str "lineage.%s_s" name)
          with
          | Some s ->
              Fmt.pr "  %-10s %9.3f %9.3f %9.3f %9.3f %7d@." name
                s.Metrics.p50 s.Metrics.p90 s.Metrics.p99 s.Metrics.max
                s.Metrics.count
          | None -> ())
        Lineage.all_segments;
      Fmt.pr "  %-10s %9.3f %9.3f %9.3f %9.3f %7d@." "total" tot.Metrics.p50
        tot.Metrics.p90 tot.Metrics.p99 tot.Metrics.max tot.Metrics.count

(* Per-shard busy/barrier rows, printed only for sharded runs. *)
let shard_section mx =
  let open Dyno_obs in
  let shards = int_of_float (Metrics.gauge_value mx "sched.shards") in
  if shards > 1 then begin
    Fmt.pr "@.shards (%d, schema changes serialize at the barrier):@."
      shards;
    Fmt.pr "  %-8s %12s@." "shard" "busy_s";
    for i = 0 to shards - 1 do
      Fmt.pr "  %-8d %12.3f@." i
        (Metrics.gauge_value mx (Fmt.str "shard.%d.busy_s" i))
    done;
    Fmt.pr "  cross-shard barriers: %d@."
      (Metrics.counter_value mx "sched.cross_shard_barriers")
  end

let sparkline values =
  let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  let hi = List.fold_left Float.max 0.0 values in
  values
  |> List.map (fun v ->
         if hi <= 0.0 || v <= 0.0 then " "
         else glyphs.(min 7 (int_of_float (v /. hi *. 7.99))))
  |> String.concat ""

(* Sampled-series sparklines: the run's staleness and queue depth over
   simulated time, compressed to one terminal row each. *)
let timeline_section series =
  let open Dyno_obs in
  let samples = Timeseries.samples series in
  if samples <> [] then begin
    let last_at = (List.nth samples (List.length samples - 1)).Timeseries.at in
    Fmt.pr "@.timeline (%d samples over %.3g s, ≥ %.3g s apart):@."
      (List.length samples) last_at (Timeseries.interval series);
    List.iter
      (fun name ->
        let vs =
          List.filter_map
            (fun s -> List.assoc_opt name s.Timeseries.values)
            samples
        in
        if vs <> [] then begin
          (* keep the last 72 points — one glyph per sample *)
          let n = List.length vs in
          let vs =
            if n <= 72 then vs else List.filteri (fun i _ -> i >= n - 72) vs
          in
          Fmt.pr "  %-22s |%s| max %.4g@." name (sparkline vs)
            (List.fold_left Float.max 0.0 vs)
        end)
      [ "staleness_s"; "staleness_versions"; "umq.depth"; "sched.busy_ratio" ]
  end

(* Evaluate the [--slo] objectives; returns whether all pass. *)
let slo_section mx slos =
  if slos = [] then true
  else begin
    let verdicts = Dyno_obs.Slo.eval_all mx slos in
    Fmt.pr "@.SLOs:@.";
    List.iter (fun v -> Fmt.pr "  %a@." Dyno_obs.Slo.pp_verdict v) verdicts;
    Dyno_obs.Slo.all_pass verdicts
  end

let multi_flag =
  let doc =
    "Maintain a second, narrower view (R1 join R2) alongside the full \
     24-attribute view with the multi-view scheduler."
  in
  Arg.(value & flag & info [ "multi" ] ~doc)

let parallel_arg =
  let doc =
    "Dependency-parallel maintenance: overlap the probe round trips of up \
     to $(docv) mutually independent queued updates (with --multi: of the \
     per-view sweeps of the head update).  1 is the strictly serial \
     scheduler, bit-identical to the classic loop."
  in
  Arg.(value & opt at_least_one 1 & info [ "parallel" ] ~docv:"N" ~doc)

let self_maint_flag =
  let doc =
    "Self-maintenance tier: keep incrementally-maintained auxiliary \
     projections of every join partner at the view manager (fed for free \
     from the delivered update stream) and answer fully-covered \
     maintenance sweeps locally, skipping their probe round trips.  Any \
     coverage miss, stale projection or queued schema change falls back \
     to the probing SWEEP path unchanged."
  in
  Arg.(value & flag & info [ "self-maint" ] ~doc)

let shards_arg =
  let doc =
    "Shard the view manager across $(docv) partitions of the sources,      each shard owning its own update queue, transport channel and      exactly-once sequencer.  Shard-local data updates drain      independently; schema changes serialize at a cross-shard barrier.       1 is the classic single view manager."
  in
  Arg.(value & opt at_least_one 1 & info [ "shards" ] ~docv:"N" ~doc)

(* ---- the run spec: the world and run flags of run, report, explain -- *)

let run_config =
  let make strategy no_compensation parallel self_maint =
    Run_config.(
      of_strategy strategy
      |> with_compensate (not no_compensation)
      |> with_parallel parallel
      |> with_self_maint self_maint)
  in
  Term.(
    const make $ strategy $ no_compensation $ parallel_arg $ self_maint_flag)

let faults =
  let make loss dup reorder jitter reorder_delay outages =
    {
      Dyno_net.Channel.reliable with
      loss;
      dup;
      reorder;
      jitter;
      reorder_delay;
      outages;
    }
  in
  Term.(const make $ loss $ dup $ reorder $ jitter $ reorder_delay $ outages)

(* The paper's world at [--rows], every commit tracked for the strong
   consistency check. *)
let spec =
  let make rows dus scs du_interval sc_interval seed run shards faults
      net_seed =
    Spec.with_transport ?net_seed faults
      {
        Spec.default with
        seed;
        dus;
        scs;
        du_interval;
        sc_interval;
        run;
        world =
          Scenario.Config.(
            Spec.paper_world ~rows |> with_snapshots true
            |> with_shards shards);
      }
  in
  Term.(
    const make $ rows $ dus $ scs $ du_interval $ sc_interval $ seed
    $ run_config $ shards_arg $ faults $ net_seed)

(* [spec] with its world's trace switch and recorders set. *)
let observed ?(trace = false) obs (s : Spec.t) =
  {
    s with
    world = Scenario.Config.(s.world |> with_trace trace |> with_obs obs);
  }

(* ---- exports: the files run and report write ----------------------- *)

type exports = {
  trace_out : string option;
  metrics_out : string option;
  lineage_out : string option;
  series_out : string option;
  openmetrics_out : string option;
  slos : Dyno_obs.Slo.objective list;
  slo_exit : bool;
}

let exports =
  let make trace_out metrics_out lineage_out series_out openmetrics_out slos
      slo_exit =
    {
      trace_out;
      metrics_out;
      lineage_out;
      series_out;
      openmetrics_out;
      slos;
      slo_exit;
    }
  in
  Term.(
    const make $ trace_out $ metrics_out $ lineage_out $ series_out
    $ openmetrics_out $ slo_specs $ slo_exit)

(* ---- exit statuses ------------------------------------------------ *)

let view_undefined = 2
let slo_failed = 3
let rejected_refresh = 4

(* The statuses of a command that runs the workload, besides cmdliner's;
   [report] and [run] also write files and end on the view and the
   SLOs. *)
let run_exits ~verdicts =
  let status code doc = Cmd.Exit.info code ~doc in
  (if verdicts then
     [
       status cannot_write "when an output file cannot be written.";
       status view_undefined "when a schema change left the view undefined.";
       status slo_failed
         "when $(b,--slo-exit) is given and an objective failed.";
     ]
   else [])
  @ status rejected_refresh
      "when $(b,--no-compensation) let a maintenance count concurrent \
       updates twice and the view rejected the refresh."
    :: Cmd.Exit.defaults

(* With compensation off a sweep keeps concurrent updates in its probe
   answers, so they are counted twice: the duplication anomaly
   [--no-compensation] shows.  The view rejects a refresh that would
   drive a tuple's multiplicity negative ({!Dyno_view.Mat_view.refresh});
   the run then ends with one line naming the refresh, and
   [rejected_refresh]. *)
let guard_compensation (spec : Spec.t) f =
  if spec.run.compensate then f ()
  else
    try f ()
    with Invalid_argument reason ->
      Fmt.epr
        "dyno: %s; compensation is off (--no-compensation), so concurrent \
         updates were counted twice@."
        reason;
      exit rejected_refresh

(* Write every requested file, print the staleness summary, [sections]
   and the SLO verdicts, then exit [view_undefined] when the view became
   undefined, or [slo_failed] when [--slo-exit] and an objective
   failed. *)
let write_exports ?(sections = ignore) obs e (stats : Stats.t) =
  let open Dyno_obs in
  let mx = Obs.metrics obs in
  let lin = Obs.lineage obs and series = Obs.series obs in
  export e.trace_out
    (fun () -> Export.chrome_trace ~lineage:lin (Obs.spans obs))
    (Fmt.pr "chrome trace written to %s (open in ui.perfetto.dev)@.");
  export e.metrics_out
    (fun () -> Metrics.to_json_string mx)
    (Fmt.pr "metrics written to %s@.");
  export e.lineage_out
    (fun () -> String.trim (Lineage.to_jsonl lin))
    (fun f ->
      Fmt.pr "lineage written to %s (%d record(s))@." f
        (List.length (Lineage.records lin)));
  export e.series_out
    (fun () -> String.trim (Timeseries.to_jsonl series))
    (fun f ->
      Fmt.pr "time series written to %s (%d samples, %d dropped)@." f
        (Timeseries.length series) (Timeseries.dropped series));
  export e.openmetrics_out
    (fun () -> String.trim (Export.openmetrics mx))
    (Fmt.pr "openmetrics written to %s@.");
  staleness_section mx;
  sections ();
  let slo_ok = slo_section mx e.slos in
  if stats.view_undefined then exit view_undefined;
  if e.slo_exit && not slo_ok then exit slo_failed

(* ---- run ----------------------------------------------------------- *)

let run_cmd =
  let action spec trace report multi json_file exports sample_interval
      no_lineage watch =
    let interval =
      effective_interval ~sample_interval ~series_out:exports.series_out
        ~watch
    in
    let obs =
      if
        exports.trace_out <> None || exports.metrics_out <> None
        || exports.openmetrics_out <> None || exports.lineage_out <> None
        || exports.slos <> [] || interval <> None
      then
        Dyno_obs.Obs.create ?sample_interval:interval ~lineage:(not no_lineage)
          ()
      else Dyno_obs.Obs.disabled
    in
    if watch then install_watch (Dyno_obs.Obs.series obs);
    let spec = observed ~trace:(trace || report) obs spec in
    let t = Spec.build spec in
    let stats =
      guard_compensation spec @@ fun () ->
      if multi then begin
        let views =
          [ t.mv; Scenario.add_view t (Paper_schema.view2_query ()) ]
        in
        let stats =
          Scheduler.dispatch ~config:spec.run t.engine views t.mk
        in
        List.iteri
          (fun i mv ->
            (match Consistency.convergent t.engine mv with
            | Ok b -> Fmt.pr "view %d convergent: %b@." i b
            | Error e -> Fmt.pr "view %d: not checkable (%s)@." i e);
            Fmt.pr "view %d strong consistency: %a@." i Consistency.pp_report
              (Consistency.check_strong t.engine mv))
          views;
        stats
      end
      else Scenario.run t ~config:spec.run
    in
    if trace then Fmt.pr "%a@.@." Dyno_sim.Trace.pp t.trace;
    if report then Fmt.pr "%a@.@." Report.pp (Report.of_run stats t.trace);
    Fmt.pr "strategy: %a@.%a@." Strategy.pp spec.run.strategy Stats.pp stats;
    if not multi then begin
      (match Scenario.check_convergent t with
      | Ok b -> Fmt.pr "convergent: %b@." b
      | Error e -> Fmt.pr "convergence: not checkable (%s)@." e);
      Fmt.pr "strong consistency: %a@." Consistency.pp_report
        (Scenario.check_strong t)
    end;
    export json_file
      (fun () -> Stats.to_json_string stats)
      (Fmt.pr "stats written to %s@.");
    write_exports obs exports stats
  in
  let term =
    Term.(
      const action $ spec $ trace_flag $ report_flag $ multi_flag $ json_file
      $ exports $ sample_interval $ no_lineage $ watch_flag)
  in
  Cmd.v
    (Cmd.info "run" ~exits:(run_exits ~verdicts:true)
       ~doc:"Simulate a mixed workload under a strategy")
    term

(* ---- report: span-derived cost breakdown ---------------------------- *)

let report_cmd =
  let action spec exports critical_path sample_interval =
    (* [report] always samples: the timeline section needs a series. *)
    let interval = Option.value sample_interval ~default:1.0 in
    let obs = Dyno_obs.Obs.create ~sample_interval:interval () in
    let _, stats =
      guard_compensation spec (fun () -> Spec.run (observed obs spec))
    in
    Fmt.pr "strategy: %a@.@." Strategy.pp spec.run.strategy;
    Fmt.pr "%a@." Dyno_obs.Export.pp_breakdown
      (Dyno_obs.Export.breakdown (Dyno_obs.Obs.spans obs));
    let mx = Dyno_obs.Obs.metrics obs in
    Fmt.pr "@.%a@." Dyno_obs.Metrics.pp mx;
    write_exports obs exports stats ~sections:(fun () ->
        shard_section mx;
        if critical_path then critical_path_section mx;
        timeline_section (Dyno_obs.Obs.series obs))
  in
  let term =
    Term.(const action $ spec $ exports $ critical_path_flag $ sample_interval)
  in
  Cmd.v
    (Cmd.info "report" ~exits:(run_exits ~verdicts:true)
       ~doc:
         "Run a workload with span recording on and print the \
          busy/abort/idle/net-wait cost breakdown derived from spans alone, \
          plus the metrics registry")
    term

(* ---- explain: per-update causal narrative --------------------------- *)

let explain_msg =
  let doc = "Explain the update admitted to the UMQ as message $(docv)." in
  Arg.(value & opt (some int) None & info [ "msg" ] ~docv:"ID" ~doc)

let explain_abort =
  let doc =
    "Explain the update behind the $(docv)-th abort of the run (1-based, \
     in time order)."
  in
  Arg.(value & opt (some at_least_one) None & info [ "abort" ] ~docv:"N" ~doc)

let explain_view =
  let doc =
    "Explain the updates integrated into view $(docv), slowest first; \
     $(docv) must name a view of the run."
  in
  Arg.(value & opt (some string) None & info [ "view" ] ~docv:"VIEW" ~doc)

let lineage_summary_table records =
  Fmt.pr "%4s  %-10s  %-4s  %-10s  %9s  %s@." "msg" "update" "kind"
    "terminal" "elapsed" "dominant segment";
  List.iter
    (fun (r : Dyno_obs.Lineage.record) ->
      let terminal =
        match r.Dyno_obs.Lineage.term with
        | None -> "pending"
        | Some t -> Dyno_obs.Lineage.terminal_name t
      in
      let dominant =
        match
          List.sort
            (fun (_, a) (_, b) -> Float.compare b a)
            (Dyno_obs.Lineage.segments r)
        with
        | [] -> "-"
        | (name, v) :: _ -> Fmt.str "%s (%.3fs)" name v
      in
      Fmt.pr "%4d  %-10s  %-4s  %-10s  %8.3fs  %s@."
        r.Dyno_obs.Lineage.msg_id
        (Fmt.str "%s#%d" r.Dyno_obs.Lineage.source r.Dyno_obs.Lineage.seq)
        (if r.Dyno_obs.Lineage.sc then "SC" else "DU")
        terminal
        (Dyno_obs.Lineage.elapsed r)
        dominant)
    records

let explain_cmd =
  let action spec msg abort_n view =
    let obs = Dyno_obs.Obs.create () in
    let t, (_ : Stats.t) =
      guard_compensation spec (fun () -> Spec.run (observed obs spec))
    in
    let lin = Dyno_obs.Obs.lineage obs in
    let records = Dyno_obs.Lineage.records lin in
    let slowest n rs =
      let rs =
        List.sort
          (fun a b ->
            Float.compare (Dyno_obs.Lineage.elapsed b)
              (Dyno_obs.Lineage.elapsed a))
          rs
      in
      List.filteri (fun i _ -> i < n) rs
    in
    let narrate r = Fmt.pr "%a@." Dyno_obs.Lineage.pp_record r in
    match (msg, abort_n, view) with
    | Some id, _, _ -> (
        match Dyno_obs.Lineage.find_msg lin id with
        | Some r -> narrate r
        | None ->
            Fmt.epr "no lineage record for msg %d (ids run 0..%d)@." id
              (List.length records - 1);
            exit 1)
    | None, Some n, _ -> (
        let aborts =
          List.concat_map
            (fun r ->
              List.filter_map
                (fun (e : Dyno_obs.Lineage.event) ->
                  if e.Dyno_obs.Lineage.kind = "abort" then
                    Some (e.Dyno_obs.Lineage.at, r)
                  else None)
                (Dyno_obs.Lineage.events r))
            records
          |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
        in
        match List.nth_opt aborts (n - 1) with
        | Some (_, r) ->
            Fmt.pr "abort %d of %d:@.@." n (List.length aborts);
            narrate r
        | None ->
            Fmt.epr "run had %d abort(s); --abort %d out of range@."
              (List.length aborts) n;
            exit 1)
    | None, None, Some v ->
        let hits =
          match Scenario.updates_to_view t lin v with
          | Ok hits -> hits
          | Error views ->
              Fmt.epr "no view %s in this run (its views: %s)@." v
                (String.concat ", " views);
              exit 1
        in
        Fmt.pr "%d update(s) touched view %s:@.@." (List.length hits) v;
        lineage_summary_table hits;
        Fmt.pr "@.slowest:@.@.";
        List.iter narrate (slowest 3 hits)
    | None, None, None ->
        Fmt.pr "%d update(s) traced:@.@." (List.length records);
        lineage_summary_table records;
        Fmt.pr "@.slowest:@.@.";
        List.iter narrate (slowest 3 records)
  in
  let term =
    Term.(const action $ spec $ explain_msg $ explain_abort $ explain_view)
  in
  Cmd.v
    (Cmd.info "explain"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"when the asked-for message, abort or view is not in the run."
         :: run_exits ~verdicts:false)
       ~doc:
         "Re-run a workload with lineage recording on and print the causal \
          narrative of one update (--msg), of the update behind the N-th \
          abort (--abort), of the updates integrated into a view (--view), \
          or a summary of every update")
    term

(* ---- inspect ------------------------------------------------------- *)

let inspect_cmd =
  let action rows dus scs seed =
    (* Flood everything at t=0 so the whole workload is queued, then show
       the dependency graph and its correction. *)
    let t =
      Spec.build
        {
          Spec.default with
          seed;
          dus;
          scs;
          du_interval = 0.0;
          sc_interval = 0.0;
          world =
            Scenario.Config.(
              default |> with_rows rows |> with_cost Dyno_sim.Cost_model.free);
        }
    in
    Dyno_view.Query_engine.deliver_due t.engine;
    let vd = Dyno_view.Mat_view.def t.mv in
    let g =
      Dep_graph.build
        (Dyno_view.View_def.peek vd)
        (Dyno_view.View_def.schemas vd)
        (Dyno_view.Umq.entries t.umq)
    in
    Fmt.pr "%a@.@.unsafe dependencies: %d@.@." Dep_graph.pp g
      (Dep_graph.unsafe_count g);
    let c = Dep_graph.correct g in
    Fmt.pr "correction: %d cycle(s) merged (%d update(s))@.legal order:@."
      c.Dep_graph.merged_cycles c.Dep_graph.merged_updates;
    List.iteri
      (fun i e -> Fmt.pr "  %2d. %a@." i Dyno_view.Umq.pp_entry e)
      c.Dep_graph.order
  in
  let term = Term.(const action $ rows $ dus $ scs $ seed) in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Show the dependency graph and corrected legal order")
    term

(* ---- sql: run a scripted session ----------------------------------- *)

let sql_cmd =
  let file =
    let doc = "SQL script: CREATE TABLE / INSERT statements set up the \
               sources, CREATE VIEW materializes the view, every statement \
               after it commits autonomously (1 s apart) and Dyno maintains \
               the view." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let action file strategy trace =
    let open Dyno_relational in
    let text = In_channel.with_open_bin file In_channel.input_all in
    let registry = Dyno_source.Registry.create () in
    let timeline = Dyno_sim.Timeline.create () in
    let world = ref None in
    let next_time = ref 1.0 in
    let ensure_source id =
      if not (Dyno_source.Registry.mem registry id) then
        Dyno_source.Registry.register registry (Dyno_source.Data_source.create id)
    in
    let fail fmt = Fmt.kstr (fun s -> Fmt.epr "error: %s@." s; exit 1) fmt in
    (* The statements the sources commit during the run, newest first. *)
    let scheduled = ref [] in
    let schedule stmt_text ev =
      Dyno_sim.Timeline.schedule timeline ~time:!next_time ev;
      next_time := !next_time +. 1.0;
      scheduled := stmt_text :: !scheduled
    in
    let schema_of ~source ~rel =
      match Dyno_source.Registry.find_opt registry source with
      | None -> fail "unknown source %s" source
      | Some s -> (
          match Catalog.schema_of_opt (Dyno_source.Data_source.catalog s) rel with
          | Some sc -> sc
          | None -> fail "unknown relation %s@%s" rel source)
    in
    List.iter
      (fun stmt_text ->
        if
          String.length stmt_text >= 11
          && String.uppercase_ascii (String.sub stmt_text 0 11) = "CREATE VIEW"
        then begin
          match Sql_parser.parse_view stmt_text with
          | Error e -> fail "in %S: %s" stmt_text e
          | Ok q ->
              let schemas =
                List.map
                  (fun (tr : Query.table_ref) ->
                    (tr.alias, schema_of ~source:tr.source ~rel:tr.rel))
                  (Query.from q)
              in
              (match Eval.prepare q schemas with
              | _ -> ()
              | exception Eval.Error e -> fail "in %S: %s" stmt_text e
              | exception Schema.Duplicate_attribute a ->
                  fail "in %S: duplicate column %s" stmt_text a);
              world :=
                Some
                  (Scenario.assemble
                     Scenario.Config.(
                       default
                       |> with_cost
                            { Dyno_sim.Cost_model.default with row_scale = 1.0 }
                       |> with_snapshots true |> with_trace trace)
                     ~registry ~mk:(Dyno_source.Meta_knowledge.create ())
                     ~view:q ~timeline)
        end
        else
          match Sql_parser.parse_statement stmt_text with
          | Error e -> fail "in %S: %s" stmt_text e
          | Ok (Sql_parser.Create_table { source; rel; schema }) ->
              ensure_source source;
              let src = Dyno_source.Registry.find registry source in
              if Catalog.mem (Dyno_source.Data_source.catalog src) rel then
                fail "in %S: relation %s@%s already exists" stmt_text rel source;
              Dyno_source.Data_source.add_relation src rel schema
          | Ok (Sql_parser.Insert { source; rel; _ } as stmt)
          | Ok (Sql_parser.Delete { source; rel; _ } as stmt) -> (
              let schema = schema_of ~source ~rel in
              match Sql_parser.to_update schema stmt with
              | Error e -> fail "in %S: %s" stmt_text e
              | Ok u ->
                  if !world = None then begin
                    (* before the view exists: direct load *)
                    let r =
                      Dyno_source.Data_source.relation
                        (Dyno_source.Registry.find registry source)
                        rel
                    in
                    try Relation.apply_delta_in_place r (Update.delta u)
                    with Invalid_argument reason ->
                      fail "in %S: %s" stmt_text reason
                  end
                  else schedule stmt_text (Dyno_sim.Timeline.Du u))
          | Ok (Sql_parser.Alter sc) ->
              if !world = None then fail "schema changes require a view first";
              let source = Schema_change.source sc in
              if not (Dyno_source.Registry.mem registry source) then
                fail "in %S: unknown source %s" stmt_text source;
              schedule stmt_text (Dyno_sim.Timeline.Sc sc))
      (Sql_lexer.statements text);
    match !world with
    | None -> fail "the script must contain a CREATE VIEW statement"
    | Some t ->
        let stats =
          try Scenario.run t ~config:(Run_config.of_strategy strategy)
          with Dyno_source.Data_source.Commit_rejected reason ->
            (* The sources commit the scheduled statements one at a time,
               in script order, and nothing else: as many have committed
               as the sources' versions sum to, and the next one was
               rejected. *)
            let committed =
              List.fold_left
                (fun n id ->
                  n
                  + Dyno_source.Data_source.version
                      (Dyno_source.Registry.find registry id))
                0
                (Dyno_source.Registry.ids registry)
            in
            fail "in %S: %s" (List.nth (List.rev !scheduled) committed) reason
        in
        if trace then Fmt.pr "%a@.@." Dyno_sim.Trace.pp t.trace;
        Fmt.pr "%a@.@." Sql.pp_view (Dyno_view.View_def.peek (Dyno_view.Mat_view.def t.mv));
        Fmt.pr "%a@.@." Sql.pp_relation_table (Dyno_view.Mat_view.extent t.mv);
        Fmt.pr "%a@." Stats.pp stats;
        match Scenario.check_convergent t with
        | Ok b -> Fmt.pr "convergent: %b@." b
        | Error e -> Fmt.pr "convergence not checkable: %s@." e
  in
  Cmd.v
    (Cmd.info "sql"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when a statement is malformed, names what does not exist, \
               or commits a change its source rejects."
         :: Cmd.Exit.defaults)
       ~doc:"Run a scripted SQL session under Dyno maintenance")
    Term.(const action $ file $ strategy $ trace_flag)

(* ---- demo ---------------------------------------------------------- *)

let demo_cmd =
  let action () =
    Fmt.pr
      "The walk-throughs of the paper's examples are separate binaries:@.@.  \
       dune exec examples/quickstart.exe@.  dune exec \
       examples/bookinfo_anomalies.exe@.  dune exec \
       examples/cyclic_schema_changes.exe@.  dune exec \
       examples/grid_monitor.exe@.  dune exec examples/xml_retailer.exe@."
  in
  Cmd.v (Cmd.info "demo" ~doc:"Where to find the runnable demos")
    Term.(const action $ const ())

let () =
  let info =
    Cmd.info "dyno" ~version:"1.0.0"
      ~doc:
        "Detection and correction of conflicting source updates for view \
         maintenance (ICDE 2004 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; report_cmd; explain_cmd; inspect_cmd; sql_cmd; demo_cmd ]))
