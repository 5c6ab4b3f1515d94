(** The observability handle threaded through the maintenance pipeline:
    one span recorder, one metrics registry, one time-series sampler.

    The handle rides inside {!Dyno_view.Query_engine} (like the event
    {!Dyno_sim.Trace}), so every subsystem that already receives the
    engine — schedulers, SWEEP, VS/VA, the Equation 6 batch path, the
    transport channel — can record spans, observe metrics and register
    sampler probes without new plumbing.  The default is {!disabled}: a
    structural no-op whose calls never touch the simulated clock, so
    obs-off runs are bit-identical to a build without observability. *)

type t = {
  spans : Span.recorder;
  metrics : Metrics.t;
  series : Timeseries.t;
  lineage : Lineage.t;
}

(** [create ?enabled ?sample_interval ?lineage ()] — [sample_interval]
    (simulated seconds) turns on the time-series sampler; without it the
    sampler is the no-op {!Timeseries.disabled} (spans and metrics still
    record).  [lineage] (default true) turns on per-update causal
    lineage; pass [~lineage:false] for an obs-on/lineage-off run. *)
let create ?(enabled = true) ?sample_interval ?(lineage = true) () =
  let metrics = Metrics.create ~enabled () in
  {
    spans = Span.create ~enabled ();
    metrics;
    series =
      (match sample_interval with
      | Some interval when enabled -> Timeseries.create ~interval ()
      | _ -> Timeseries.disabled);
    lineage =
      (if enabled && lineage then Lineage.create ~metrics ()
       else Lineage.disabled);
  }

(** The shared no-op handle (the engine's default). *)
let disabled =
  { spans = Span.disabled; metrics = Metrics.disabled;
    series = Timeseries.disabled; lineage = Lineage.disabled }

let enabled t = Span.enabled t.spans
let spans t = t.spans
let metrics t = t.metrics
let series t = t.series
let lineage t = t.lineage

let clear t =
  Span.clear t.spans;
  Metrics.clear t.metrics;
  Timeseries.clear t.series;
  Lineage.clear t.lineage
