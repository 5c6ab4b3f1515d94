(** Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing),
    JSONL span/event dump, and a busy/abort/idle/net-wait cost breakdown
    computed from spans alone. *)

val chrome_trace : ?lineage:Lineage.t -> Span.recorder -> string
(** A complete Chrome trace-event JSON document:
    [{"displayTimeUnit": ..., "traceEvents": [...]}] with [ph]/[ts]/[dur]/
    [pid]/[tid] objects — timestamps in µs of simulated time, pid 1, tid 0
    the scheduler and one tid per source (named via [thread_name]
    metadata).  With [lineage], each admitted update adds a Perfetto flow
    ("s"/"t"/"f" events sharing the message id) tracing its journey from
    commit through every dispatch to its terminal state. *)

val spans_jsonl : Span.recorder -> string
(** One JSON object per line per span/event. *)

type phase = {
  kind : Span.kind;
  count : int;
  total : float;  (** summed span duration, simulated s *)
  max : float;
}

type breakdown = {
  horizon : float;  (** last span/event timestamp — the run's end time *)
  busy : float;  (** Σ [Maintain] span durations (= maintenance cost) *)
  abort_cost : float;
      (** Σ of the [abort_s] attribute over aborted [Maintain] spans *)
  idle : float;  (** [horizon − busy]: waiting for source commits *)
  net_wait : float;  (** Σ [Timeout] + [Retry] + [Stall] span durations *)
  phases : phase list;  (** per-kind totals, non-empty kinds only *)
}

val breakdown : Span.recorder -> breakdown
(** The paper's Figure-style cost split, derived exclusively from the
    recorded spans (an independent check of the {!Dyno_core.Stats}
    accounting). *)

val pp_breakdown : Format.formatter -> breakdown -> unit

val openmetrics : Metrics.t -> string
(** The registry in OpenMetrics / Prometheus text exposition: counters
    with the mandated [_total] suffix, gauges, histograms as summaries
    (p50/p90/p99 quantile series + [_sum]/[_count]); terminated by
    [# EOF].  Names are sanitized to [a-zA-Z0-9_:] under a [dyno_]
    prefix ([probe.rtt_s] → [dyno_probe_rtt_s]). *)
