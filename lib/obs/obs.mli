(** The observability handle: one {!Span} recorder + one {!Metrics}
    registry + one {!Timeseries} sampler, threaded through the pipeline
    inside {!Dyno_view.Query_engine}.  {!disabled} (the default) is a
    structural no-op. *)

type t = {
  spans : Span.recorder;
  metrics : Metrics.t;
  series : Timeseries.t;
  lineage : Lineage.t;
}

val create :
  ?enabled:bool -> ?sample_interval:float -> ?lineage:bool -> unit -> t
(** [sample_interval] (simulated seconds) turns on the time-series
    sampler; without it the sampler is {!Timeseries.disabled} while spans
    and metrics still record.  [lineage] (default true) turns on
    per-update causal lineage recording. *)

val disabled : t
(** The shared no-op handle (the engine's default). *)

val enabled : t -> bool
val spans : t -> Span.recorder
val metrics : t -> Metrics.t
val series : t -> Timeseries.t
val lineage : t -> Lineage.t
val clear : t -> unit
