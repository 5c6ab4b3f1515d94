(** Per-view freshness/staleness tracking against the sources' commit
    frontiers: versions lag (committed-but-unapplied updates) and seconds
    staleness (time since the view was last a faithful image of every
    source; exactly 0 at quiescence).  Records per-view and aggregate
    [staleness_s] / [staleness_versions] histograms at every apply and
    registers sampler probes for staleness-over-time.  Pure bookkeeping —
    never touches the simulated clock, trace or spans. *)

type t

val create :
  metrics:Dyno_obs.Metrics.t ->
  mv:Dyno_view.Mat_view.t ->
  registry:Dyno_source.Registry.t ->
  queued:Dyno_view.Update_msg.t list ->
  unit ->
  t
(** [queued] — messages already admitted to the UMQ at tracker creation:
    their versions count as unapplied; everything older is the initial
    materialization's baseline. *)

val lag_versions : t -> int
(** Committed-but-unapplied updates, summed over sources. *)

val staleness_seconds : t -> now:float -> float
(** Seconds since the view last reflected every source (0 when caught
    up). *)

val note_entry : t -> now:float -> Dyno_view.Update_msg.t list -> unit
(** The view now reflects every message of a maintained queue entry:
    each advances its source's applied frontier.  Re-derives the lag
    before/after at the same [now] and counts any monotonicity violation
    in [freshness.monotonicity_violations] (pinned at 0 by tests).  With
    the registry disabled it only advances the frontiers. *)

val register_probes : t -> Dyno_obs.Timeseries.t -> unit
(** Staleness gauges + per-source commit/applied frontier probes
    ([`Counter]-kinded, so the sampler derives commit/apply rates). *)
