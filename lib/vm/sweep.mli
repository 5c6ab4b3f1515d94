(** The SWEEP compensation algorithm (Agrawal et al., SIGMOD'97), adapted
    to the Dyno framework: maintenance of a delta sweeps outwards from its
    relation, shipping the partial result with each probe; the effects of
    pending unmaintained data updates are removed from each answer locally
    (no locking, no extra round trips).  A probe that fails on a
    concurrent schema change surfaces as [Error b], the broken query — the
    in-exec detection signal and the sweep's only error. *)

open Dyno_relational
open Dyno_view

type stats = {
  probes : int;  (** maintenance queries sent *)
  compensations : int;  (** probe answers that needed compensation *)
  comp_tuples : int;  (** tuples removed/added by compensation *)
  probes_avoided : int;
      (** probes answered locally from auxiliary views (self-maintenance) *)
  bytes_saved : int;
      (** estimated wire bytes those avoided probes would have shipped *)
}

val no_stats : stats

(** The hooks the self-maintenance tier ({!Dyno_selfmaint.Aux_store})
    hands down: per-alias current auxiliary data plus avoided-probe
    accounting.  A closure record so this library stays free of a
    dependency on the store. *)
type local = {
  aux : string -> Relation.t option;
      (** current auxiliary data for a view alias — [None] when the alias
          is uncovered or its projection is invalidated/stale *)
  note_avoided : probes:int -> bytes:int -> unit;
      (** accounting callback, called once per successful local sweep *)
}

val delta_view :
  ?compensate:bool ->
  Query_engine.t ->
  Maint_query.sweep ->
  delta:Relation.t ->
  exclude:int list ->
  (Relation.t * stats, Dyno_source.Data_source.broken) result
(** [delta_view w sw ~delta ~exclude] computes the view delta for
    [delta] through the compiled sweep [sw] ({!Maint_query.sweep_for}):
    each probe ships its prepared plan, and compensation evaluates the
    same plan over the pending deltas the UMQ sums per delta schema
    ({!Query_engine.pending_sums}).  [exclude] lists message
    ids whose effects must stay in the probe answers: the message being
    maintained (never compensated against itself) plus, in multi-view
    mode, every queued update this view has already applied.  A probe
    whose source is unreachable waits inside the query engine and is
    asked again, so the sweep keeps the answers it already has: a fetched
    answer stays what it was, and compensation covers every commit that
    lands between two answers. *)

val delta_view_local :
  Query_engine.t ->
  Maint_query.sweep ->
  delta:Relation.t ->
  exclude:int list ->
  local:local ->
  (Relation.t * stats) option
(** The self-maintenance path: the same sweep as {!delta_view}, with
    every probe answered locally by evaluating over the auxiliary
    projection of the probed alias — zero round trips, recorded under a
    {!Dyno_obs.Span.Local} span and not charged on the simulated clock.
    Compensation subtracts {e all} pending unmaintained updates (no
    answer-time cutoff: valid auxiliary data reflects every delivered
    commit, which is exactly a probe answer after compensation, so the
    computed view delta is identical).  Returns [None] — caller falls
    back to the probed path — when any swept alias lacks current covering
    auxiliary data or a local evaluation fails. *)
