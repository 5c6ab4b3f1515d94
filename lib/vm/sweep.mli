(** The SWEEP compensation algorithm (Agrawal et al., SIGMOD'97), adapted
    to the Dyno framework: maintenance of a delta sweeps outwards from its
    relation, shipping the partial result with each probe; the effects of
    pending unmaintained data updates are removed from each answer locally
    (no locking, no extra round trips).  A probe that fails on a
    concurrent schema change surfaces as [Error (Broken _)] — the in-exec
    detection signal; one that exhausts its transport retry budget as
    [Error (Unreachable _)]. *)

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
  (Relation.t * stats, Query_engine.failure) result
(** [delta_view w sw ~delta ~exclude] computes the view delta for
    [delta] through the compiled sweep [sw] ({!Maint_query.sweep_for}):
    each probe ships its prepared plan, and compensation evaluates the
    same plan over the pending deltas the UMQ sums per delta schema
    ({!Query_engine.pending_sums}).  [exclude] lists message
    ids whose effects must stay in the probe answers: the message being
    maintained (never compensated against itself) plus, in multi-view
    mode, every queued update this view has already applied. *)

type local_input
(** A local sweep captured at dispatch: the compiled sweep, pivot delta,
    auxiliary snapshots and the UMQ's pending-delta sums — everything
    {!compute_local} needs, with no reference back to the engine.  The
    compiled sweep is immutable and no relation inside changes while a
    pool batch computes (nothing is delivered or dequeued), so the value
    may be shipped to a worker domain. *)

val prepare_local :
  Query_engine.t ->
  Maint_query.sweep ->
  delta:Relation.t ->
  exclude:int list ->
  local:local ->
  local_input option
(** Coordinator-only phase of the local sweep: checks that every swept
    alias has current auxiliary data covering its needed attributes and
    captures the inputs.  [None] means the coverage check failed — the
    caller falls back to the probed path. *)

val compute_local : local_input -> (Relation.t * stats) option
(** Pure compute phase: the sweep itself — per-alias local probe answers
    (each probe's local plan over the auxiliary data) and compensation
    (its probe plan over the pending deltas) on the captured snapshot.
    Touches no engine, observability or simulated-clock state, so it is
    safe to evaluate on a worker domain ({!Dyno_sim.Domain_pool}).
    [None] means a local evaluation failed and the probed path must
    decide. *)

val record_local :
  Query_engine.t -> local:local -> local_input -> Relation.t * stats -> unit
(** Coordinator-side bookkeeping for a successful {!compute_local}
    result: the {!Dyno_obs.Span.Local} span, avoided-probe accounting
    callback and lineage note the inline path emits.  The multicore
    scheduler calls this while harvesting worker results; the ambient
    lineage scope must already name the maintained update. *)

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
    auxiliary data or a local evaluation fails.  Equivalent to
    {!prepare_local} + {!compute_local} + {!record_local}. *)
