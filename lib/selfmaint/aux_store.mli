(** The auxiliary-view store: materialized probe-column projections kept
    current at the view manager from the delivered update stream, so most
    data updates are maintained locally with zero probe round trips.

    A valid projection holds [π_attrs (R₀ + Σ delivered DUs)] — the
    relation at the source's {e delivered frontier} — which is exactly
    the state a SWEEP probe observes after compensation; the local path
    in {!Dyno_vm.Sweep.delta_view_local} therefore computes the identical
    view delta.  A schema change invalidates every projection of its
    source on admission; the projections stay invalid while any SC of the
    source remains queued and are re-derived (from the rewritten view
    definition) and re-seeded at the frontier by {!sync} once it clears. *)

open Dyno_view

type t

val create :
  obs:Dyno_obs.Obs.t ->
  lookup:
    (source:string ->
    rel:string ->
    version:int ->
    Dyno_relational.Relation.t option) ->
  frontier:(string -> int) ->
  refresh_cost:(delta_tuples:int -> float) ->
  Mat_view.t ->
  t
(** [create ~obs ~lookup ~frontier ~refresh_cost mv] derives the view's
    projections ({!Aux_plan.derive}) and seeds each, now and at every
    re-seed, from [lookup ~source ~rel ~version] at the per-source
    delivered frontier ([frontier source] — the highest already-admitted
    source version, 0 for none).  [lookup] must return the {e exact}
    historical relation at that version (not the live state, which may
    contain committed but undelivered updates); returning [None] leaves
    the projection invalid and maintenance on the probed path.
    [refresh_cost] prices an incremental refresh for the
    [selfmaint.aux_refresh_s] metric — the refreshes ride delivered
    updates and are never charged on the clock. *)

val on_message : t -> Update_msg.t -> unit
(** The admit hook ({!Query_engine.add_admit_hook}): a DU's delta
    refreshes the matching valid projections in place, an SC invalidates
    every projection of its source. *)

val sync : t -> Mat_view.t -> sc_queued:(string -> bool) -> unit
(** Re-derive (from the current, possibly rewritten, view definition) and
    re-seed the projections of every invalidated source for which
    [sc_queued source] is false.  Sources with a schema change still
    queued stay invalid — an eager re-seed could answer locally where the
    baseline would probe into the conflict and abort.  Cheap no-op when
    nothing is invalid; call it once per scheduler iteration. *)

val aux : t -> string -> Dyno_relational.Relation.t option
(** Current auxiliary data for a view alias, [None] if uncovered or
    invalidated. *)

val local : t -> Dyno_vm.Sweep.local
(** The closure pair the maintenance layer consumes: {!aux} plus the
    avoided-probe metrics ([selfmaint.probes_avoided] and
    [selfmaint.bytes_saved]; the run's [Stats] counts both too). *)

val invalidations : t -> int
(** Projections invalidated by schema changes since creation. *)

val coverage : t -> float
(** Fraction of derived projections currently valid, in [0, 1] (0 when
    the view derives none). *)
