(** View Adaptation (VA): bringing the materialized extent in line with a
    (possibly rewritten) view definition — the incremental Equation 6 of
    Section 5, compensated source re-reads, and shape-changing
    re-materialization.  All source access goes through the query engine,
    so concurrent schema changes can break adaptation too (the type (4)
    anomaly, whose abort is the expensive one in Figure 9).  An
    adaptation reads the sources' own extents, pinned while it runs
    ({!Query_engine.fetch}), and never copies, diffs or subtracts into
    one: compensated and old states are sums ({!Eval.sum}). *)

open Dyno_relational
open Dyno_view

val equation6 :
  ?planner:Eval.plan ->
  deltas:(string * Relation.t) list ->
  old_env:(string * Eval.sum) list ->
  new_env:(string * Eval.sum) list ->
  Query.t ->
  Relation.t
(** [ΔV = ΔR₁ ⋈ R₂ ⋈ … ⋈ Rₙ + R₁ⁿᵉʷ ⋈ ΔR₂ ⋈ … + … +
    R₁ⁿᵉʷ ⋈ … ⋈ ΔRₙ] over signed multisets; equals
    [eval query new_env − eval query old_env] when [deltas] lists each
    changed alias's [ΔRᵢ = new − old] (unlisted aliases are unchanged).
    Aliases whose delta is empty contribute no term; each term is
    evaluated delta first, the other aliases in SWEEP order
    ({!Dyno_vm.Maint_query.sweep_order}), over the states as given.
    [planner] (default [`Indexed]) picks the physical plan each term is
    evaluated with. *)

type fetch = { table : Query.table_ref; query : Query.t }
(** One view relation and its adaptation probe
    ({!Dyno_vm.Maint_query.fetch_query}). *)

val fetches : Query.t -> (string * Schema.t) list -> fetch list
(** Every view relation's fetch, in FROM order, under the believed alias
    schemas: built once per adaptation, for its fetches, its delta
    projections and its validation waves. *)

type held
(** The relations one adaptation fetched. *)

val holding : Query_engine.t -> (held -> 'a) -> 'a
(** [holding w f] runs [f] with a fresh {!held}; when [f] returns or
    raises, every relation fetched through it is released at its source
    ({!Query_engine.unpin}). *)

val fetch_compensated :
  Query_engine.t ->
  held ->
  fetch ->
  exclude:int list ->
  (Eval.sum, Dyno_source.Data_source.broken) result
(** Read one table's current (filtered, projected) extent through its
    fetch, compensating away every pending unmaintained DU on it except
    the ids in [exclude] (being maintained right now, whose effects must
    stay in).  The state is the answer — for an identity fetch the
    source's own extent, pinned until [held] is released — with one
    negative part per pending group.  Compensation reads the queue's
    pending sums at the answer's commit frontier, before the per-tuple
    adaptation charge moves the clock; a compensation failure is
    returned after the charge. *)

val replace_extent :
  Query_engine.t ->
  Mat_view.t ->
  maintained:int list ->
  exclude:int list ->
  (unit, Dyno_source.Data_source.broken) result
(** Rebuild the extent from compensated reads against the current
    (rewritten) definition — the shape-changing path, charged with the
    full extent rebuild. *)

val refresh_with_equation6 :
  Query_engine.t ->
  Mat_view.t ->
  maintained:int list ->
  batch_deltas:(string * Relation.t) list ->
  exclude:int list ->
  (unit, Dyno_source.Data_source.broken) result
(** Adapt incrementally: fetch compensated new states, take each old
    state as its new state minus the batch's own delta, run
    {!equation6}, and refresh in place.  Only valid when the rewriting
    preserved the view's output schema. *)
