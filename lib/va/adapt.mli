(** View Adaptation (VA): bringing the materialized extent in line with a
    (possibly rewritten) view definition — the incremental Equation 6 of
    Section 5, compensated source re-reads, and shape-changing
    re-materialization.  All source access goes through the query engine,
    so concurrent schema changes can break adaptation too (the type (4)
    anomaly, whose abort is the expensive one in Figure 9). *)

open Dyno_relational
open Dyno_view

val equation6 :
  ?planner:Eval.plan ->
  ?deltas:(string * Relation.t) list ->
  old_env:(string * Relation.t) list ->
  new_env:(string * Relation.t) list ->
  Query.t ->
  Relation.t
(** [ΔV = ΔR₁ ⋈ R₂ ⋈ … ⋈ Rₙ + R₁ⁿᵉʷ ⋈ ΔR₂ ⋈ … + … +
    R₁ⁿᵉʷ ⋈ … ⋈ ΔRₙ] over signed multisets; equals
    [eval query new_env − eval query old_env].  [deltas] supplies each
    changed alias's [ΔRᵢ = new − old] when the caller already holds it
    (unlisted aliases are unchanged); without it the deltas are derived
    from the two environments.  Aliases whose delta is empty contribute
    no term; each term is evaluated delta first, the other aliases in
    SWEEP order ({!Dyno_vm.Maint_query.sweep_order}).  [planner] (default
    [`Indexed]) picks the physical plan each term is evaluated with. *)

val fetch_compensated :
  Query_engine.t ->
  query:Query.t ->
  schemas:(string * Schema.t) list ->
  Query.table_ref ->
  exclude:int list ->
  (Relation.t, Query_engine.failure) result
(** Read one table's current (filtered, projected) extent through a
    maintenance query, compensating away every pending unmaintained DU on
    it except the ids in [exclude] (being maintained right now, whose
    effects must stay in).  Compensation reads the queue's pending sums at
    the answer's commit frontier, before the per-tuple adaptation charge
    moves the clock; a compensation failure is returned after the
    charge. *)

val fetch_all :
  Query_engine.t ->
  query:Query.t ->
  schemas:(string * Schema.t) list ->
  exclude:int list ->
  ((string * Relation.t) list, Query_engine.failure) result
(** Fetch every view relation, compensated; stops at the first broken
    probe. *)

val validated_tail :
  Query_engine.t ->
  query:Query.t ->
  schemas:(string * Schema.t) list ->
  tail_cost:float ->
  (unit, Query_engine.failure) result
(** The back half of an adaptation: the remaining local work interleaved
    with metadata validation probes to every source, so a schema change
    landing anywhere in the maintenance window is detected before w(MV). *)

val replace_extent :
  Query_engine.t ->
  Mat_view.t ->
  maintained:int list ->
  exclude:int list ->
  (unit, Query_engine.failure) result
(** Rebuild the extent from compensated reads against the current
    (rewritten) definition — the shape-changing path, charged with the
    full extent rebuild. *)

val refresh_with_equation6 :
  Query_engine.t ->
  Mat_view.t ->
  maintained:int list ->
  batch_deltas:(string * Relation.t) list ->
  exclude:int list ->
  (unit, Query_engine.failure) result
(** Adapt incrementally: fetch compensated new states, reconstruct old
    states by subtracting the batch's own deltas, run {!equation6}, and
    refresh in place.  Only valid when the rewriting preserved the view's
    output schema. *)
