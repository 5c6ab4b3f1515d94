(** Maintenance of schema changes and merged update batches (Section 5):
    preprocess (combine schema changes, re-project and merge interleaved
    data updates), synchronize once for the combined changes, then adapt —
    incrementally via Equation 6 when the rewriting preserved the view's
    output shape, otherwise by compensated re-materialization.  A single
    schema change is maintained as a singleton batch. *)

open Dyno_relational
open Dyno_view

type outcome =
  | Adapted  (** view definition + extent updated and committed *)
  | Aborted of Dyno_source.Data_source.broken
      (** an adaptation query broke (type (4) anomaly); the in-memory view
          definition and meta-knowledge re-keying have been rolled back *)
  | View_undefined of string
      (** synchronization found no rewriting; the view is invalid *)

type prep = {
  scs : Schema_change.t list;  (** all schema changes, in commit order *)
  du_deltas : (string * string * Relation.t) list;
      (** (source, relation name {e after} all changes, merged delta
          re-projected into the final schema) *)
  dropped_du_tuples : int;
      (** data-update tuples discarded because their relation was dropped *)
}

val preprocess : Update_msg.t list -> prep
(** The per-source, per-relation combination step: data updates are
    carried forward through each subsequent schema change on their
    relation ("insert (3,4)", "drop first attribute", "insert (5)" →
    "insert (4),(5)"). *)

val same_shape :
  old_query:Query.t ->
  old_schemas:(string * Schema.t) list ->
  new_query:Query.t ->
  new_schemas:(string * Schema.t) list ->
  bool
(** Is the rewritten view delta-compatible with the old extent?  True for
    pure renames and pure data batches; false once an attribute left the
    select list or a relation was replaced. *)

val maintain :
  ?applied:int list ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Update_msg.t list ->
  outcome
(** The full maintenance process for a batch:
    [r(VD) w(VD) r(DS₁) … r(DSₙ) w(MV) c(MV)].  [applied] lists queued
    message ids this view has already integrated (multi-view mode), kept
    out of compensation. *)
