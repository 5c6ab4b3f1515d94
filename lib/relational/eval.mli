(** SPJ query evaluation over signed-multiset relations: a left-deep join
    pipeline with selection push-down, residual predicates and final
    projection.  Evaluation is split in two: {!prepare} plans a query
    against the schemas of its inputs, once; {!execute} runs the plan over
    data, as often as needed, with the [?planner] argument picking the
    physical plan.  {!run} is the two back to back.  Also what each
    simulated source server runs locally to answer maintenance queries. *)

exception Error of string

(** Name-resolution context: aliases bound to relations, with original
    schemas kept (joined schemas may suffix-rename clashing columns, but
    positions are stable). *)
type binding = { alias : string; schema : Schema.t; offset : int }

type binder = {
  bindings : binding list;
  owner : Attr.Qualified.t -> string;
      (** owning alias of an unqualified reference *)
}

val make_binder : Query.t -> (string * Schema.t) list -> binder
(** @raise Error on unknown or ambiguous references. *)

val resolve : binder -> Attr.Qualified.t -> int
(** Absolute position of a reference in the join-product tuple. *)

val resolve_in_alias : binder -> string -> string -> int
(** Position of an attribute within a single bound relation. *)

(** {1 Physical operators} *)

val positional_join :
  ?project:Schema.t * (Tuple.t -> Tuple.t) ->
  Relation.t ->
  Relation.t ->
  (int * int) list ->
  Relation.t
(** Ephemeral hash join on (left position, right position) pairs; the
    smaller side is hashed, the table is discarded afterwards.  Output
    schema is [Schema.concat left right], unless [?project] supplies a
    (schema, transform) pair applied to each output tuple as it is
    emitted — the fused final projection of the query pipeline. *)

val nested_loop_join :
  Relation.t -> Relation.t -> (int * int) list -> Relation.t
(** O(n·m) compare-everything join — the reference plan.  Only matches are
    materialized, never the full product. *)

(** {1 Prepared queries} *)

type plan = [ `Indexed | `Nested_loop ]
(** Physical plan choice.  [`Indexed]: equality-conjunct analysis routes
    equi-joins against base relations through {e persistent} hash indexes
    ({!Relation.ensure_index_pos} — built once, maintained incrementally,
    reused across queries) and turns constant-equality selections into
    index lookups, falling back to ephemeral hash joins between
    intermediates.  [`Nested_loop]: the quadratic reference plan the
    property tests hold the indexed plans to. *)

type prepared
(** A query planned against one schema per FROM entry: bindings, the
    predicate partition, every attribute position, compiled local and
    residual predicates, constant-equality index keys, per-step join keys
    and the output projection.  Immutable, so it may be shared across
    executions. *)

val prepare : Query.t -> (string * Schema.t) list -> prepared
(** [prepare q schemas] plans [q] with [schemas] bound to its aliases.
    @raise Error on binding or resolution failure — the relational-level
    face of a broken query. *)

val execute : ?planner:plan -> prepared -> Relation.t list -> Relation.t
(** [execute p inputs] evaluates [p] over one relation per FROM entry, in
    FROM order.  [planner] defaults to [`Indexed]; it decides only the
    data-dependent choices (which join side to hash, whether an index
    wins).  When an input's schema differs from the one [p] was prepared
    for, the query is re-prepared against the actual schemas first, so
    the result always equals {!run} over the same inputs.  An {e identity}
    query — one FROM entry, no predicate, every column selected in order,
    output names free — is answered by {!Relation.copy_as} of its input:
    the same tuples, the input's registered indexes kept, nothing
    re-hashed.

    The result is owned by the caller: it is never one of [inputs] and
    shares nothing mutable with them, so the caller may mutate it in
    place (compensation subtracts from answers this way).
    @raise Error when re-preparing fails — a broken query.
    @raise Invalid_argument when [inputs] has the wrong length. *)

val output_schema : prepared -> Schema.t
(** The schema {!execute} returns when the input schemas match. *)

(** {1 One-shot evaluation} *)

type catalog = Query.table_ref -> Relation.t
(** Resolves each FROM entry to its extent. *)

val catalog : (string * Relation.t) list -> catalog
(** Catalog backed by an association list keyed by alias.
    @raise Error (at application time) for an unbound alias. *)

val run : ?planner:plan -> catalog:catalog -> Query.t -> Relation.t
(** [run ~catalog q] is {!execute} of {!prepare}[ q] over the relations
    [catalog] binds, asked once per FROM entry.  [planner] defaults to
    [`Indexed].
    @raise Error on binding or resolution failure — the relational-level
    face of a broken query. *)
