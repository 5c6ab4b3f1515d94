(** SPJ query evaluation over signed-multiset relations: a left-deep join
    pipeline with selection push-down, residual predicates and final
    projection.  Evaluation is split in two: {!prepare} plans a query
    against the schemas of its inputs, once; {!execute} runs the plan over
    data, as often as needed, with the [?planner] argument picking the
    physical plan.  {!run} is the two back to back.  Also what each
    simulated source server runs locally to answer maintenance queries. *)

exception Error of string

(** {1 Physical operators} *)

val positional_join :
  Relation.t -> Relation.t -> (int * int) list -> Relation.t
(** Ephemeral hash join on (left position, right position) pairs — the
    evaluator's hash-join kernel: the smaller side is hashed, the table
    is discarded afterwards.  Output schema is [Schema.concat left
    right]. *)

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
    and the output projection, fused into the last join step.  A plan
    may be shared across executions; the only thing that changes in it is
    a one-slot memo of the plan re-prepared for other input schemas. *)

val prepare : Query.t -> (string * Schema.t) list -> prepared
(** [prepare q schemas] plans [q] with [schemas] bound to its aliases.
    @raise Error on binding or resolution failure — the relational-level
    face of a broken query. *)

val execute : ?planner:plan -> prepared -> Relation.t list -> Relation.t
(** [execute p inputs] evaluates [p] over one relation per FROM entry, in
    FROM order.  [planner] defaults to [`Indexed]; it decides only the
    data-dependent choices (which join side to hash, whether an index
    wins).  Rows pass between join steps flat; only the output is
    hashed.  When an input's schema differs from the one [p] was prepared
    for, the query is re-prepared against the actual schemas first, so
    the result always equals {!run} over the same inputs; the re-prepared
    plan is kept with [p] ({!restaged}) until inputs with yet other
    schemas come, and a re-prepare that failed raises the same {!Error}
    again without preparing again.  An {e identity}
    query — one FROM entry, no predicate, every column selected in order,
    output names free — is answered by {!Relation.copy_as} of its input:
    the same tuples, the input's registered indexes kept, nothing
    re-hashed.

    The result is owned by the caller: it is never one of [inputs] and
    shares nothing mutable with them, so the caller may mutate it in
    place.
    @raise Error when re-preparing fails — a broken query.
    @raise Invalid_argument when [inputs] has the wrong length. *)

val execute_rows :
  ?planner:plan -> ?copy:bool -> prepared -> Rows.t list -> Rows.t
(** {!execute} over rows, answering rows.  The answer is {e flat} when it
    cannot repeat a tuple — the select list keeps every column of the
    join, and inputs are consolidated — and hashed otherwise; an
    identity query answers a copy of a hashed input ({!Relation.copy_as})
    or a flat input's rows under the output schema.  With [~copy:false]
    (default [true]) an identity query answers a hashed input's rows
    flat too, over its own tuples: for a caller that only streams the
    answer, nothing is copied but two row arrays.  Either way the answer
    is consolidated, so its counts are exact, and it is the caller's own.
    A hashed answer of one input and no filter starts in a table sized
    to that input, which it cannot outgrow, so filling it never
    re-hashes; a join or a filter starts small.
    @raise Error when re-preparing fails — a broken query.
    @raise Invalid_argument when [inputs] has the wrong length. *)

val restaged : prepared -> prepared option
(** The plan {!execute} last re-prepared [p] into for inputs whose
    schemas differ from [p]'s, if that succeeded. *)

val output_schema : prepared -> Schema.t
(** The schema {!execute} returns when the input schemas match. *)

val is_identity : prepared -> bool
(** One FROM entry, no predicate, every column selected in order: the
    answer holds exactly the input's rows. *)

val columns : prepared -> int array option
(** [Some cols] when the query selects columns [cols] of its one FROM
    entry under no predicate: its answer is the input projected onto
    them. *)

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

(** {1 Sum inputs}

    A relation plus a few small signed parts, [base + Σ k·part], kept
    apart instead of consolidated: a source extent with a compensation
    to subtract, or an old state as a new state minus its delta, without
    a copy of the extent.  A tuple may occur in the base and in parts;
    by linearity each join step joins them alike, so the consolidated
    answer is the answer over the consolidated sum. *)

type sum = private { base : Rows.t; parts : (int * Relation.t) list }

val sum : Rows.t -> sum
(** The rows alone, no part. *)

val add_part : sum -> int -> Relation.t -> sum
(** [add_part s k r] is [s + k·r], [r] kept by reference: the caller
    changes neither it nor the base while the sum is in use.
    @raise Relation.Schema_mismatch when [r]'s schema is not [s]'s. *)

val sum_schema : sum -> Schema.t

val execute_sums : ?planner:plan -> prepared -> sum list -> Relation.t
(** {!execute} over one sum per FROM entry: a join step probes a base
    through its maintained index, or hashes it when no index wins, and
    each part through the part's own index.  The answer is hashed, so
    its terms consolidate and cancel; it is the caller's own.  Nothing
    of a base or a part changes, except that a join step may register
    an index on one ({!Relation.ensure_index_pos}).
    @raise Error when re-preparing fails — a broken query.
    @raise Invalid_argument when the list has the wrong length. *)

val run_sums : ?planner:plan -> (Query.table_ref -> sum) -> Query.t -> Relation.t
(** {!execute_sums} of the query prepared against the sums the lookup
    binds to its FROM entries, asked once per entry.
    @raise Error on binding or resolution failure. *)
