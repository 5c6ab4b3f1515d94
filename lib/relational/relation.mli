(** Relations as {e signed multisets} of tuples, carrying their schema.

    Multiplicities may be negative: a relation with mixed signs is a
    {e delta} (insertions positive, deletions negative) — the uniform
    representation of incremental view maintenance.  Every operator is
    linear in that representation, which is what SWEEP compensation and
    Equation 6 rely on. *)

type t

exception Schema_mismatch of string

val create : Schema.t -> t
(** An empty relation, its table sized for a small partial result. *)

val schema : t -> Schema.t

val support : t -> int
(** Number of distinct tuples. *)

val cardinality : t -> int
(** Sum of multiplicities (can be negative for deltas). *)

val mass : t -> int
(** Sum of absolute multiplicities. *)

val is_empty : t -> bool
val count : t -> Tuple.t -> int
val mem : t -> Tuple.t -> bool

val add : t -> Tuple.t -> int -> unit
(** Adjust a tuple's multiplicity; entries reaching zero are dropped.
    @raise Schema_mismatch when the tuple does not typecheck. *)

val add_unchecked : t -> Tuple.t -> int -> unit
(** {!add} minus the per-tuple schema typecheck — for evaluator hot loops
    whose output tuples are type-correct by construction (projections and
    concatenations of tuples already in a relation).  Never feed it
    external input. *)

val insert : t -> Tuple.t -> unit
val delete : t -> Tuple.t -> unit

val of_list : Schema.t -> Value.t list list -> t
val of_counted : Schema.t -> (Value.t list * int) list -> t

(** {1 Traversal}

    [iter]/[fold] are O(n) allocation-free streams over the live storage in
    unspecified order — the accessors every hot path should use.
    [to_counted]/[to_list] are O(n log n) {e sorted snapshots} that allocate
    a fresh assoc list; keep them for tests, printing and serialization,
    where deterministic order matters more than speed. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** O(n) stream, unspecified order, no allocation. *)

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** O(n) stream, unspecified order. *)

val to_counted : t -> (Tuple.t * int) list
(** O(n log n) snapshot, sorted by tuple order — tests/printing only. *)

val to_list : t -> Tuple.t list
(** O(n log n) snapshot of the positive part, duplicates expanded —
    tests/printing only. *)

val copy : t -> t
(** A copy that shares the original's (immutable) tuples and nothing
    mutable: the table is copied without re-hashing, and every registered
    index is copied too ({!Index.copy}), so the copy answers the same
    index probes at once and its own {!add}s keep them maintained.  Later
    changes to either side never show in the other. *)

val copy_as : Schema.t -> t -> t
(** {!copy} under another schema with the same arity and the same type at
    every position (the names may differ): what an identity projection
    returns.
    @raise Schema_mismatch when the schemas are not positionally equal. *)

(** {1 Secondary indexes}

    Hash indexes registered against this relation's storage and maintained
    incrementally by {!add} (O(1) per multiplicity change).  See
    {!Index}. *)

val ensure_index : t -> string list -> Index.t
(** Index keyed on the named attributes (resolved against the current
    schema): returns the registered one or builds it with one O(n) scan. *)

val ensure_index_pos : t -> int array -> Index.t
(** As {!ensure_index}, with the key given as column positions. *)

val find_index_pos : t -> int array -> Index.t option
(** The registered index keyed on exactly these positions, if one has
    already been built — {!ensure_index_pos} without the build side
    effect (planner's "is there a maintained index?" question). *)

val index_count : t -> int
(** Number of registered indexes (introspection/tests). *)

val equal : t -> t -> bool
(** Same schema and identical multiplicity for every tuple. *)

val equal_contents : t -> t -> bool
(** Equality up to attribute names (positional contents only). *)

val pp : Format.formatter -> t -> unit

(** {1 Algebra (all linear over signed multisets)} *)

val select : (Tuple.t -> bool) -> t -> t

val map_tuples : Schema.t -> (Tuple.t -> Tuple.t) -> t -> t
(** Transform tuples, re-aggregating multiplicities under the image. *)

val project : t -> string list -> t
val rename_attr : t -> old_name:string -> new_name:string -> t

val sum : t -> t -> t
(** Multiset union with signed multiplicities.
    @raise Schema_mismatch on schema disagreement. *)

val sum_in_place : ?scale:int -> t -> t -> unit
(** [sum_in_place acc d] makes [acc] equal to [sum acc d] by mutating it:
    O(|d|), registered indexes maintained incrementally.  [scale]
    (default 1) multiplies [d]'s counts first, so [~scale:(-1)]
    subtracts.  Unlike {!apply_delta_in_place} counts may go negative:
    this is the accumulator of owned folds (batch merges, Equation 6
    terms, the UMQ's pending-delta sums).  [d] must not be [acc].
    @raise Schema_mismatch on schema disagreement ([acc] unchanged). *)

val negate : t -> t
val diff : t -> t -> t
(** [diff a b = sum a (negate b)]: a {!copy} of [a] (indexes included)
    with [b] subtracted in place. *)

val positive : t -> t
(** The insertions of a delta. *)

val negative : t -> t
(** The deletions of a delta, with positive counts. *)

val product : t -> t -> t
(** Cartesian product; multiplicities multiply. *)

val equijoin : t -> t -> (string * string) list -> t
(** Hash equi-join on (left attr, right attr) pairs; output schema is
    [Schema.concat]; multiplicities multiply. *)

val distinct : t -> t
(** Positive support with multiplicity 1. *)

val scale : int -> t -> t

val is_subset : t -> t -> bool
(** Every positive tuple occurs in the second argument with at least the
    same multiplicity. *)

val has_negative : t -> bool

val apply_delta : t -> t -> t
(** [apply_delta base delta = sum base delta], checking the result is a
    proper (non-negative) multiset.
    @raise Invalid_argument on negative residue — the tripwire that turns
    a maintenance bug into a loud failure. *)

val apply_delta_in_place : t -> t -> unit
(** Same contract as {!apply_delta}, but mutates the base in place:
    O(|delta|) instead of O(|base|), and registered indexes stay alive and
    are maintained incrementally.  The non-negativity precheck runs before
    any mutation, so a rejected delta leaves the base untouched.
    @raise Invalid_argument on negative residue (base unchanged). *)
