(** A query answer's rows: a consolidated signed multiset, either hashed
    or flat.

    No tuple repeats and no count is zero in either form, so every count
    read here ({!support}, {!mass}, {!is_empty}) is the consolidated
    relation's count.  A [Flat] value is immutable: it may be shared. *)

type t = private
  | Hashed of Relation.t
      (** a relation: a base extent with its registered indexes, or an
          answer consolidated by hashing *)
  | Flat of {
      schema : Schema.t;
      tuples : Tuple.t array;
      counts : int array;
      len : int;  (** rows in use: the first [len] slots of both arrays *)
    }  (** the same content in production order, never hashed *)
  | Projected of { rel : Relation.t; cols : int array; schema : Schema.t }
      (** [rel]'s rows projected onto its columns [cols], under [schema]:
          a projection that merges no two of [rel]'s tuples, so the rows
          are consolidated as they stand; read in place, never copied *)

val of_relation : Relation.t -> t
(** The relation itself, not a copy. *)

val flat : Schema.t -> Tuple.t array -> int array -> int -> t
(** [flat schema tuples counts len] — the first [len] rows of the two
    arrays, which the caller no longer mutates.  The caller guarantees
    that no tuple repeats and no count is zero. *)

val projected : Relation.t -> int array -> Schema.t -> t
(** [projected rel cols schema] — [rel]'s rows projected onto [cols],
    read in place.  The caller guarantees that the projection merges no
    two tuples of [rel] ({!Relation.injective_on}) and that [rel] does
    not change while the rows are in use. *)

val schema : t -> Schema.t

val support : t -> int
(** Number of distinct tuples: the number of rows. *)

val mass : t -> int
(** Sum of absolute counts. *)

val is_empty : t -> bool

val iter : (Tuple.t -> int -> unit) -> t -> unit

val relation : t -> Relation.t
(** The rows as a hashed relation: a [Hashed] value's relation itself,
    or flat or projected rows hashed now into a relation only the caller
    holds. *)

val subtract : t -> t -> t
(** [subtract a b] is [a − b], consolidated (hashed).  When [a] is
    [Hashed] its relation is updated in place, so [a] must be the
    caller's own — an evaluator answer, never a base extent.
    @raise Relation.Schema_mismatch when the schemas differ. *)
