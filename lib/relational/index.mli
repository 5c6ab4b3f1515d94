(** Secondary hash indexes over signed multisets: key (a projection onto
    fixed column positions) -> bucket of (tuple, signed multiplicity).
    Buckets are compact association lists (small in practice), so a probe
    streams a few cons cells; maintenance is O(bucket) per multiplicity
    change, and a large extent is scanned once at build time and probed
    thereafter.

    Indexes are position-based: attribute renames never invalidate them.
    {!Relation.ensure_index} builds and registers one against a relation's
    own storage; it is then kept fresh by every [Relation.add]. *)

type t

val create : int array -> t
(** Empty index keyed on the given column positions. *)

val copy : t -> t
(** An index with the same entries that evolves independently of the
    original: the bucket table is copied, the immutable buckets are
    shared. *)

val positions : t -> int array
val same_key : t -> int array -> bool
(** Does the index key exactly these columns, in this order? *)

val key_of : t -> Tuple.t -> Tuple.t
(** Project a tuple onto the index's key columns. *)

val update : t -> Tuple.t -> int -> unit
(** Adjust a tuple's indexed multiplicity by a signed delta; entries and
    buckets reaching zero are dropped (mirror of [Relation.add]). *)

val iter_matches : t -> Tuple.t -> (Tuple.t -> int -> unit) -> unit
(** Stream every (tuple, multiplicity) under a key — O(bucket), the probe
    side of an indexed join. *)

val lookup : t -> Tuple.t -> (Tuple.t * int) list
(** Snapshot of the bucket under a key (unspecified order). *)

val key_count : t -> int
(** Distinct keys indexed. *)

val support : t -> int
(** Distinct tuples across all buckets. *)

val pp : Format.formatter -> t -> unit
