(** Tuples: immutable positional arrays of {!Value.t}.  Meaningful only
    relative to a {!Schema.t}; used as hash-table keys by {!Relation}. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val get : t -> int -> Value.t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit

val field : Schema.t -> t -> string -> Value.t
(** Name-based access via the schema. *)

val project_idx : t -> int array -> t
(** Positional projection with precomputed indices (the hot path). *)

val concat : t -> t -> t
(** Juxtaposition (join product). *)

val drop_at : t -> int -> t
val append : t -> Value.t -> t

(** Hashed-key module for [Hashtbl.Make]. *)
module Key : sig
  type nonrec t = t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Tables keyed by tuples that keep each entry's hash.

    The buckets follow [Hashtbl.Make (Key)]'s rules exactly — the same
    power-of-two sizes from [create], insertion at a bucket's head,
    in-place update of a bound key, and an order-keeping bucket split
    when a resize doubles the table — so {!iter} and {!fold} visit the
    entries in the order [Hashtbl.Make (Key)] would.  A resize or a copy
    hashes nothing, and a probe compares a tuple only with entries of
    its own hash.

    Every keyed function takes the key's hash [h], which must be
    [hash key]: a caller hashes a tuple once and may reuse the stored
    hash {!iter_h} hands out.  As with [Hashtbl], no caller may add to a
    table while iterating over it. *)
module Table : sig
  type key = t
  type 'a t

  val create : int -> 'a t
  (** An empty table of at least 16 buckets, a power of two. *)

  val length : 'a t -> int
  (** Number of entries. *)

  val buckets : 'a t -> int
  (** Number of buckets. *)

  val copy : 'a t -> 'a t
  (** Same entries, same order, same hashes; evolves on its own. *)

  val find_or : 'a t -> int -> key -> 'a -> 'a
  (** [find_or t h key default] — [key]'s most recent binding, or
      [default]. *)

  val add : 'a t -> int -> key -> 'a -> unit
  (** A new binding at the head of its bucket, whether or not [key] is
      bound already. *)

  val replace : 'a t -> int -> key -> 'a -> unit
  (** Rebinds [key]'s most recent binding in place, or {!add}s it. *)

  val remove : 'a t -> int -> key -> unit
  (** Unlinks [key]'s most recent binding, if any. *)

  val add_count : int t -> int -> key -> int -> unit
  (** [add_count t h key k] adds [k] (non-zero) to [key]'s count in one
      probe: in place, unlinking the entry at zero, or as a new entry
      when [key] is unbound. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit

  val iter_h : ('e -> key -> int -> 'a -> unit) -> 'e -> 'a t -> unit
  (** [iter_h f env t] calls [f env key h data] on every entry, [h]
      its stored hash, in {!iter}'s order: a closed [f] with its
      environment passed in allocates nothing. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end
