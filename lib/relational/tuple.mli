(** Tuples: immutable positional arrays of {!Value.t}.  Meaningful only
    relative to a {!Schema.t}; used as hash-table keys by {!Relation}. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val field : Schema.t -> t -> string -> Value.t
(** Name-based access via the schema. *)

val project : Schema.t -> t -> string list -> t
(** Name-based projection, in the given order. *)

val project_idx : t -> int array -> t
(** Positional projection with precomputed indices (the hot path). *)

val concat : t -> t -> t
(** Juxtaposition (join product). *)

val update_at : t -> int -> Value.t -> t
val drop_at : t -> int -> t
val append : t -> Value.t -> t

(** Hashed-key module for [Hashtbl.Make]. *)
module Key : sig
  type nonrec t = t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Table : Hashtbl.S with type key = t
