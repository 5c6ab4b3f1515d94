(** Typed atomic values stored in tuples.

    The engine is dynamically checked: every value carries its own tag and
    the schema records the declared {!Vtype.t} of each attribute.  [VNull]
    inhabits every type, mirroring SQL's NULL (with two-valued comparison
    semantics, which is what delta bookkeeping of whole tuples assumes). *)

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VNull

(** Declared type of an attribute. *)
module Vtype : sig
  type t = TInt | TFloat | TString | TBool

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val all : t list
  (** Every declared type (generators, exhaustive tests). *)
end

val type_of : t -> Vtype.t option
(** [Some ty] for a non-null value, [None] for [VNull]. *)

val has_type : t -> Vtype.t -> bool
(** May the value legally be stored in an attribute of the given type?
    [VNull] belongs to every type. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order across all values; distinct types ordered by constructor
    rank so sorting heterogeneous columns is deterministic. *)

val hash : t -> int
(** Allocation-free; equal values (in the sense of {!equal}) hash
    equally. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Convenience constructors. *)

val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t
val null : t

val coerce_to : Vtype.t -> t -> t option
(** Lossless conversion when one exists (int→float, anything→string);
    [None] otherwise.  Null coerces to anything. *)
