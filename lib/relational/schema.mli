(** Relation schemas: an ordered list of distinctly-named attributes.
    Order matters — tuples are positional — so the schema is the single
    authority for translating attribute names to positions. *)

type t

exception Duplicate_attribute of string
exception No_such_attribute of string

val of_list : Attr.t list -> t
(** @raise Duplicate_attribute on a repeated name. *)

val attrs : t -> Attr.t list
val arity : t -> int
val attr_at : t -> int -> Attr.t
val names : t -> string list
val mem : t -> string -> bool

val index_of : t -> string -> int
(** @raise No_such_attribute when absent. *)

val find : t -> string -> Attr.t
(** @raise No_such_attribute when absent. *)

val find_opt : t -> string -> Attr.t option

val equal : t -> t -> bool
(** Same attributes in the same order. *)

val equivalent : t -> t -> bool
(** Same attributes regardless of order. *)

val pp : Format.formatter -> t -> unit

(** {1 Schema surgery — the primitives schema changes are built from} *)

val project : t -> string list -> t
(** Keep exactly the named attributes, in the given order.
    @raise No_such_attribute when a name is absent. *)

val drop : t -> string -> t
(** @raise No_such_attribute when absent. *)

val add : t -> Attr.t -> t
(** Append. @raise Duplicate_attribute when the name is taken. *)

val rename : t -> old_name:string -> new_name:string -> t
(** @raise No_such_attribute / @raise Duplicate_attribute accordingly. *)

val concat : t -> t -> t
(** Join-product schema; clashing right-hand names get a ["_r"] suffix
    (repeated until fresh). *)

val typecheck : t -> Value.t array -> bool
(** Arity and per-position type membership. *)

val empty : t
