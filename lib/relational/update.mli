(** Source data updates (DU): a signed delta against one relation at one
    source, expressed in the relation's schema at commit time. *)

type t

val make : source:string -> rel:string -> Relation.t -> t
val source : t -> string
val rel : t -> string

val delta : t -> Relation.t
(** Signed multiset: insertions positive, deletions negative. *)

val schema : t -> Schema.t
(** The schema the delta was expressed against (needed by Section 5 batch
    preprocessing to re-project across interleaved schema changes). *)

val insert : source:string -> rel:string -> Schema.t -> Value.t list -> t
val delete : source:string -> rel:string -> Schema.t -> Value.t list -> t

val size : t -> int
(** Number of elementary tuple changes (absolute mass). *)

val pp : Format.formatter -> t -> unit
