(** The paper's experimental schema (Section 6.1): six 4-attribute
    relations [R1…R6] over three source servers [DS1…DS3], 100k tuples
    each (physical size configurable), and the materialized view joining
    all six one-to-one on the key chain, selecting all 24 attributes. *)

open Dyno_relational

val n_relations : int
val sources : string list

val source_of_rel : int -> string
(** [R1,R2 ↦ DS1], [R3,R4 ↦ DS2], [R5,R6 ↦ DS3]. *)

val rel_name : int -> string
val key_attr : int -> string
val schema_of_rel : int -> Schema.t

val tuple_for : ?salt:int -> int -> int -> Value.t list
(** Deterministic tuple for key [k] in relation [i]; [salt] varies the
    payload so inserted rows differ from loaded ones. *)

val view_query : unit -> Query.t
val view_schemas : unit -> (string * Schema.t) list

val view2_query : unit -> Query.t
(** [V2], the narrower second view of the multi-view runs:
    [R1.K1, R1.B1, R2.B2] over [R1 ⋈ R2], both at [DS1]. *)

val build_sources : rows:int -> Dyno_source.Registry.t
(** Create and load the three source servers. *)

val build_meta : unit -> Dyno_source.Meta_knowledge.t
(** Meta knowledge for the experiments: every non-key attribute is
    dispensable; join keys have no replacement (dropping one leaves the
    view undefined — exercised by dedicated tests, avoided by the
    experiment workloads). *)
