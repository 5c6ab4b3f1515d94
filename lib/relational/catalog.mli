(** A source-local catalog: relation name → schema, with schema-change
    application.  One catalog lives inside every simulated data source;
    the view manager keeps {e stale copies} — that staleness is precisely
    what produces broken queries. *)

type t

exception No_such_relation of string
exception Relation_exists of string

val create : unit -> t
val copy : t -> t

val relations : t -> string list
val mem : t -> string -> bool

val schema_of : t -> string -> Schema.t
(** @raise No_such_relation when absent. *)

val schema_of_opt : t -> string -> Schema.t option

val add_relation : t -> string -> Schema.t -> unit
(** @raise Relation_exists when taken. *)

val drop_relation : t -> string -> unit

val apply : t -> Schema_change.t -> unit
(** Mutate the catalog per one schema change.
    @raise No_such_relation / Relation_exists / schema exceptions when the
    change does not apply. *)

val validates : t -> Schema_change.t -> bool
(** Would [apply] succeed?  (Non-mutating.) *)
