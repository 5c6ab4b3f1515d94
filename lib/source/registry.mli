(** The remote source space: a registry of autonomous data sources that
    can join and leave dynamically (the paper's Section 2).  How the view
    manager's query engine locates the server that must answer a
    maintenance query. *)

type t

exception Unknown_source of string

val create : unit -> t

val register : t -> Data_source.t -> unit
(** Adds a source; replaces any previous source with the same id (a source
    re-joining). *)

val unregister : t -> string -> unit

val find : t -> string -> Data_source.t
(** @raise Unknown_source when absent. *)

val find_opt : t -> string -> Data_source.t option
val mem : t -> string -> bool
val ids : t -> string list
val sources : t -> Data_source.t list

val commit : t -> time:float -> Dyno_sim.Timeline.event -> Data_source.t * int
(** Route a timeline event to its source and commit it there; returns the
    source and its new version. *)
