(** Update messages: what the wrappers deliver into the UMQ.  Each wraps
    one autonomous source commit together with the commit time and the
    source version it produced; the id (assigned at enqueue) identifies
    the corresponding maintenance process in the dependency graph. *)

open Dyno_relational

type payload = Dyno_sim.Timeline.event =
  | Du of Update.t
  | Sc of Schema_change.t
(** A source commit, as the timeline schedules it. *)

type t

val make : id:int -> commit_time:float -> source_version:int -> payload -> t

val id : t -> int
val commit_time : t -> float
val source_version : t -> int
(** Source version right after the commit — also the per-source monotone
    sequence number the transport dedups and reorders on. *)

val payload : t -> payload
val source : t -> string

val rel : t -> string
(** Relation targeted, under its name at commit time. *)

val is_sc : t -> bool
val is_du : t -> bool
val as_du : t -> Update.t option
val as_sc : t -> Schema_change.t option

val pp : Format.formatter -> t -> unit
