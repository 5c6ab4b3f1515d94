(** Timeline of autonomous source commits.  Sources commit at times of
    their own choosing; whenever the simulated clock advances, every
    commit whose time has passed is applied — implementing Definition 2's
    conflict condition exactly (an update "committed before the query is
    answered" is applied before the answer is computed). *)

open Dyno_relational

type event = Du of Update.t | Sc of Schema_change.t

val event_source : event -> string
val pp_event : Format.formatter -> event -> unit

type entry = { time : float; seq : int; event : event }

type t

val create : unit -> t

val schedule : t -> time:float -> event -> unit
(** Enqueue a commit at an absolute time; ties break by scheduling order. *)

val of_list : (float * event) list -> t
val is_empty : t -> bool
val length : t -> int

val next_time : t -> float option
(** Earliest pending commit time. *)

val pop_until : t -> time:float -> entry list
(** Remove and return, in order, every commit with timestamp ≤ [time]. *)

val peek_all : t -> entry list
