(** Simulated wall clock, in seconds.  All costs in the system (query
    latency, maintenance work, abort cost) are expressed as advances of
    this clock. *)

type t

val create : ?start:float -> unit -> t
val now : t -> float

val reached : t -> float -> bool
(** [reached c t]: instant [t] is at or before now, within the 1e-12 s
    every "due by now" test allows.  Unlike comparing with {!now}, it
    allocates nothing. *)

val advance : t -> float -> unit
(** @raise Invalid_argument on a negative duration. *)

val advance_to : t -> float -> unit
(** Move to an absolute time; @raise Invalid_argument when moving
    backwards. *)
