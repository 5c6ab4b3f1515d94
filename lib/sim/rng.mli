(** Deterministic random number generation for workloads: explicit
    seeding and splitting so experiments are exactly reproducible. *)

type t

val make : int -> t

val split : t -> t
(** Derive an independent generator; the parent advances. *)

val int : t -> int -> int
val int_in : t -> int -> int -> int
(** Uniform in an inclusive range. *)

val float : t -> float -> float
val bool : t -> bool

val bernoulli : t -> float -> bool
(** True with probability [p]; consumes no draw when [p <= 0] or
    [p >= 1]. *)

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on an empty list. *)

val pick_weighted : t -> (float * 'a) list -> 'a
val shuffle : t -> 'a list -> 'a list
val ident : t -> int -> string
