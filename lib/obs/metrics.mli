(** A registry of named counters, gauges and log-bucketed latency
    histograms with p50/p90/p99 readout.  A disabled registry is a
    structural no-op.  Naming scheme (documented in DESIGN.md §11):
    [subsystem.quantity] with a [_s] suffix for durations in simulated
    seconds — e.g. [probe.rtt_s], [net.retries], [umq.hold_s].  Once a
    name is registered, updating it allocates nothing. *)

type t

val create : ?enabled:bool -> unit -> t

val disabled : t
(** A shared no-op registry. *)

val enabled : t -> bool

val incr : t -> ?by:int -> string -> unit
(** Increment a counter (get-or-create). *)

val set_counter : t -> string -> int -> unit
val set_gauge : t -> string -> float -> unit

val add_gauge : t -> string -> float -> unit
(** Accumulate into a gauge (get-or-create) — for float-valued totals
    such as [net.overlap_saved_s]. *)

val observe : t -> string -> float -> unit
(** Record one duration (seconds) into a histogram (get-or-create). *)

val counter_value : t -> string -> int
(** 0 when absent. *)

val gauge_value : t -> string -> float

val quantile : t -> string -> float -> float
(** [quantile t name q] for [q] in [0,1]: the upper bound of the log₂
    bucket holding that rank, clamped to the observed max (0 when the
    histogram is absent or empty). *)

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val histogram_summary : t -> string -> histogram_summary option

val kind_of : t -> string -> [ `Counter | `Gauge | `Histogram ] option
(** What (if anything) is registered under a name. *)

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

and histogram

val fold : t -> ('a -> string -> metric -> 'a) -> 'a -> 'a
(** Every metric, in registration order; a gauge as a fresh [float ref]
    holding its current value. *)

val names : t -> string list

val to_json_string : t -> string
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val pp : Format.formatter -> t -> unit
