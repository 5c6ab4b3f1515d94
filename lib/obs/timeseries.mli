(** Ring-buffered time series sampled on the simulated clock.  The
    scheduler calls {!maybe_sample} once per loop iteration, so samples
    land at scheduler wake-ups — the instants at which the simulated
    world can change — at most once per configured interval.  Sampling is
    pure observation: it never touches the clock, the trace or the spans,
    so an enabled sampler leaves runs byte-identical.  {!disabled} is a
    structural no-op. *)

type kind = [ `Gauge | `Counter ]
(** [`Counter] probes additionally get a derived [<name>.rate] column:
    per-second increase since the previous sample. *)

type sample = { at : float; values : (string * float) list }
(** One snapshot: simulated time plus every probe's value (and derived
    rates), in probe registration order. *)

type t

val create : ?capacity:int -> interval:float -> unit -> t
(** [capacity] (default 4096) bounds retained samples — the ring
    overwrites oldest-first and counts evictions in {!dropped}.
    @raise Invalid_argument if [interval <= 0] or [capacity <= 0]. *)

val disabled : t
(** The shared no-op sampler. *)

val enabled : t -> bool
val interval : t -> float

val probe : t -> ?kind:kind -> string -> (float -> float) -> unit
(** [probe t ?kind name read] registers (or replaces) a probe; [read] is
    called with the sample's simulated time and must be pure w.r.t. the
    simulation (no clock advance, no trace, no mutation). *)

val on_sample : t -> (sample -> unit) -> unit
(** Install a callback fired after every sample (the [--watch] display). *)

val maybe_sample : t -> now:float -> bool
(** Sample iff the interval has elapsed since the last sample was due;
    returns whether a sample was taken. *)

val sample : t -> now:float -> unit
(** Force a sample right now (run start / run end), unless one was
    already taken at exactly this instant. *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val length : t -> int
val dropped : t -> int

val to_jsonl : t -> string
(** One RFC-8259 JSON object per line:
    [{"t": 1.25, "umq.depth": 3.000000, ...}]. *)
