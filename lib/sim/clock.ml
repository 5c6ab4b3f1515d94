(** Simulated wall clock, in seconds.

    All costs in the system (query latency, maintenance work, abort cost)
    are expressed as advances of this clock, replacing the wall-clock
    measurements of the paper's Oracle8i testbed with deterministic
    simulated time. *)

type t = { mutable now : float }

let create ?(start = 0.0) () = { now = start }

let now c = c.now
let reached c t = t <= c.now +. 1e-12

(** [advance c dt] moves time forward by [dt] seconds.
    @raise Invalid_argument on negative [dt]. *)
let advance c dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative duration";
  c.now <- c.now +. dt

(** [advance_to c t] moves time forward to absolute time [t]; moving
    backwards is a programming error. *)
let advance_to c t =
  if t < c.now -. 1e-9 then
    invalid_arg
      (Fmt.str "Clock.advance_to: %.6f is before current time %.6f" t c.now);
  if t > c.now then c.now <- t
