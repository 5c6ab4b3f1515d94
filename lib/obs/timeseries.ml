(** Ring-buffered time series sampled on the simulated clock.

    A sampler owns a set of named {e probes} — pure read-only closures the
    instrumented subsystems register at run start (UMQ depth, scheduler
    in-flight count, per-source commit frontier, view staleness, …) — and
    snapshots all of them at most once per [interval] of simulated time.
    The scheduler drives it: {!maybe_sample} is called once per loop
    iteration, so samples land exactly at scheduler wake-ups.  That is the
    right granularity for a discrete-event simulation — every state change
    (commit, delivery, refresh, abort) happens at a wake-up, so the series
    captures every change point and never invents values for instants at
    which nothing could have changed.

    Probes registered with [`Counter] kind additionally get a derived
    [<name>.rate] column: the per-second increase since the previous
    sample (commits/s, probes/s, aborts-per-window).

    Sampling never touches the simulated clock, the trace or the spans —
    it is pure observation, so an enabled sampler leaves runs
    byte-identical to seed behavior (pinned by the zero-overhead identity
    test).  A {!disabled} sampler is a structural no-op. *)

open Dyno_jsonv

type kind = [ `Gauge | `Counter ]

type probe = {
  pname : string;
  pkind : kind;
  read : float -> float;  (** current value at simulated time [now] *)
  mutable last : float;  (** previous sampled value (rate derivation) *)
}

type sample = { at : float; values : (string * float) list }

type t = {
  on : bool;
  interval : float;
  capacity : int;
  mutable probes : probe list;  (** registration order, reversed *)
  mutable ring : sample array;  (** allocated lazily at first sample *)
  mutable count : int;  (** total samples ever taken *)
  mutable next_due : float;
  mutable last_at : float;  (** time of the previous sample; nan if none *)
  mutable notify : (sample -> unit) option;
}

let create ?(capacity = 4096) ~interval () =
  if interval <= 0.0 then invalid_arg "Timeseries.create: interval <= 0";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity <= 0";
  {
    on = true;
    interval;
    capacity;
    probes = [];
    ring = [||];
    count = 0;
    next_due = 0.0;
    last_at = Float.nan;
    notify = None;
  }

(** The shared no-op sampler. *)
let disabled =
  {
    on = false;
    interval = Float.infinity;
    capacity = 1;
    probes = [];
    ring = [||];
    count = 0;
    next_due = Float.infinity;
    last_at = Float.nan;
    notify = None;
  }

let enabled t = t.on
let interval t = t.interval

(** [probe t ?kind name read] registers (or replaces) a probe.  [read] is
    called with the sample's simulated time and must be pure w.r.t. the
    simulation: no clock advance, no trace, no mutation. *)
let probe t ?(kind = `Gauge) name read =
  if t.on then begin
    let p = { pname = name; pkind = kind; read; last = Float.nan } in
    let others = List.filter (fun q -> q.pname <> name) t.probes in
    t.probes <- p :: others
  end

let on_sample t f = if t.on then t.notify <- Some f

let take t ~now =
  let dt = now -. t.last_at in
  let values =
    List.fold_left
      (fun acc p ->
        let v = p.read now in
        let acc =
          match p.pkind with
          | `Gauge -> acc
          | `Counter ->
              let rate =
                if Float.is_nan p.last || dt <= 0.0 then 0.0
                else (v -. p.last) /. dt
              in
              (p.pname ^ ".rate", rate) :: acc
        in
        p.last <- v;
        (p.pname, v) :: acc)
      []
      (List.rev t.probes)
  in
  let s = { at = now; values = List.rev values } in
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity s
  else t.ring.(t.count mod t.capacity) <- s;
  t.count <- t.count + 1;
  t.last_at <- now;
  (match t.notify with None -> () | Some f -> f s)

(** [sample t ~now] — force a sample right now (run start / end), unless
    one was already taken at exactly this instant. *)
let sample t ~now =
  if t.on && not (t.last_at = now) then begin
    take t ~now;
    t.next_due <- now +. t.interval
  end

(** [maybe_sample t ~now] — sample iff at least [interval] has elapsed
    since the last sample was due; returns whether a sample was taken. *)
let maybe_sample t ~now =
  if t.on && now >= t.next_due && not (t.last_at = now) then begin
    take t ~now;
    t.next_due <- now +. t.interval;
    true
  end
  else false

let length t = min t.count t.capacity

(** Samples evicted by the ring (oldest-overwritten). *)
let dropped t = max 0 (t.count - t.capacity)

(** Retained samples, oldest first. *)
let samples t =
  let n = length t in
  let first = t.count - n in
  List.init n (fun i -> t.ring.((first + i) mod t.capacity))

(* One JSON object per line: {"t": 1.25, "umq.depth": 3.0, ...}.  Keys are
   machine-chosen but escaped anyway; values are finite floats. *)
let jsonl_of_sample s =
  let b = Buffer.create 128 in
  Buffer.add_string b (Fmt.str "{\"t\": %.6f" s.at);
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Fmt.str ", %s: %.6f" (Jsonv.quote k) v))
    s.values;
  Buffer.add_string b "}";
  Buffer.contents b

let to_jsonl t =
  String.concat "\n" (List.map jsonl_of_sample (samples t))
