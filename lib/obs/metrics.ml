(** A registry of named counters, gauges and log-bucketed latency
    histograms.

    Subsumes the ad-hoc transport counters of {!Dyno_core.Stats}: at the
    end of a run the scheduler mirrors every aggregate counter here, and
    the pipeline feeds per-phase duration histograms (probe RTT, detection
    pass, correction pass, batch adaptation, UMQ hold time) live.

    Histograms bucket on a log₂ scale from 1 µs up (64 buckets ≅ 5×10⁸ s),
    so a quantile readout costs one pass over a small fixed array and the
    registry never allocates per observation.  Quantiles (p50/p90/p99) are
    reported as the upper bound of the bucket holding that rank —
    conservative to within a factor of 2, which is the usual trade of
    log-bucketed histograms (HdrHistogram-style).

    Names are looked up in a table specialised to strings, and a counter,
    a gauge or a histogram keeps its figures unboxed: once a name is
    registered, {!incr}, {!observe} and the gauge setters allocate
    nothing.  {!fold} hands out a gauge as a fresh [float ref] holding
    its value.

    A disabled registry is a structural no-op. *)

open Dyno_jsonv

let n_buckets = 64
let base = 1e-6 (* bucket 0 upper bound: 1 µs *)

(* Upper bound of bucket [i]: base × 2^i (float exponentiation: bucket 63
   must not overflow the native int). *)
let bucket_bound i = base *. (2.0 ** float_of_int i)

let bucket_of v =
  if v <= base then 0
  else
    let i = 1 + int_of_float (Float.log2 (v /. base)) in
    if i >= n_buckets then n_buckets - 1 else i

(* Float-only records are stored flat, so their fields update in place
   without boxing. *)
type moments = {
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type histogram = {
  hname : string;
  buckets : int array;
  mutable n : int;
  m : moments;
}

type gauge = { mutable g : float }

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

(* What the registry holds: a {!metric} whose gauge is unboxed. *)
type entry = C of int ref | G of gauge | H of histogram

module Names = Hashtbl.Make (String)

type t = {
  on : bool;
  tbl : entry Names.t;
  mutable order : (string * entry) list;  (** registration order, reversed *)
}

let create ?(enabled = true) () =
  { on = enabled; tbl = Names.create (if enabled then 32 else 1); order = [] }

(** A shared no-op registry. *)
let disabled = create ~enabled:false ()

let enabled t = t.on

let register t name e =
  Names.add t.tbl name e;
  t.order <- (name, e) :: t.order

let find t name = Names.find_opt t.tbl name

(* Get-or-create one kind of metric: a hit allocates nothing. *)
let counter t name =
  match Names.find t.tbl name with
  | C r -> r
  | _ -> invalid_arg (name ^ " is not a counter")
  | exception Not_found ->
      let r = ref 0 in
      register t name (C r);
      r

let gauge t name =
  match Names.find t.tbl name with
  | G g -> g
  | _ -> invalid_arg (name ^ " is not a gauge")
  | exception Not_found ->
      let g = { g = 0.0 } in
      register t name (G g);
      g

let histogram t name =
  match Names.find t.tbl name with
  | H h -> h
  | _ -> invalid_arg (name ^ " is not a histogram")
  | exception Not_found ->
      let h =
        {
          hname = name;
          buckets = Array.make n_buckets 0;
          n = 0;
          m = { sum = 0.0; minv = Float.infinity; maxv = Float.neg_infinity };
        }
      in
      register t name (H h);
      h

let incr t ?(by = 1) name =
  if t.on then
    let r = counter t name in
    r := !r + by

let set_counter t name v = if t.on then counter t name := v
let set_gauge t name v = if t.on then (gauge t name).g <- v

let add_gauge t name v =
  if t.on then
    let g = gauge t name in
    g.g <- g.g +. v

let observe t name v =
  if t.on then begin
    let h = histogram t name in
    let i = bucket_of v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.n <- h.n + 1;
    let m = h.m in
    m.sum <- m.sum +. v;
    if v < m.minv then m.minv <- v;
    if v > m.maxv then m.maxv <- v
  end

let counter_value t name =
  match find t name with Some (C r) -> !r | _ -> 0

let gauge_value t name =
  match find t name with Some (G g) -> g.g | _ -> 0.0

(* Rank-based readout: the upper bound of the bucket holding the
   ceil(q·n)-th observation. *)
let histogram_quantile h q =
  if h.n = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.round (q *. float_of_int h.n +. 0.5)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let rec walk i seen =
      if i >= n_buckets then h.m.maxv
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then Float.min (bucket_bound i) h.m.maxv else walk (i + 1) seen
    in
    walk 0 0
  end

let quantile t name q =
  match find t name with Some (H h) -> histogram_quantile h q | _ -> 0.0

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize h =
  {
    count = h.n;
    sum = h.m.sum;
    min = (if h.n = 0 then 0.0 else h.m.minv);
    max = (if h.n = 0 then 0.0 else h.m.maxv);
    p50 = histogram_quantile h 0.50;
    p90 = histogram_quantile h 0.90;
    p99 = histogram_quantile h 0.99;
  }

let histogram_summary t name =
  match find t name with Some (H h) -> Some (summarize h) | _ -> None

(** [kind_of t name] — what (if anything) is registered under [name]. *)
let kind_of t name =
  match find t name with
  | Some (C _) -> Some `Counter
  | Some (G _) -> Some `Gauge
  | Some (H _) -> Some `Histogram
  | None -> None

(** Every metric, in registration order. *)
let fold t f acc =
  List.fold_left
    (fun acc (name, e) ->
      f acc name
        (match e with
        | C r -> Counter r
        | G g -> Gauge (ref g.g)
        | H h -> Histogram h))
    acc (List.rev t.order)

let names t = List.rev_map fst t.order

(* JSON rendering; metric names are machine-chosen ([a-z0-9._]) so they
   need no escaping, but we escape anyway for safety. *)
let to_json_string t =
  let b = Buffer.create 1024 in
  let sect title filter render =
    Buffer.add_string b (Fmt.str "  %S: {" title);
    let first = ref true in
    fold t
      (fun () name m ->
        match filter m with
        | None -> ()
        | Some v ->
            if not !first then Buffer.add_string b ",";
            first := false;
            Buffer.add_string b
              (Fmt.str "\n    %s: %s" (Jsonv.quote name) (render v)))
      ();
    Buffer.add_string b (if !first then "},\n" else "\n  },\n")
  in
  Buffer.add_string b "{\n";
  sect "counters"
    (function Counter r -> Some !r | _ -> None)
    (fun v -> string_of_int v);
  sect "gauges"
    (function Gauge r -> Some !r | _ -> None)
    (fun v -> Fmt.str "%.6f" v);
  Buffer.add_string b "  \"histograms\": {";
  let first = ref true in
  fold t
    (fun () name m ->
      match m with
      | Histogram h ->
          if not !first then Buffer.add_string b ",";
          first := false;
          let s = summarize h in
          Buffer.add_string b
            (Fmt.str
               "\n    %s: {\"count\": %d, \"sum\": %.6f, \"min\": %.6f, \
                \"max\": %.6f, \"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f}"
               (Jsonv.quote name) s.count s.sum s.min s.max s.p50 s.p90 s.p99)
      | _ -> ())
    ();
  Buffer.add_string b (if !first then "}\n" else "\n  }\n");
  Buffer.add_string b "}";
  Buffer.contents b

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  fold t
    (fun () name m ->
      match m with
      | Counter r -> Fmt.pf ppf "%-24s %d@," name !r
      | Gauge r -> Fmt.pf ppf "%-24s %.3f@," name !r
      | Histogram h ->
          let s = summarize h in
          Fmt.pf ppf
            "%-24s n=%-6d sum=%9.3fs  p50=%.4fs p90=%.4fs p99=%.4fs \
             max=%.4fs@,"
            name s.count s.sum s.p50 s.p90 s.p99 s.max)
    ();
  Fmt.pf ppf "@]"
