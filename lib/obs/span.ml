(** Hierarchical spans over the simulated clock.

    A span is one timed phase of the maintenance pipeline — a whole
    maintenance step, a detection pass, one probe round trip, a backoff
    wait — with a parent link, a logical thread, and free-form key/value
    attributes.  Spans are recorded against the {e simulated} clock, so a
    trace of a run is exactly reproducible and the per-phase durations sum
    to the same quantities {!Dyno_core.Stats} reports.

    The recorder keeps one explicit stack of open spans per {e context}
    — context 0 is the ordinary serial driver; the cooperative executor
    switches the ambient context at every task switch so interleaved
    tasks each see their own open-span stack.  [begin_span] parents the
    new span under the top of the ambient context's stack, [end_span]
    closes it.

    Span ids count up from 1, so a span is stored at its id's slot of a
    growable array, next to the context it opened in: {!find},
    {!set_attr}, {!set_name} and {!end_span} read that slot instead of
    hashing the id.  The ambient context's stack is held apart; the
    stacks of the other contexts with open spans are parked in a small
    table, touched only when the executor switches contexts.

    A {e disabled} recorder is a structural no-op: nothing is allocated
    per call, no clock interaction happens, and ids are constant — so
    obs-off runs behave bit-identically to a build without the
    recorder.

    Span names and event details are [string Lazy.t]s, rendered only
    when read (by an exporter), under the capture rule
    stated in [span.mli]. *)

(** The span vocabulary of the maintenance pipeline.  [Maintain] is the
    top-level unit (one scheduler iteration over a queue head, detection
    and correction included); everything else nests under it. *)
type kind =
  | Maintain  (** one scheduler iteration's busy work over a queue head *)
  | Detect  (** a pre-exec detection pass (dependency graph built) *)
  | Correct  (** a correction (reorder/merge) pass *)
  | Probe  (** one maintenance-query round trip (retries included) *)
  | Compensate  (** SWEEP compensation of a probe answer *)
  | Refresh  (** the view-extent refresh + commit *)
  | Vs  (** view synchronization (definition rewrite) *)
  | Va  (** view adaptation (Equation 6 or re-materialization) *)
  | Batch  (** a merged/grouped batch maintained atomically *)
  | Retry  (** backoff wait before a probe retry *)
  | Timeout  (** one probe attempt that got no answer in time *)
  | Stall  (** waiting out an unreachable source (no abort) *)
  | Task  (** one cooperative maintenance task inside a parallel round *)
  | Local
      (** a maintenance sweep answered from the auxiliary-view store —
          zero probe round trips (self-maintenance) *)

let kind_to_string = function
  | Maintain -> "maintain"
  | Detect -> "detect"
  | Correct -> "correct"
  | Probe -> "probe"
  | Compensate -> "compensate"
  | Refresh -> "refresh"
  | Vs -> "vs"
  | Va -> "va"
  | Batch -> "batch"
  | Retry -> "retry"
  | Timeout -> "timeout"
  | Stall -> "stall"
  | Task -> "task"
  | Local -> "local"

let all_kinds =
  [
    Maintain; Detect; Correct; Probe; Compensate; Refresh; Vs; Va; Batch;
    Retry; Timeout; Stall; Task; Local;
  ]

type t = {
  id : int;  (** unique per recorder, > 0 *)
  parent : int;  (** enclosing span id, or 0 for a root span *)
  tid : int;  (** logical thread (see {!thread_id}) *)
  kind : kind;
  mutable name : string Lazy.t;  (** rendered when read *)
  start : float;  (** simulated seconds *)
  mutable finish : float;  (** simulated seconds; = [start] while open *)
  mutable attrs : (string * string) list;  (** newest first *)
}

(** A point-in-time event (message lost, commit applied, …). *)
type event = {
  time : float;
  etid : int;
  ename : string;
  detail : string Lazy.t;  (** rendered when read *)
}

type recorder = {
  on : bool;
  mutable next_id : int;
  mutable slots : t array;  (** span [id] at slot [id], for ids < [next_id] *)
  mutable ctxs : int array;  (** the context span [id] opened in, same slot *)
  mutable ambient : int;  (** context new spans open under *)
  mutable stack : t list;  (** the ambient context's open spans, innermost first *)
  parked : (int, t list) Hashtbl.t;
      (** every other context with open spans → its stack.  Context 0 is
          the serial driver; the executor's switch hook selects a
          per-task context. *)
  mutable closed : t list;  (** newest first *)
  mutable evs : event list;  (** newest first *)
  mutable threads : (string * int) list;  (** name → tid, reverse order *)
  mutable next_tid : int;
}

let scheduler_thread = "scheduler"

let create ?(enabled = true) () =
  {
    on = enabled;
    next_id = 1;
    slots = [||];
    ctxs = [||];
    ambient = 0;
    stack = [];
    parked = Hashtbl.create (if enabled then 8 else 1);
    closed = [];
    evs = [];
    threads = (if enabled then [ (scheduler_thread, 0) ] else []);
    next_tid = 1;
  }

(** A shared no-op recorder: every operation returns immediately. *)
let disabled = create ~enabled:false ()

let enabled r = r.on

(** [thread_id r name] — stable small integer for logical thread [name]
    (get-or-create).  Thread 0 is the scheduler; sources register as they
    first appear. *)
let thread_id r name =
  if not r.on then 0
  else
    match List.assoc_opt name r.threads with
    | Some tid -> tid
    | None ->
        let tid = r.next_tid in
        r.next_tid <- tid + 1;
        r.threads <- (name, tid) :: r.threads;
        tid

(** Registered threads, in registration order. *)
let threads r = List.rev r.threads

(** [set_context r ctx] — switch the ambient open-span context.  The
    executor's switch hook calls this so spans opened by interleaved
    tasks nest under their own task's spans, not each other's. *)
let set_context r ctx =
  if r.on && ctx <> r.ambient then begin
    if r.stack <> [] then Hashtbl.replace r.parked r.ambient r.stack;
    r.stack <-
      (match Hashtbl.find_opt r.parked ctx with
      | Some stack ->
          Hashtbl.remove r.parked ctx;
          stack
      | None -> []);
    r.ambient <- ctx
  end

(* Has span [id] been issued? *)
let live r id = id > 0 && id < r.next_id

(* Make room for one more slot, doubling. *)
let grow r sp =
  let n = Array.length r.slots in
  let cap = max 64 (2 * n) in
  let slots = Array.make cap sp and ctxs = Array.make cap 0 in
  Array.blit r.slots 0 slots 0 n;
  Array.blit r.ctxs 0 ctxs 0 n;
  r.slots <- slots;
  r.ctxs <- ctxs

let begin_span r ~time ?thread kind name =
  if not r.on then 0
  else begin
    let tid =
      match thread with None -> 0 | Some n -> thread_id r n
    in
    let parent = match r.stack with [] -> 0 | s :: _ -> s.id in
    let sp =
      {
        id = r.next_id;
        parent;
        tid;
        kind;
        name;
        start = time;
        finish = time;
        attrs = [];
      }
    in
    let i = sp.id in
    if i >= Array.length r.slots then grow r sp;
    r.slots.(i) <- sp;
    r.ctxs.(i) <- r.ambient;
    r.next_id <- r.next_id + 1;
    r.stack <- sp :: r.stack;
    sp.id
  end

let rec opened id = function
  | [] -> false
  | sp :: rest -> sp.id = id || opened id rest

(* Close one open span of [stack], returning what stays open.
   Out-of-order ends (an exception unwound past an open child) close the
   orphans at the same time — defensive; disciplined callers always end
   in LIFO order. *)
let close r ~time id stack =
  let rec pop = function
    | [] -> []
    | sp :: rest ->
        sp.finish <- time;
        r.closed <- sp :: r.closed;
        if sp.id = id then rest else pop rest
  in
  if opened id stack then pop stack else stack

let end_span r ~time id =
  if r.on && live r id then begin
    let ctx = r.ctxs.(id) in
    if ctx = r.ambient then r.stack <- close r ~time id r.stack
    else
      match Hashtbl.find_opt r.parked ctx with
      | None -> ()
      | Some stack -> (
          match close r ~time id stack with
          | [] -> Hashtbl.remove r.parked ctx
          | rest -> Hashtbl.replace r.parked ctx rest)
  end

let set_attr r id key value =
  if r.on && live r id then begin
    let sp = r.slots.(id) in
    sp.attrs <- (key, value) :: List.remove_assoc key sp.attrs
  end

let set_name r id name =
  if r.on && live r id then r.slots.(id).name <- name

(** [with_span r ~now kind name f] — exception-safe bracket: begins a
    span, runs [f id], ends the span at the current simulated time even if
    [f] raises.  [now] is read again at the end so the span covers exactly
    the simulated time [f] consumed. *)
let with_span r ~(now : unit -> float) ?thread kind name f =
  if not r.on then f 0
  else begin
    let id = begin_span r ~time:(now ()) ?thread kind name in
    match f id with
    | v ->
        end_span r ~time:(now ()) id;
        v
    | exception e ->
        end_span r ~time:(now ()) id;
        raise e
  end

(** [instant r ~time name detail] — a point event on a logical thread. *)
let instant r ~time ?thread name detail =
  if r.on then begin
    let tid = match thread with None -> 0 | Some n -> thread_id r n in
    r.evs <- { time; etid = tid; ename = name; detail } :: r.evs
  end

(** Closed spans in start-time order (ties: creation order). *)
let spans r =
  List.sort
    (fun a b ->
      match Float.compare a.start b.start with
      | 0 -> Int.compare a.id b.id
      | c -> c)
    r.closed

(* All open spans across every context, innermost/newest first. *)
let open_spans r =
  Hashtbl.fold (fun _ stack acc -> stack @ acc) r.parked r.stack
  |> List.sort (fun a b -> Int.compare b.id a.id)
let events r = List.rev r.evs
let span_count r = List.length r.closed

(** Span by id ([None] for the disabled recorder's id 0, and for ids
    never issued). *)
let find r id = if live r id then Some r.slots.(id) else None

(** Total duration of all closed spans of [kind]. *)
let total_duration r kind =
  List.fold_left
    (fun acc sp -> if sp.kind = kind then acc +. (sp.finish -. sp.start) else acc)
    0.0 r.closed

let count_kind r kind =
  List.fold_left
    (fun acc sp -> if sp.kind = kind then acc + 1 else acc)
    0 r.closed
