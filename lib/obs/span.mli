(** Hierarchical, simulated-clock-timestamped spans.

    The span vocabulary mirrors the maintenance pipeline: a top-level
    [Maintain] span per scheduler iteration, with [Detect], [Correct],
    [Probe] (and its [Timeout]/[Retry] children), [Compensate], [Refresh],
    [Vs], [Va], [Batch] and [Stall] nested under it.  A disabled recorder
    is a structural no-op.

    Span names and event details are [string Lazy.t]s, rendered only when
    they are read, by an exporter.  {b Capture rule}: such
    a lazy is forced long after it is recorded, so it may capture only
    values that nothing mutates afterwards — messages, queue entries,
    timeline events and their deltas, ints, floats and strings.  Read
    anything else into immutable locals first. *)

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

val kind_to_string : kind -> string
val all_kinds : kind list

type t = {
  id : int;  (** unique per recorder, > 0 *)
  parent : int;  (** enclosing span id, or 0 for a root span *)
  tid : int;  (** logical thread (see {!threads}) *)
  kind : kind;
  mutable name : string Lazy.t;  (** rendered when read *)
  start : float;  (** simulated seconds *)
  mutable finish : float;  (** simulated seconds; = [start] while open *)
  mutable attrs : (string * string) list;  (** newest first *)
}

type event = {
  time : float;
  etid : int;
  ename : string;
  detail : string Lazy.t;  (** rendered when read *)
}

type recorder

val create : ?enabled:bool -> unit -> recorder

val disabled : recorder
(** A shared no-op recorder: every operation returns immediately, ids are
    constantly [0], nothing is allocated per call. *)

val enabled : recorder -> bool

val threads : recorder -> (string * int) list
(** Registered logical threads and their stable small ids, in
    registration order: thread 0 is the scheduler; sources register as
    they first appear. *)

val set_context : recorder -> int -> unit
(** Switch the ambient open-span context.  Context 0 is the ordinary
    serial driver; the cooperative executor's switch hook selects a
    distinct context per task so that spans opened by interleaved tasks
    nest under their own task's open spans, not each other's.  No-op on
    a disabled recorder. *)

val begin_span :
  recorder -> time:float -> ?thread:string -> kind -> string Lazy.t -> int
(** Open a span parented under the current innermost open span; returns
    its id (0 when disabled). *)

val end_span : recorder -> time:float -> int -> unit
(** Close an open span.  Open children are closed at the same time
    (defensive; disciplined callers end in LIFO order). *)

val set_attr : recorder -> int -> string -> string -> unit
(** [set_attr r id key value] sets an attribute of an open or closed span;
    setting a key again keeps only its latest value. *)

val set_name : recorder -> int -> string Lazy.t -> unit

val with_span :
  recorder ->
  now:(unit -> float) ->
  ?thread:string ->
  kind ->
  string Lazy.t ->
  (int -> 'a) ->
  'a
(** Exception-safe bracket: begins a span, runs the body with its id, ends
    the span at the then-current simulated time even on exceptions. *)

val instant :
  recorder -> time:float -> ?thread:string -> string -> string Lazy.t -> unit
(** A point event on a logical thread (message lost, outage hit, …). *)

val spans : recorder -> t list
(** Closed spans in start-time order (ties: creation order). *)

val open_spans : recorder -> t list
val events : recorder -> event list
val span_count : recorder -> int
val find : recorder -> int -> t option

val total_duration : recorder -> kind -> float
(** Summed duration of all closed spans of a kind. *)

val count_kind : recorder -> kind -> int
