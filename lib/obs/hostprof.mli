(** Host-runtime profiler for the multicore backend.

    Every observability surface so far (spans, telemetry, lineage) lives
    on the {e simulated} clock; this module watches the {e host} clock.
    Each participant of a {!Dyno_sim.Domain_pool} — the spawned worker
    domains and the coordinator — owns a private ring of host-clock
    events (task begin/end with per-task GC deltas,
    chunk grabs, idle waits, the worker's exit) plus eviction-proof
    aggregate counters.  Rings are single-writer (the owning domain) and
    are read by the coordinator only after the pool has quiesced (the
    batch barrier, or [Domain.join] at shutdown), so no locks are taken
    on the hot path and a recording call costs two clock reads and one
    array store.

    A {!disabled} profiler is a structural no-op: every call returns
    immediately without reading the clock, so profiler-off runs are
    byte-identical to a build without it.  The profiler never touches
    the simulated clock, the engine, or any coordinator-owned state, so
    profiler-on runs are observationally identical too — it can only be
    {e read}.

    {!drain} folds the rings into per-domain utilization / imbalance /
    GC metrics and a per-tag attribution of host compute seconds (the
    tag is the dispatched member's UMQ message id, joined back onto the
    lineage record by the scheduler). *)

type t

type ring
(** One participant's event ring.  Safe to hand to exactly one domain. *)

(** Per-task GC pressure across the task: exact minor words
    ([Gc.minor_words]), and [Gc.quick_stat] deltas for the rest. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(** One recorded host-clock event.  Timestamps are absolute
    [Unix.gettimeofday] seconds; readers normalize against
    {!summary}'s [origin]. *)
type event =
  | Task of { tag : int; t0 : float; t1 : float; gc : gc_delta }
      (** one pool task; [tag] is the dispatched member id, -1 untagged *)
  | Chunk of { at : float; first : int; len : int }
      (** a chunk of task indices claimed by this domain *)
  | Idle of { t0 : float; t1 : float }
      (** parked waiting for work (workers) or for stragglers (coordinator) *)
  | Join of { at : float }  (** the worker observed shutdown and exited *)

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] (default 8192) bounds each ring; the oldest events are
    overwritten once full and counted in [events_dropped].  Aggregates
    (busy/idle seconds, task counts, GC deltas, attributions) are kept
    outside the ring and never evicted. *)

val disabled : t
(** The shared no-op profiler. *)

val enabled : t -> bool

val null_ring : ring
(** The shared no-op ring (what {!coordinator_ring}/{!worker_ring}
    return on a disabled profiler). *)

val ring_on : ring -> bool

val coordinator_ring : t -> ring
(** Register the coordinator as participant 0.  The coordinator's
    lifetime is its accumulated {!batch_begin}/{!batch_end} window — it
    only participates while a batch is open — so its utilization is
    busy time over pool participation, not over the whole run. *)

val worker_ring : t -> ring
(** Register the next worker participant (domains 1..n-1, in call
    order).  A worker's lifetime runs {!opened} → {!joined}. *)

(** {1 Recording} (called from the owning domain only) *)

type mark
(** A clock (and, for tasks, GC) snapshot taken at a begin edge. *)

val no_mark : mark

val opened : ring -> unit
(** Stamp the participant's first-seen time (worker-loop entry). *)

val task_begin : ring -> mark
val task_end : ring -> tag:int -> mark -> unit
val idle_begin : ring -> mark
val idle_end : ring -> mark -> unit
val chunk : ring -> first:int -> len:int -> unit
val batch_begin : ring -> mark
val batch_end : ring -> mark -> unit
(** Coordinator-only: bracket one [run_all] batch; accumulates the
    coordinator's participation window (no ring event is stored). *)

val joined : ring -> unit
(** Worker-loop exit: stamp the end of the participant's lifetime. *)

(** {1 Readout} (coordinator only, after the pool quiesced) *)

type domain_summary = {
  domain : int;  (** participant index; 0 is the coordinator *)
  role : string;  (** ["coordinator"] or ["worker"] *)
  start_s : float;  (** first activity, seconds after [origin] *)
  end_s : float;  (** last activity, seconds after [origin] *)
  lifetime_s : float;
      (** workers: opened → joined; coordinator: Σ batch windows *)
  busy_s : float;  (** Σ task durations *)
  idle_s : float;  (** Σ parked waits *)
  gc_s : float;
      (** residual: [lifetime_s - busy_s - idle_s] — GC pauses outside
          tasks plus pool bookkeeping.  [busy + idle + gc = lifetime]
          holds by construction. *)
  utilization : float;  (** [busy_s / lifetime_s], 0 when lifetime is 0 *)
  tasks : int;
  chunks : int;
  gc : gc_delta;  (** summed per-task deltas *)
  events_dropped : int;  (** ring evictions (aggregates unaffected) *)
}

type summary = {
  origin : float;  (** absolute host time all relative values hang off *)
  wall_s : float;  (** latest activity − earliest activity, across domains *)
  imbalance : float;
      (** max per-domain busy over mean per-domain busy; 1.0 when no
          domain did any work *)
  domains : domain_summary list;  (** participant order *)
  attributions : (int * float) list;
      (** tag → attributed host compute seconds, tag ascending;
          untagged (-1) work excluded *)
  slowest : (int * float) list;
      (** top attributed tags by host seconds, slowest first (≤ 10) *)
}

val drain : t -> summary
(** Fold every ring into a {!summary}.  Recomputed on each call (cheap),
    so it is safe to drain, run more inline batches, and drain again.
    A disabled or never-used profiler drains to an empty summary. *)

val timelines : t -> (domain_summary * event list) list
(** Per-domain summaries with their retained events, oldest first —
    the raw material of the host-clock trace tracks. *)

val to_json : t -> string
(** The drained profile as one JSON document: top-level [wall_s] /
    [imbalance] / [timelines] (one object per domain whose
    [busy_s + idle_s + gc_s] tile [lifetime_s]) / [slowest_sweeps]. *)
