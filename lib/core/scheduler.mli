(** Dyno: the dynamic reordering scheduler — the main loop of Figure 6,
    as one dispatch core behind the serial ({!run}), multi-view
    ({!Multi_scheduler}) and sharded ({!Shard_scheduler}) entry points.

    Drives the queues to empty: (pessimistic) pre-exec detection +
    correction guarded by the schema-change flag, maintenance of the head
    entry (VM for data updates, VS+VA for schema changes, batch
    adaptation for merged nodes), and in-exec recovery when a maintenance
    query breaks: the process aborts, the queue is corrected, and
    maintenance resumes under the new legal order.  Every path — head
    entry, grouped sweep, dependency-parallel round, cross-shard barrier
    — charges its outcome through one settle step, so statistics, spans,
    the trace and the lineage agree across modes. *)

open Dyno_view

(** How data updates are maintained (re-exported from {!Run_config}). *)
type vm_mode = Run_config.vm_mode =
  | Incremental  (** SWEEP-style probes computing a view delta (default) *)
  | Recompute
      (** naive baseline: re-materialize the whole view per update — the
          classic strawman incremental maintenance is measured against *)

(** The scheduler consumes the shared {!Run_config.t} record (one record
    drives the serial, multi-view and sharded entry points).  [parallel]
    dispatches antichains of single data updates from distinct sources
    with SWEEP exclusion sets fixed at dispatch; same-source commit order
    and every CD/SD edge still serialize (Theorems 1–2), and [1] is
    bit-identical to the historical serial loop. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
}

val default_config : config
(** [= Run_config.default]: pessimistic, compensated, incremental, no
    grouping, serial, one million steps. *)

exception Step_limit_exceeded of int

(** Outcome of maintaining one queue entry. *)
type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

val maintain_entry :
  ?applied:int list ->
  ?local:Dyno_vm.Sweep.local ->
  compensate:bool ->
  vm_mode:vm_mode ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t ->
  Umq.entry ->
  step_outcome
(** Maintain one queue entry (VM for a data update, VS+VA for a schema
    change, batch adaptation for a merged node), updating counters on
    success.  Does {e not} dequeue — the caller owns the queue.  [local]
    (self-maintenance tier) lets fully-covered sweeps skip their probe
    round trips — see {!Dyno_vm.Vm.maintain}.  [applied] makes the view
    one member of a view set: the entry's messages in [applied] (already
    integrated by this view) are skipped and kept in by compensation, an
    undefined view has nothing to do, and the trace start and lineage
    terminal are left to the caller, which records them once for every
    view. *)

val aux_store : Query_engine.t -> Mat_view.t -> Dyno_selfmaint.Aux_store.t
(** Build the view's auxiliary-projection store: derive the plan from the
    view definition, seed every projection from its source's state at the
    per-source {e delivered} frontier (reconstructed from the queues'
    admission history, so in-flight commits are excluded), and wire the
    refresh cost to the engine's cost model.  The caller installs
    {!Dyno_selfmaint.Aux_store.on_message} as an admit hook to keep it
    fed; the dispatch core builds one store per view. *)

val stall_and_wait :
  Query_engine.t -> Stats.t -> t0:float -> Dyno_net.Retry.unreachable -> unit
(** A maintenance step stalled on an unreachable source: charge the sunk
    work as busy, wait for recovery, and let the caller retry.  No
    correction runs — the queue order is not the problem. *)

val record_net_stats : Query_engine.t -> Stats.t -> unit
(** Copy the engine- and queue-level transport counters (retries,
    timeouts, lost/duplicated messages, dedup/reorder healing, net wait)
    into the run's statistics. *)

val dispatch :
  ?config:config ->
  ?plan:Shard.t ->
  Query_engine.t ->
  Mat_view.t list ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** The dispatch core behind {!run}, {!Multi_scheduler.run} and
    {!Shard_scheduler.run}: one loop over the queues (the engine's first
    route, or one route per shard of [plan] when it has more than one
    shard), the views (one, or several maintained as a view set) and the
    round width [config.parallel].  Grouping ([du_group]) needs one queue
    and one view; a view set maintains incrementally, one entry at a
    time.  Several queues detect and correct at a cross-shard barrier.
    @raise Invalid_argument on an empty view list, or when the engine's
    route count differs from [plan]'s shard count (1 without a plan).
    @raise Step_limit_exceeded if the loop exceeds [config.max_steps]. *)

val run :
  ?config:config ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** [run w mv mk] loops until both the UMQ and the timeline of future
    source commits are drained, and returns the collected statistics.
    @raise Invalid_argument when the engine has more than one route.
    @raise Step_limit_exceeded if the loop exceeds [config.max_steps]. *)
