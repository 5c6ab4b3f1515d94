(** Dyno: the dynamic reordering scheduler — the main loop of Figure 6,
    as one dispatch core ({!dispatch}) over the queues, the views and the
    round width, with {!run} as its one-queue, one-view case.

    Drives the queues to empty: (pessimistic) pre-exec detection +
    correction guarded by the schema-change flag, maintenance of the head
    entry (VM for data updates, VS+VA for schema changes, batch
    adaptation for merged nodes), and in-exec recovery when a maintenance
    query breaks: the process aborts, the queue is corrected, and
    maintenance resumes under the new legal order.  Every path — head
    entry, grouped sweep, dependency-parallel round, cross-shard barrier
    — says what a step did as one result, counted by one account, ended
    in the lineage by one terminal and charged by one settle step, so
    statistics, spans, the trace and the lineage agree across modes.

    {b View sets.}  Several materialized views can share one update
    stream, one queue set and one dependency-correction pipeline — the
    "plugged into any view system" extension the paper's conclusion
    sketches.  A schema change induces concurrent dependencies as soon as
    it conflicts with {e any} valid view, so detection builds one graph
    against every valid view ({!Dep_graph.build_many}) and the corrected
    legal order is legal for all of them at once.  The head entry is
    maintained against each view in turn; if a later view's maintenance
    breaks while earlier views have already committed the entry, per-view
    {e applied sets} ensure the retry (possibly as part of a larger
    merged batch) only maintains what each view has not yet integrated,
    and that compensation keeps already-applied effects in.  Statistics
    are aggregated across views; per-view consistency is checked with the
    ordinary {!Consistency} tools against each view's own commit log.
    With [parallel > 1] the per-view sweeps of a single-DU head entry
    overlap their probe round trips and commit in view order.
    Self-maintenance builds one auxiliary-view store per view.

    {b Shards.}  A {!Shard.t} plan partitions the sources; each shard owns
    its own queue, transport channel and exactly-once sequencer (one
    route of the engine, built by {!Dyno_view.Query_engine.create}) and
    drains single data updates independently — per round, every shard
    contributes an antichain of data updates from distinct sources, and
    refreshes commit serially in global arrival order (message id), the
    dispatch-time exclusion-set discipline of parallel rounds lifted
    across queues.  Schema changes cannot stay shard-local: a drop or
    rename conflicts with the one global view definition, and its
    concurrent dependencies may reach data updates queued on {e other}
    shards.  The first round that sees any shard's schema-change flag
    raised becomes a {b cross-shard barrier}: every queue pauses, the
    union of all queued entries (in global arrival order) runs through
    {!Dep_graph} detection + correction, and the corrected legal order is
    maintained serially up to and including its last schema change — so
    the global commit order is always a corrected topological order,
    shard boundaries notwithstanding.  The corrected order is ephemeral:
    shard queues are never rewritten, and the pure-DU suffix resumes
    independent parallel draining.  An in-exec abort — in a round, at a
    queue head or during the barrier — is corrected at a barrier.  A
    1-shard plan is the one-queue case of the same core, bit for bit. *)

open Dyno_view

exception Step_limit_exceeded of int

(** Outcome of maintaining one queue entry. *)
type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

val maintain_entry :
  ?local:Dyno_vm.Sweep.local ->
  compensate:bool ->
  vm_mode:Run_config.vm_mode ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t ->
  Umq.entry ->
  step_outcome
(** Maintain one queue entry against one view (VM for a data update,
    VS+VA for a schema change, batch adaptation for a merged node), count
    it in the statistics and end its updates' lineage — the dispatch
    core's head step.  Does {e not} dequeue — the caller owns the queue.
    [local] (self-maintenance tier) lets fully-covered sweeps skip their
    probe round trips — see {!Dyno_vm.Vm.maintain}. *)

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
  ?config:Run_config.t ->
  Query_engine.t ->
  Mat_view.t list ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** The dispatch core: one loop over the queues (every route of the
    engine, each source's updates on the queue
    {!Dyno_view.Query_engine.route_of} names), the views (one, or several
    maintained as a view set) and the round width [config.parallel] (per
    queue: at most [parallel × shards] sweeps are in flight per round).
    [config] defaults to {!Run_config.default}.  Grouping ([du_group])
    needs one queue and one view; a view set maintains incrementally, one
    entry at a time.  Several queues detect and correct at a cross-shard
    barrier.
    @raise Invalid_argument on an empty view list.
    @raise Step_limit_exceeded if the loop exceeds [config.max_steps]. *)

val run :
  ?config:Run_config.t ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** [run w mv mk] is {!dispatch} over the one view: it loops until the
    queues and the timeline of future source commits are drained, and
    returns the collected statistics.
    @raise Step_limit_exceeded if the loop exceeds [config.max_steps]. *)
