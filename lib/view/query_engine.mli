(** The query engine and simulated world: ties together the clock, the
    timeline of future autonomous commits, the source registry, the UMQ
    and the transport channel.  Implements the paper's Figure 7 processes
    — the UMQ manager (deliver commits through the wrapper's channel and
    the exactly-once sequencer, set the schema-change flag) and the query
    engine with in-exec broken-query detection — with Definition 2's
    interleaving semantics: every commit falling before a query is
    answered is applied first.  Probes lost to the channel (or hitting an
    outage) time out and are retried with exponential backoff. *)

open Dyno_relational
open Dyno_sim

type t

val create :
  ?trace:Trace.t ->
  ?planner:Eval.plan ->
  ?faults:Dyno_net.Channel.faults ->
  ?net_seed:int ->
  ?obs:Dyno_obs.Obs.t ->
  ?route_of:(string -> int) ->
  cost:Cost_model.t ->
  registry:Dyno_source.Registry.t ->
  timeline:Timeline.t ->
  umqs:Umq.t array ->
  unit ->
  t
(** One transport route per queue of [umqs]: route [i] is queue [i], fed
    by its own channel, and owns the sources [route_of] maps to [i]
    (default: every source on route 0; with one queue, every source
    rides it).  A single-view-manager world passes one queue, a sharded
    one a queue per shard; the queues should share one message-id
    counter ({!Umq.create}'s [ids]) so ids stay globally unique across
    shards.  [planner] (default [`Indexed]) is the physical plan every
    maintenance query and compensation evaluation through this engine
    runs with; tests pass [`Nested_loop] to pin the reference plan.
    [faults] (default {!Dyno_net.Channel.reliable}) configures every
    route's channel — reliable is a structural pass-through,
    bit-identical to a direct call; route [i]'s channel draws from its
    own RNG stream seeded [net_seed + i]; probe timeout/backoff follows
    {!Dyno_net.Retry.of_cost} of [cost].  [obs]
    (default {!Dyno_obs.Obs.disabled} — a structural no-op) records
    [Probe]/[Timeout]/[Retry] spans, the [probe.rtt_s] and [umq.hold_s]
    histograms and the [net.*]/[umq.*] counters, and is shared with the
    channels and with every subsystem holding this engine.
    @raise Invalid_argument on an empty [umqs]; a lookup raises it when
    [route_of] maps a source outside [0 .. Array.length umqs - 1]. *)

val now : t -> float

val planner : t -> Eval.plan
(** The engine's physical plan choice (see {!create}). *)

val clock : t -> Clock.t

val executor : t -> Executor.t
(** The engine's cooperative task executor over its clock.  Outside any
    task its sleeps are plain clock advances, so purely serial callers
    can ignore it; the parallel schedulers spawn maintenance tasks on it
    so independent probe round trips overlap. *)

val trace : t -> Trace.t

val umq : t -> Umq.t
(** Route 0's queue — {e the} queue of a single-view-manager world, and
    the first shard's queue of a sharded one. *)

val registry : t -> Dyno_source.Registry.t
val cost : t -> Cost_model.t

val umqs : t -> Umq.t list
(** All routes' queues, in route order. *)

val route_of : t -> string -> int
(** The route — the index into {!umqs} — whose queue a source's updates
    ride. *)

val add_admit_hook : t -> (Update_msg.t -> unit) -> unit
(** Observe the admitted update stream: [h] is called once per message
    the exactly-once sequencer admits into any route's UMQ (post-dedup,
    in per-source order), at the instant of admission.  Hooks run in
    install order and must not mutate engine state.  No hooks are
    installed by default, so runs without one are byte-identical to the
    historical behaviour.  This is how the self-maintenance tier rides
    the delivered stream for free. *)

val net_msgs_lost : t -> int
(** Transmissions dropped by the channel(s), summed across routes. *)

val net_msgs_duplicated : t -> int
(** Duplicate transmissions injected by the channel(s), summed. *)

val umq_dups_dropped : t -> int
(** Copies discarded by the exactly-once sequencer(s), summed. *)

val umq_reorders_healed : t -> int
(** Out-of-order deliveries healed by the sequencer(s), summed. *)

val obs : t -> Dyno_obs.Obs.t
(** The observability handle (see {!create}). *)

val net_timeouts : t -> int
(** Probe attempts that got no answer within the timeout. *)

val net_retries : t -> int
(** Probe attempts re-sent after backoff. *)

val net_wait : t -> float
(** Simulated seconds spent on timeouts, backoff and recovery waits. *)

val deliver_due : t -> unit
(** Apply every source commit scheduled at or before the current simulated
    time, send its message down the channel, and run every arrived copy
    through the UMQ sequencer.  With no commit due and no copy in flight
    it returns at once and allocates nothing. *)

val advance : t -> float -> unit
(** Spend simulated seconds of view-manager work, delivering any source
    commits that happen meanwhile. *)

val idle_until : t -> float -> unit
(** Sit idle until an absolute time (the no-concurrency baselines). *)

val next_wakeup : t -> float option
(** Next instant at which something happens without the view manager
    doing anything: a future commit or an in-flight message arrival. *)

(** How a maintenance query can fail: [Broken] is the paper's broken
    query (schema conflict, abort into VS/VA); [Unreachable] is a
    transient transport failure (retry budget exhausted — wait and retry
    the maintenance step, no abort). *)
type failure =
  | Broken of Dyno_source.Data_source.broken
  | Unreachable of Dyno_net.Retry.unreachable

val pp_failure : Format.formatter -> failure -> unit

val execute_timed :
  ?plan:Eval.prepared ->
  t ->
  Query.t ->
  bound:(string * Rows.t) list ->
  target:string ->
  (Dyno_source.Data_source.answer * float, failure) result
(** Run one maintenance-query probe against a source.  Round-trip
    latency and scan cost elapse (with commit delivery) {e before} the
    answer is computed; the probed source's in-flight update messages are
    flushed into the UMQ with it (FIFO-stream semantics), so the caller's
    compensation frontier matches the answer exactly; result-transfer
    time elapses after it {e without} delivery.  A schema conflict yields
    [Error (Broken _)] and raises the broken-query flag; a lost probe is
    retried per the policy and yields [Error (Unreachable _)] when the
    budget is exhausted.

    Also returns the simulated time at which the source computed the
    answer (before the result transfer).  Under concurrent maintenance,
    other tasks may deliver further commits while this task parks on the
    result transfer; a compensation frontier must only include pending
    updates committed at or before the returned instant.  [plan] ships
    the query already prepared ({!Dyno_source.Data_source.answer}). *)

val fetch :
  t ->
  Query.t ->
  target:string ->
  (Dyno_source.Data_source.answer, failure) result
(** {!execute_timed} of an adaptation's fetch, nothing shipped: the same
    probe round trip, spans and charges, answered by
    {!Dyno_source.Data_source.fetch}, so an identity fetch answers the
    source's live extent, read-only and pinned.  The adaptation releases
    every relation it fetched with {!unpin} when it ends, whatever its
    outcome. *)

val unpin : t -> source:string -> Relation.t -> unit
(** Release a pin {!fetch} took ({!Dyno_source.Data_source.unpin}). *)

val validate : t -> Query.t -> target:string -> (unit, failure) result
(** Lightweight metadata check against a source's current catalog: one
    round trip, no scan.  Adaptation interleaves these with its
    computation so late-arriving schema changes are detected in-exec.
    Subject to the same retry policy as {!execute_timed}. *)

val await_recovery : t -> source:string -> float
(** After an [Unreachable] verdict: wait out the source's outage window
    (or one retry-timeout as a cool-down), delivering commits meanwhile;
    returns the simulated seconds waited. *)

val source_relation : t -> source:string -> rel:string -> Relation.t option
(** Direct read of a source's current relation (oracles, initialization —
    not charged). *)

val pending_sums :
  ?after:float ->
  t ->
  source:string ->
  rel:string ->
  exclude:int list ->
  Umq.pending_sum list
(** The concurrent data updates pending against a relation in its
    source's queue, summed per delta schema — what compensation
    subtracts ({!Umq.pending_sums}: live sums, read before the clock
    moves). *)
