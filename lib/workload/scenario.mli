(** Scenario assembly and execution: the one place a simulated world
    (sources, views, engine, routes) is assembled, and the Dyno scheduler
    run over it.  The paper's world is {!make}; {!assemble} takes any
    sources and view; {!Spec} declares a whole run over the paper's.

    World construction is driven by an explicit {!Config.t} record (no
    optional-argument soup): build one with {!Config.default} and the
    [with_]-style helpers, hand it to {!make}.  Runs are driven by the
    shared {!Dyno_core.Run_config.t} record (aliased here as
    {!Run_config}), the same record every scheduler consumes. *)

open Dyno_relational
open Dyno_view

(** World-construction parameters. *)
module Config : sig
  type t = {
    rows : int;  (** tuples loaded per relation *)
    cost : Dyno_sim.Cost_model.t;
    track_snapshots : bool;
        (** log how each view commit changed the extent, for
            {!check_strong} *)
    trace_enabled : bool;
    faults : Dyno_net.Channel.faults;
        (** wrapper→UMQ transport faults (reliable by default) *)
    net_seed : int;  (** channel RNG stream; shard [i] draws seed + i *)
    obs : Dyno_obs.Obs.t;
    shards : int;
        (** view-manager shards; sources are dealt round-robin across
            them ({!Dyno_core.Shard.plan}) *)
  }

  val default : t
  (** 200 rows, {!Dyno_sim.Cost_model.default}, no snapshots, no trace,
      reliable transport, disabled observability, 1 shard. *)

  val with_rows : int -> t -> t
  val with_cost : Dyno_sim.Cost_model.t -> t -> t
  val with_snapshots : bool -> t -> t
  val with_trace : bool -> t -> t
  val with_faults : Dyno_net.Channel.faults -> t -> t
  val with_net_seed : int -> t -> t
  val with_obs : Dyno_obs.Obs.t -> t -> t
  val with_shards : int -> t -> t
end

(** Alias of {!Dyno_core.Run_config}: the shared scheduler-run record
    ([strategy], [max_steps], [compensate], [vm_mode], [du_group],
    [parallel], [self_maint]) with its own [default] / [of_strategy] /
    [with_] helpers. *)
module Run_config = Dyno_core.Run_config

type t = {
  registry : Dyno_source.Registry.t;
  mk : Dyno_source.Meta_knowledge.t;
  umq : Umq.t;  (** shard 0's queue — {e the} queue of a 1-shard world *)
  timeline : Dyno_sim.Timeline.t;
  engine : Query_engine.t;
  mv : Mat_view.t;
  trace : Dyno_sim.Trace.t;
  config : Config.t;  (** what the world was assembled from *)
}

val assemble :
  Config.t ->
  registry:Dyno_source.Registry.t ->
  mk:Dyno_source.Meta_knowledge.t ->
  view:Query.t ->
  timeline:Dyno_sim.Timeline.t ->
  t
(** Wire an engine around loaded sources and a timeline, and materialize
    [view] as by {!add_view}.  With [Config.shards > 1] the sources are
    partitioned by {!Dyno_core.Shard.plan} in registration order and the
    engine gets one transport route per shard, every queue drawing
    message ids from one shared counter.  [Config.rows] is not read: the
    caller loaded the sources. *)

val make : Config.t -> timeline:Dyno_sim.Timeline.t -> t
(** The paper's world: {!assemble} over its three sources, loaded with
    [Config.rows] tuples per relation, its meta knowledge and its 6-way
    view. *)

val add_view : t -> Query.t -> Mat_view.t
(** Materialize a further view over the world's sources — uncharged
    (initialization is not part of any measured experiment), with the
    engine's planner, each alias typed by its relation's schema at its
    source now, and logging its commits when [Config.track_snapshots] is
    on.  The view is maintained only by a run given it, e.g.
    {!Dyno_core.Scheduler.dispatch} over [[t.mv; v]]. *)

val run : t -> config:Run_config.t -> Dyno_core.Stats.t
(** Drive the maintenance loop to completion: {!Dyno_core.Scheduler.dispatch}
    over the engine's routes and the world's one view. *)

val updates_to_view :
  t ->
  Dyno_obs.Lineage.t ->
  string ->
  (Dyno_obs.Lineage.record list, string list) result
(** The lineage records of the updates {!run} integrated into the view
    with this name: those whose terminal is [Applied] (integrated into
    every view the run maintains, which is [t.mv]).  [Error views] lists
    the run's view names when none matches. *)

val msg_index : t -> (int * (string * int)) list
(** Message id → (source, source version) across every shard's queue. *)

val check_convergent : t -> (bool, string) result
val check_strong : t -> Dyno_core.Consistency.report
(** {!Dyno_core.Consistency.check_strong} on the world's view: every
    commit is checked when [Config.track_snapshots] is on, and none is
    otherwise. *)

val recompute_extent : t -> Relation.t
(** Oracle: the view evaluated over current source states (raises if the
    definition no longer matches the sources). *)
