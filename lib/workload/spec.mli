(** One run, declared once: the workload seed, the timeline recipe, the
    world and the run configuration.  The CLI's [run], [report] and
    [explain], the bench experiments and the end-to-end tests build their
    runs from a [t], so every run of a comparison is assembled the same
    way. *)

type t = {
  seed : int;  (** workload seed *)
  dus : int;  (** data updates, committed from t = 0 ... *)
  du_interval : float;  (** ... this many seconds apart *)
  scs : int;
      (** the schema-change train {!Generator.drop_then_renames} [scs]:
          a drop-attribute, then renames; none when [scs = 0] *)
  sc_start : float;  (** first schema change, s *)
  sc_interval : float;  (** seconds between schema changes *)
  world : Scenario.Config.t;
  run : Scenario.Run_config.t;
}

val default : t
(** Seed 1, 100 DUs 1 s apart, 5 schema changes 10 s apart from t = 0
    (the CLI's defaults), {!Scenario.Config.default} and
    {!Scenario.Run_config.default}. *)

val paper_world : rows:int -> Scenario.Config.t
(** {!Scenario.Config.default} with [rows] tuples per relation, each
    charged as the paper's 100k ({!Dyno_sim.Cost_model.scaled}). *)

val with_transport : ?net_seed:int -> Dyno_net.Channel.faults -> t -> t
(** The world's transport as the CLI sets it: [faults], retransmitting
    every [retransmit_interval] of the world's cost model, holding a
    reordered message back [reorder_delay] only when [reorder > 0], on
    the channel stream [net_seed] — by default the workload seed.  Reads
    [seed] and [world.cost], so set those first. *)

val timeline : t -> Dyno_sim.Timeline.t
(** The recipe's timeline over [world.rows] tuples per relation. *)

val build : ?timeline:Dyno_sim.Timeline.t -> t -> Scenario.t
(** The paper's world ({!Scenario.make} [world]) over [timeline], by
    default {!timeline} [t]; a hand-written timeline replaces the
    recipe. *)

val run : ?timeline:Dyno_sim.Timeline.t -> t -> Scenario.t * Dyno_core.Stats.t
(** {!build}, then {!Scenario.run} under [run]. *)
