(** Scenario assembly and execution: glue that builds the whole simulated
    world (sources, view, engine, workload) and runs the Dyno scheduler
    over it.  Used by benches, examples and integration tests. *)

open Dyno_relational
open Dyno_view

module Config = struct
  type t = {
    rows : int;
    cost : Dyno_sim.Cost_model.t;
    track_snapshots : bool;
    trace_enabled : bool;
    faults : Dyno_net.Channel.faults;
    net_seed : int;
    obs : Dyno_obs.Obs.t;
    shards : int;
  }

  let default =
    {
      rows = 200;
      cost = Dyno_sim.Cost_model.default;
      track_snapshots = false;
      trace_enabled = false;
      faults = Dyno_net.Channel.reliable;
      net_seed = 0;
      obs = Dyno_obs.Obs.disabled;
      shards = 1;
    }

  let with_rows rows t = { t with rows }
  let with_cost cost t = { t with cost }
  let with_snapshots track_snapshots t = { t with track_snapshots }
  let with_trace trace_enabled t = { t with trace_enabled }
  let with_faults faults t = { t with faults }
  let with_net_seed net_seed t = { t with net_seed }
  let with_obs obs t = { t with obs }
  let with_shards shards t = { t with shards }
end

module Run_config = Dyno_core.Run_config

type t = {
  registry : Dyno_source.Registry.t;
  mk : Dyno_source.Meta_knowledge.t;
  umq : Umq.t;
  plan : Dyno_core.Shard.t;
  timeline : Dyno_sim.Timeline.t;
  engine : Query_engine.t;
  mv : Mat_view.t;
  trace : Dyno_sim.Trace.t;
}

let make (c : Config.t) ~timeline : t =
  let registry = Paper_schema.build_sources ~rows:c.Config.rows in
  let mk = Paper_schema.build_meta () in
  let plan =
    Dyno_core.Shard.plan ~shards:c.Config.shards Paper_schema.sources
  in
  (* One shared id counter across every shard's queue: ids stay globally
     unique (exclusion sets, the consistency checker's message index and
     the cross-shard commit order key on them) and double as the global
     arrival order. *)
  let ids = ref 0 in
  let umqs =
    Array.init (Dyno_core.Shard.count plan) (fun _ -> Umq.create ~ids ())
  in
  let trace = Dyno_sim.Trace.create ~enabled:c.Config.trace_enabled () in
  let engine =
    Query_engine.create ~trace ~faults:c.Config.faults
      ~net_seed:c.Config.net_seed ~obs:c.Config.obs
      ~cost:c.Config.cost ~registry ~timeline ~umq:umqs.(0) ()
  in
  if Dyno_core.Shard.count plan > 1 then
    Query_engine.install_routes engine ~umqs
      ~route_of:(Dyno_core.Shard.owner plan);
  let query = Paper_schema.view_query () in
  let schemas = Paper_schema.view_schemas () in
  let vd = View_def.create ~schemas query in
  let mv =
    Mat_view.create ~track_snapshots:c.Config.track_snapshots vd
      (Relation.create Schema.empty)
  in
  (* Initial materialization, uncharged. *)
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find registry tr.source)
      tr.rel
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[]
    (Eval.run ~planner:(Query_engine.planner engine) ~catalog:env query);
  { registry; mk; umq = umqs.(0); plan; timeline; engine; mv; trace }

let run (t : t) ~(config : Run_config.t) : Dyno_core.Stats.t =
  Dyno_core.Scheduler.dispatch ~config ~plan:t.plan t.engine [ t.mv ] t.mk

(** [msg_index t] — message id → (source, source version) across every
    shard's queue.  Ids are globally unique (shared counter), so
    concatenating the per-shard histories is a well-formed index. *)
let msg_index (t : t) =
  List.concat_map
    (fun umq ->
      List.map
        (fun m ->
          ( Update_msg.id m,
            (Update_msg.source m, Update_msg.source_version m) ))
        (Umq.history umq))
    (Query_engine.umqs t.engine)

let check_convergent (t : t) = Dyno_core.Consistency.convergent t.engine t.mv

let check_strong (t : t) =
  Dyno_core.Consistency.check_strong t.engine t.mv

(** [recompute_extent t] — oracle: the view evaluated over current source
    states (raises if the definition no longer matches the sources). *)
let recompute_extent (t : t) =
  let query = View_def.peek (Mat_view.def t.mv) in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find t.registry tr.source)
      tr.rel
  in
  Eval.run ~planner:(Query_engine.planner t.engine) ~catalog:env query
