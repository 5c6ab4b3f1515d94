(** Scenario assembly and execution: the one place a simulated world
    (sources, views, engine, routes) is assembled, and the Dyno scheduler
    run over it. *)

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
  timeline : Dyno_sim.Timeline.t;
  engine : Query_engine.t;
  mv : Mat_view.t;
  trace : Dyno_sim.Trace.t;
  config : Config.t;
}

(* [query] over the sources' current states, with the engine's planner. *)
let evaluate ~registry ~engine query =
  Eval.run ~planner:(Query_engine.planner engine)
    ~catalog:(fun (tr : Query.table_ref) ->
      Dyno_source.Data_source.relation
        (Dyno_source.Registry.find registry tr.source)
        tr.rel)
    query

(* Uncharged (initialization is not part of any measured experiment);
   each alias gets its relation's schema at its source now. *)
let materialize (c : Config.t) ~registry ~engine query =
  let schema (tr : Query.table_ref) =
    ( tr.alias,
      Relation.schema
        (Dyno_source.Data_source.relation
           (Dyno_source.Registry.find registry tr.source)
           tr.rel) )
  in
  let mv =
    Mat_view.create ~track_snapshots:c.Config.track_snapshots
      (View_def.create ~schemas:(List.map schema (Query.from query)) query)
      (Relation.create Schema.empty)
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (evaluate ~registry ~engine query);
  mv

let assemble (c : Config.t) ~registry ~mk ~view ~timeline : t =
  let plan =
    Dyno_core.Shard.plan ~shards:c.Config.shards
      (Dyno_source.Registry.ids registry)
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
      ~route_of:(Dyno_core.Shard.owner plan) ~cost:c.Config.cost ~registry
      ~timeline ~umqs ()
  in
  let mv = materialize c ~registry ~engine view in
  { registry; mk; umq = umqs.(0); timeline; engine; mv; trace; config = c }

let make (c : Config.t) ~timeline : t =
  assemble c
    ~registry:(Paper_schema.build_sources ~rows:c.Config.rows)
    ~mk:(Paper_schema.build_meta ())
    ~view:(Paper_schema.view_query ())
    ~timeline

let add_view (t : t) query =
  materialize t.config ~registry:t.registry ~engine:t.engine query

let run (t : t) ~(config : Run_config.t) : Dyno_core.Stats.t =
  Dyno_core.Scheduler.dispatch ~config t.engine [ t.mv ] t.mk

(** [updates_to_view t lineage name] — the updates {!run} integrated into
    the view called [name]: the lineage records whose terminal is
    [Applied], which means integrated into every view the run maintains
    (here [t.mv] alone).  [Error views] when the run has no view called
    [name]: a name is matched against the run's views, never searched
    for in lineage text. *)
let updates_to_view (t : t) lineage name =
  let views = [ Query.name (View_def.peek (Mat_view.def t.mv)) ] in
  if List.mem name views then
    Ok
      (List.filter
         (fun (r : Dyno_obs.Lineage.record) ->
           r.Dyno_obs.Lineage.term = Some Dyno_obs.Lineage.Applied)
         (Dyno_obs.Lineage.records lineage))
  else Error views

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
  evaluate ~registry:t.registry ~engine:t.engine
    (View_def.peek (Mat_view.def t.mv))
