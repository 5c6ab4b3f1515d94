(* Integration tests for the multi-view extension: one update stream
   maintained into several materialized views over the paper's sources.
   Both views must converge and stay strongly consistent under every
   strategy, including runs with aborts where a later view's break leaves
   earlier views already committed (the applied-set machinery). *)

open Dyno_relational
open Dyno_view
open Dyno_workload
open Dyno_core

(* Second view: a narrower join over R1, R2 only. *)
let view2_query () =
  Query.make ~name:"V2"
    ~select:[ Query.item "R1.K1"; Query.item "R1.B1"; Query.item "R2.B2" ]
    ~from:
      [
        Query.table "DS1" "R1";
        Query.table "DS1" "R2";
      ]
    ~where:[ Predicate.eq_attr "R1.K1" "R2.K2" ]

let view2_schemas () =
  [ ("R1", Paper_schema.schema_of_rel 1); ("R2", Paper_schema.schema_of_rel 2) ]

type world = {
  registry : Dyno_source.Registry.t;
  mk : Dyno_source.Meta_knowledge.t;
  umq : Umq.t;
  engine : Query_engine.t;
  views : Mat_view.t list;
}

let make_world ~rows ~cost ~timeline () =
  let registry = Paper_schema.build_sources ~rows in
  let mk = Paper_schema.build_meta () in
  let umq = Umq.create () in
  let trace = Dyno_sim.Trace.create ~enabled:true () in
  let engine = Query_engine.create ~trace ~cost ~registry ~timeline ~umq () in
  let materialize query schemas =
    let vd = View_def.create ~schemas query in
    let mv = Mat_view.create ~track_snapshots:true vd (Relation.create Schema.empty) in
    let env (tr : Query.table_ref) =
      Dyno_source.Data_source.relation
        (Dyno_source.Registry.find registry tr.source)
        tr.rel
    in
    Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env query);
    mv
  in
  let mv1 = materialize (Paper_schema.view_query ()) (Paper_schema.view_schemas ()) in
  let mv2 = materialize (view2_query ()) (view2_schemas ()) in
  { registry; mk; umq; engine; views = [ mv1; mv2 ] }

let check_view w mv label =
  let vd = Mat_view.def mv in
  if View_def.is_valid vd then begin
    (match Consistency.convergent w.engine mv with
    | Ok true -> ()
    | Ok false -> Alcotest.failf "%s did not converge" label
    | Error e -> Alcotest.failf "%s not checkable: %s" label e);
    let r = Consistency.check_strong w.engine mv in
    if not (Consistency.ok r) then
      Alcotest.failf "%s strong consistency: %a" label Consistency.pp_report r
  end

let run_and_check ~rows ~cost ~timeline ~strategy () =
  let w = make_world ~rows ~cost ~timeline () in
  let stats =
    Scheduler.dispatch
      ~config:
        Dyno_core.Run_config.(of_strategy strategy |> with_max_steps 200_000)
      w.engine w.views w.mk
  in
  Alcotest.(check bool) "queue drained" true (Umq.is_empty w.umq);
  List.iteri (fun i mv -> check_view w mv (Fmt.str "view %d" i)) w.views;
  (w, stats)

let test_du_only strategy () =
  let timeline =
    Generator.mixed ~rows:20 ~seed:41 ~n_dus:25 ~du_interval:0.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let _, stats =
    run_and_check ~rows:20 ~cost:Dyno_sim.Cost_model.free ~timeline ~strategy ()
  in
  Alcotest.(check int) "no aborts" 0 stats.Stats.aborts

let test_mixed strategy () =
  let timeline =
    Generator.mixed ~rows:15 ~seed:42 ~n_dus:20 ~du_interval:0.1 ~sc_start:0.3
      ~sc_interval:1.2
      ~sc_kinds:(Generator.drop_then_renames 4)
      ()
  in
  ignore
    (run_and_check ~rows:15
       ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
       ~timeline ~strategy ())

let test_partial_application () =
  (* Force the later-view-breaks scenario: a DU is committed, then an SC
     lands mid-maintenance of view 2 (the narrower view over DS1) so that
     view 1 may already have committed the DU.  Correctness must survive
     the retry. *)
  let timeline =
    Generator.build ~rows:12 ~seed:43
      [
        Generator.At_du 0.0;
        Generator.At_du 0.0;
        Generator.At_sc (0.15, Generator.Rename_rel);
        Generator.At_du 0.2;
        Generator.At_sc (0.4, Generator.Drop_attr);
        Generator.At_du 0.5;
      ]
  in
  ignore
    (run_and_check ~rows:12
       ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
       ~timeline ~strategy:Strategy.Pessimistic ())

let test_views_see_different_relevance () =
  (* updates on R5/R6 are irrelevant to the narrow view but not to the
     wide one; both must stay consistent *)
  let timeline =
    Generator.build ~rows:10 ~seed:44
      (List.init 10 (fun i -> Generator.At_du (float_of_int i *. 0.05)))
  in
  let w, _ =
    run_and_check ~rows:10 ~cost:Dyno_sim.Cost_model.free ~timeline
      ~strategy:Strategy.Optimistic ()
  in
  match w.views with
  | [ mv1; mv2 ] ->
      Alcotest.(check bool) "narrow view has fewer columns" true
        (Schema.arity (Relation.schema (Mat_view.extent mv2))
        < Schema.arity (Relation.schema (Mat_view.extent mv1)))
  | _ -> Alcotest.fail "two views expected"

let test_compensations_counted () =
  (* Compensation is counted for every view of the set, as for a single
     view: on timelines where the wide view alone compensates, the
     two-view run must report compensation work too. *)
  let cost = { Dyno_sim.Cost_model.default with row_scale = 1.0 } in
  List.iter
    (fun seed ->
      let timeline () =
        Generator.mixed ~rows:10 ~seed ~n_dus:12 ~du_interval:0.2 ~sc_start:0.1
          ~sc_interval:1.5
          ~sc_kinds:(Generator.drop_then_renames 2)
          ()
      in
      let solo = make_world ~rows:10 ~cost ~timeline:(timeline ()) () in
      let alone =
        Scheduler.run solo.engine (List.hd solo.views) solo.mk
      in
      if alone.Stats.compensations = 0 then
        Alcotest.failf "seed %d: the single view should compensate" seed;
      let _, stats =
        run_and_check ~rows:10 ~cost ~timeline:(timeline ())
          ~strategy:Strategy.Pessimistic ()
      in
      if stats.Stats.compensations = 0 then
        Alcotest.failf "seed %d: view set counted no compensation (single view: %d)"
          seed alone.Stats.compensations)
    [ 11; 12; 13 ]

(* A two-view set over a sharded world: the paper's view plus [V2], on a
   2-shard [Scenario] (one queue and route per shard). *)
let sharded_views ~seed =
  let timeline =
    Generator.mixed ~rows:40 ~seed ~n_dus:30 ~du_interval:1.0 ~sc_interval:10.0
      ~sc_kinds:(Generator.drop_then_renames 3)
      ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 40 |> with_snapshots true |> with_shards 2)
      ~timeline
  in
  let vd = View_def.create ~schemas:(view2_schemas ()) (view2_query ()) in
  let mv2 =
    Mat_view.create ~track_snapshots:true vd (Relation.create Schema.empty)
  in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find t.Scenario.registry tr.source)
      tr.rel
  in
  Mat_view.replace mv2 ~at:0.0 ~maintained:[] (Eval.run ~catalog:env (view2_query ()));
  (t, [ t.Scenario.mv; mv2 ])

(* The view set drains every shard's queue when given the plan: both
   views converge and every commit of both logs is strongly consistent. *)
let test_sharded_view_set () =
  List.iter
    (fun seed ->
      let t, views = sharded_views ~seed in
      ignore
        (Scheduler.dispatch ~plan:t.Scenario.plan t.Scenario.engine views
           t.Scenario.mk
          : Stats.t);
      List.iteri
        (fun i mv ->
          let label = Fmt.str "seed %d, view %d" seed i in
          (match Consistency.convergent t.Scenario.engine mv with
          | Ok true -> ()
          | Ok false -> Alcotest.failf "%s did not converge" label
          | Error e -> Alcotest.failf "%s not checkable: %s" label e);
          let r = Consistency.check_strong t.Scenario.engine mv in
          if not (Consistency.ok r) then
            Alcotest.failf "%s strong consistency: %a" label
              Consistency.pp_report r)
        views)
    [ 11; 12; 13 ]

(* Without the plan the view set would drain route 0 alone and wait
   forever on the other shard's queue: the entry point refuses to start. *)
let test_sharded_view_set_needs_plan () =
  let t, views = sharded_views ~seed:11 in
  Alcotest.(check bool)
    "2-route engine without a plan rejected" true
    (match Scheduler.dispatch t.Scenario.engine views t.Scenario.mk with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "multi-view"
    [
      ( "multi-view",
        List.concat_map
          (fun strategy ->
            let n = Strategy.to_string strategy in
            [
              Alcotest.test_case (n ^ ": DU-only") `Quick (test_du_only strategy);
              Alcotest.test_case (n ^ ": mixed") `Quick (test_mixed strategy);
            ])
          Strategy.all
        @ [
            Alcotest.test_case "partial application across views" `Quick
              test_partial_application;
            Alcotest.test_case "different relevance per view" `Quick
              test_views_see_different_relevance;
            Alcotest.test_case "compensations counted for every view" `Quick
              test_compensations_counted;
          ] );
      ( "sharded",
        [
          Alcotest.test_case "view set over 2 shards converges" `Quick
            test_sharded_view_set;
          Alcotest.test_case "2 routes without a plan raise" `Quick
            test_sharded_view_set_needs_plan;
        ] );
    ]
