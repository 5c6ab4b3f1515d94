(* Integration tests for the multi-view extension: one update stream
   maintained into several materialized views over the paper's sources.
   Both views must converge and stay strongly consistent under every
   strategy, including runs with aborts where a later view's break leaves
   earlier views already committed (the applied-set machinery). *)

open Dyno_relational
open Dyno_view
open Dyno_workload
open Dyno_core

(* A world's view and the narrower [V2] over R1, R2 only, as a view
   set. *)
let with_v2 (t : Scenario.t) =
  (t, [ t.mv; Scenario.add_view t (Paper_schema.view2_query ()) ])

let check_view (t : Scenario.t) mv label =
  let vd = Mat_view.def mv in
  if View_def.is_valid vd then begin
    (match Consistency.convergent t.engine mv with
    | Ok true -> ()
    | Ok false -> Alcotest.failf "%s did not converge" label
    | Error e -> Alcotest.failf "%s not checkable: %s" label e);
    let r = Consistency.check_strong t.engine mv in
    if not (Consistency.ok r) then
      Alcotest.failf "%s strong consistency: %a" label Consistency.pp_report r
  end

(* The paper's world at [rows] tuples per relation, traced and tracking
   every commit. *)
let world ~rows ~cost =
  Scenario.Config.(
    default |> with_rows rows |> with_cost cost |> with_snapshots true
    |> with_trace true)

let run_and_check ~rows ~cost ~timeline ~strategy () =
  let t, views = with_v2 (Scenario.make (world ~rows ~cost) ~timeline) in
  let stats =
    Scheduler.dispatch
      ~config:
        Dyno_core.Run_config.(of_strategy strategy |> with_max_steps 200_000)
      t.engine views t.mk
  in
  Alcotest.(check bool) "queue drained" true (Umq.is_empty t.umq);
  List.iteri (fun i mv -> check_view t mv (Fmt.str "view %d" i)) views;
  (views, stats)

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
  let views, _ =
    run_and_check ~rows:10 ~cost:Dyno_sim.Cost_model.free ~timeline
      ~strategy:Strategy.Optimistic ()
  in
  match views with
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
      let solo = Scenario.make (world ~rows:10 ~cost) ~timeline:(timeline ()) in
      let alone = Scheduler.run solo.engine solo.mv solo.mk in
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
  with_v2
    (Spec.build
       {
         Spec.default with
         seed;
         dus = 30;
         scs = 3;
         world =
           Scenario.Config.(
             default |> with_rows 40 |> with_snapshots true |> with_shards 2);
       })

(* The view set drains every shard's queue: both views converge and
   every commit of both logs is strongly consistent. *)
let test_sharded_view_set () =
  List.iter
    (fun seed ->
      let t, views = sharded_views ~seed in
      ignore
        (Scheduler.dispatch t.Scenario.engine views t.Scenario.mk : Stats.t);
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
        ] );
    ]
