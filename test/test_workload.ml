(* Unit tests for the workload layer: the paper's experimental schema, the
   generator's validity guarantees (every generated event applies cleanly
   at its source even across schema evolution), and scenario assembly. *)

open Dyno_relational
open Dyno_workload

let test_paper_schema_shape () =
  Alcotest.(check int) "six relations" 6 Paper_schema.n_relations;
  Alcotest.(check (list string)) "three sources" [ "DS1"; "DS2"; "DS3" ]
    Paper_schema.sources;
  Alcotest.(check string) "R1,R2 at DS1" "DS1" (Paper_schema.source_of_rel 2);
  Alcotest.(check string) "R3 at DS2" "DS2" (Paper_schema.source_of_rel 3);
  Alcotest.(check string) "R6 at DS3" "DS3" (Paper_schema.source_of_rel 6);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Fmt.str "R%d has 4 attributes" i)
        4
        (Schema.arity (Paper_schema.schema_of_rel i)))
    [ 1; 2; 3; 4; 5; 6 ];
  let q = Paper_schema.view_query () in
  Alcotest.(check int) "view selects all 24 attributes" 24
    (List.length (Query.select q));
  Alcotest.(check int) "chain of 5 join conditions" 5 (List.length (Query.where q))

let test_initial_view_is_one_to_one () =
  let rows = 20 in
  let registry = Paper_schema.build_sources ~rows in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find registry tr.source)
      tr.rel
  in
  let extent = Eval.run ~catalog:env (Paper_schema.view_query ()) in
  Alcotest.(check int) "one view row per key" rows (Relation.cardinality extent)

(* The generator's central guarantee: every event on the timeline commits
   cleanly, in order, against fresh sources — across renames, drops and
   adds. *)
let test_generated_timeline_always_applies () =
  List.iter
    (fun seed ->
      let rows = 15 in
      let timeline =
        Generator.mixed ~rows ~seed ~n_dus:60 ~du_interval:0.5 ~sc_start:1.0
          ~sc_interval:3.0
          ~sc_kinds:
            [
              Generator.Drop_attr; Generator.Rename_rel; Generator.Rename_attr;
              Generator.Add_attr; Generator.Rename_rel; Generator.Drop_attr;
              Generator.Rename_rel; Generator.Rename_attr;
            ]
          ()
      in
      let registry = Paper_schema.build_sources ~rows in
      List.iter
        (fun (e : Dyno_sim.Timeline.entry) ->
          match Dyno_source.Registry.commit registry ~time:e.time e.event with
          | _ -> ()
          | exception exn ->
              Alcotest.failf "seed %d: event %a failed: %s" seed
                Dyno_sim.Timeline.pp_event e.event (Printexc.to_string exn))
        (Dyno_sim.Timeline.pop_until timeline ~time:infinity))
    [ 1; 2; 3; 4; 5 ]

let test_generator_counts () =
  let timeline =
    Generator.mixed ~rows:10 ~seed:7 ~n_dus:25 ~du_interval:1.0 ~sc_interval:5.0
      ~sc_kinds:(Generator.drop_then_renames 4)
      ()
  in
  let events = Dyno_sim.Timeline.peek_all timeline in
  let dus, scs =
    List.partition
      (fun (e : Dyno_sim.Timeline.entry) ->
        match e.event with Dyno_sim.Timeline.Du _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "25 DUs" 25 (List.length dus);
  Alcotest.(check int) "4 SCs" 4 (List.length scs);
  (* drop_then_renames shape *)
  (match List.map (fun (e : Dyno_sim.Timeline.entry) -> e.event) scs with
  | Dyno_sim.Timeline.Sc (Schema_change.Drop_attribute _) :: rest ->
      Alcotest.(check bool) "renames after" true
        (List.for_all
           (function
             | Dyno_sim.Timeline.Sc (Schema_change.Rename_relation _) -> true
             | _ -> false)
           rest)
  | _ -> Alcotest.fail "expected drop first");
  (* SC spacing honoured *)
  match scs with
  | a :: b :: _ ->
      Alcotest.(check (float 1e-9)) "interval" 5.0 (b.Dyno_sim.Timeline.time -. a.Dyno_sim.Timeline.time)
  | _ -> Alcotest.fail "two SCs expected"

let test_generator_determinism () =
  let mk () =
    Generator.mixed ~rows:10 ~seed:123 ~n_dus:15 ~du_interval:0.5
      ~sc_interval:2.0 ~sc_kinds:(Generator.drop_then_renames 3) ()
  in
  let dump t =
    List.map
      (fun (e : Dyno_sim.Timeline.entry) ->
        Fmt.str "%.3f %a" e.time Dyno_sim.Timeline.pp_event e.event)
      (Dyno_sim.Timeline.peek_all t)
  in
  Alcotest.(check (list string)) "same seed, same timeline" (dump (mk ())) (dump (mk ()))

(* A spec that asks for no schema change gets none: its timeline is the
   DUs alone. *)
let test_spec_without_scs () =
  let events =
    Dyno_sim.Timeline.peek_all
      (Spec.timeline { Spec.default with dus = 5; scs = 0 })
  in
  Alcotest.(check int) "5 events" 5 (List.length events);
  List.iter
    (fun (e : Dyno_sim.Timeline.entry) ->
      match e.event with
      | Dyno_sim.Timeline.Du _ -> ()
      | Dyno_sim.Timeline.Sc _ ->
          Alcotest.failf "scs = 0 scheduled %a" Dyno_sim.Timeline.pp_event
            e.event)
    events;
  Alcotest.(check int) "no SC kinds" 0
    (List.length (Generator.drop_then_renames 0))

let test_scenario_smoke () =
  let timeline =
    Generator.mixed ~rows:10 ~seed:5 ~n_dus:8 ~du_interval:0.0 ~sc_interval:0.0
      ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 10 |> with_cost Dyno_sim.Cost_model.free)
      ~timeline
  in
  Alcotest.(check int) "view materialized" 10
    (Relation.cardinality (Dyno_view.Mat_view.extent t.Scenario.mv));
  let stats =
    Scenario.run t
      ~config:(Dyno_core.Run_config.of_strategy Dyno_core.Strategy.Pessimistic)
  in
  Alcotest.(check int) "all maintained" 8
    (stats.Dyno_core.Stats.du_maintained + stats.Dyno_core.Stats.irrelevant);
  Alcotest.(check bool) "extent equals oracle" true
    (Relation.equal (Scenario.recompute_extent t)
       (Dyno_view.Mat_view.extent t.Scenario.mv))

let () =
  Alcotest.run "workload"
    [
      ( "workload",
        [
          Alcotest.test_case "paper schema shape" `Quick test_paper_schema_shape;
          Alcotest.test_case "initial one-to-one view" `Quick test_initial_view_is_one_to_one;
          Alcotest.test_case "generated timelines always apply" `Quick
            test_generated_timeline_always_applies;
          Alcotest.test_case "generator counts & spacing" `Quick test_generator_counts;
          Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
          Alcotest.test_case "scenario smoke" `Quick test_scenario_smoke;
          Alcotest.test_case "a spec with scs = 0 has no schema change" `Quick
            test_spec_without_scs;
        ] );
    ]
