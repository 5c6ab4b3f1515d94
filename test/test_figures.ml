(* The reproduction claims of EXPERIMENTS.md, encoded as assertions: every
   qualitative shape the paper's figures exhibit must hold on scaled-down
   runs of the same workloads.  Simulated time depends on the cost model's
   row scaling, not the physical extent, so small physical relations
   reproduce the bench numbers at a fraction of the wall time. *)

open Dyno_relational
open Dyno_workload
open Dyno_core

(* The bench's paper-world spec at 50 rows per relation: DUs one second
   apart, the schema-change train from t = 0. *)
let spec strategy =
  {
    Spec.default with
    du_interval = 1.0;
    world = Spec.paper_world ~rows:50;
    run = Run_config.of_strategy strategy;
  }

let run ?timeline s = snd (Spec.run ?timeline s)

(* [n] data updates flooding in at t = 0, and no schema change. *)
let flood_dus ~seed n =
  Generator.mixed ~rows:50 ~seed ~n_dus:n ~du_interval:0.0 ~sc_interval:0.0
    ~sc_kinds:[] ()

(* Figure 8: detection overhead unobservable; cost linear in #DUs. *)
let test_fig8_shape () =
  let du_only n strategy = run ~timeline:(flood_dus ~seed:8 n) (spec strategy) in
  let with500 = du_only 500 Strategy.Pessimistic in
  let without500 = du_only 500 Strategy.Optimistic in
  Alcotest.(check bool) "detection overhead unobservable (< 0.5%)" true
    (Float.abs (with500.Stats.busy -. without500.Stats.busy)
    < 0.005 *. with500.Stats.busy);
  let with1000 = du_only 1000 Strategy.Pessimistic in
  let ratio = with1000.Stats.busy /. with500.Stats.busy in
  Alcotest.(check bool)
    (Fmt.str "linear: 1000/500 ratio %.2f within [1.8, 2.2]" ratio)
    true
    (ratio > 1.8 && ratio < 2.2)

(* Figure 9: aborting SC maintenance is expensive, aborting DU maintenance
   is cheap; pessimistic avoids the expensive abort. *)
let test_fig9_shape () =
  let du_r1 =
    Dyno_sim.Timeline.Du
      (Update.insert ~source:"DS1" ~rel:"R1"
         (Paper_schema.schema_of_rel 1)
         (Paper_schema.tuple_for ~salt:777 1 0))
  in
  let drop_r3 =
    Dyno_sim.Timeline.Sc
      (Schema_change.Drop_attribute { source = "DS2"; rel = "R3"; attr = "B3" })
  in
  let rename_r5 =
    Dyno_sim.Timeline.Sc
      (Schema_change.Rename_relation
         { source = "DS3"; old_name = "R5"; new_name = "R5X" })
  in
  let flood events strategy =
    run
      ~timeline:(Dyno_sim.Timeline.of_list (List.map (fun e -> (0.0, e)) events))
      (spec strategy)
  in
  let opt_du_sc = flood [ du_r1; drop_r3 ] Strategy.Optimistic in
  let opt_sc_sc = flood [ drop_r3; rename_r5 ] Strategy.Optimistic in
  let pess_sc_sc = flood [ drop_r3; rename_r5 ] Strategy.Pessimistic in
  Alcotest.(check bool) "DU abort cheap (< 1 s)" true
    (opt_du_sc.Stats.abort_cost < 1.0);
  Alcotest.(check bool) "SC abort expensive (> 5 s)" true
    (opt_sc_sc.Stats.abort_cost > 5.0);
  Alcotest.(check bool) "pessimistic avoids the SC abort" true
    (pess_sc_sc.Stats.abort_cost < 0.5);
  Alcotest.(check bool) "optimistic total > pessimistic total" true
    (opt_sc_sc.Stats.busy > pess_sc_sc.Stats.busy +. 5.0)

(* Figure 10: cheapest at interval 0; abort peaks near the SC maintenance
   time then collapses; pessimistic aborts <= optimistic aborts. *)
let test_fig10_shape () =
  let point itv strategy =
    run { (spec strategy) with seed = 21; dus = 200; scs = 10; sc_interval = itv }
  in
  let p0 = point 0.0 Strategy.Pessimistic in
  let p9 = point 9.0 Strategy.Pessimistic in
  let p23 = point 23.0 Strategy.Pessimistic in
  let p41 = point 41.0 Strategy.Pessimistic in
  Alcotest.(check bool) "interval 0 cheapest" true
    (p0.Stats.busy < p9.Stats.busy && p0.Stats.busy < p23.Stats.busy);
  Alcotest.(check bool) "abort peaks near SC maintenance time" true
    (p23.Stats.abort_cost > p9.Stats.abort_cost);
  Alcotest.(check bool) "aborts collapse once intervals exceed maintenance"
    true
    (p41.Stats.abort_cost < 0.1 *. p23.Stats.abort_cost);
  let o9 = point 9.0 Strategy.Optimistic in
  Alcotest.(check bool) "pessimistic aborts <= optimistic aborts" true
    (p9.Stats.abort_cost <= o9.Stats.abort_cost +. 1e-9)

(* Figure 11: abort cost grows with the number of schema changes. *)
let test_fig11_shape () =
  let point n =
    run
      {
        (spec Strategy.Pessimistic) with
        seed = 22;
        dus = 200;
        scs = n;
        sc_interval = 25.0;
      }
  in
  let p5 = point 5 and p15 = point 15 in
  Alcotest.(check bool) "abort grows with #SCs" true
    (p15.Stats.abort_cost > 1.5 *. p5.Stats.abort_cost);
  Alcotest.(check bool) "total grows with #SCs" true
    (p15.Stats.busy > p5.Stats.busy)

(* Figure 12: abort cost flat in #DUs. *)
let test_fig12_shape () =
  let point n =
    run
      {
        (spec Strategy.Pessimistic) with
        seed = 23;
        dus = n;
        scs = 5;
        sc_interval = 25.0;
      }
  in
  let p200 = point 200 and p400 = point 400 in
  Alcotest.(check bool)
    (Fmt.str "abort flat: %.1f vs %.1f" p200.Stats.abort_cost p400.Stats.abort_cost)
    true
    (Float.abs (p400.Stats.abort_cost -. p200.Stats.abort_cost)
    < 0.1 *. Float.max 1.0 p200.Stats.abort_cost);
  Alcotest.(check bool) "total grows with #DUs" true
    (p400.Stats.busy > p200.Stats.busy)

(* Baseline: incremental maintenance beats naive recompute by a wide
   margin. *)
let test_baseline_shape () =
  let du_only vm_mode =
    run
      ~timeline:(flood_dus ~seed:32 50)
      {
        (spec Strategy.Pessimistic) with
        run = Run_config.(default |> with_vm_mode vm_mode);
      }
  in
  let inc = du_only Run_config.Incremental in
  let rec_ = du_only Run_config.Recompute in
  Alcotest.(check bool) "incremental >= 20x cheaper" true
    (rec_.Stats.busy > 20.0 *. inc.Stats.busy)

let () =
  Alcotest.run "figures"
    [
      ( "paper shapes",
        [
          Alcotest.test_case "Figure 8: detection free, cost linear" `Quick
            test_fig8_shape;
          Alcotest.test_case "Figure 9: abort cost asymmetry" `Quick
            test_fig9_shape;
          Alcotest.test_case "Figure 10: interval sweep shape" `Quick
            test_fig10_shape;
          Alcotest.test_case "Figure 11: abort grows with #SCs" `Quick
            test_fig11_shape;
          Alcotest.test_case "Figure 12: abort flat in #DUs" `Quick
            test_fig12_shape;
          Alcotest.test_case "baseline: incremental beats recompute" `Quick
            test_baseline_shape;
        ] );
    ]
