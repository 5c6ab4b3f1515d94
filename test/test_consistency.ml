(* Unit tests for the consistency checkers: they must accept correct runs
   (covered extensively by test_scheduler) and, crucially, they must
   actually CATCH corruption — a checker that never fails proves
   nothing. *)

open Dyno_relational
open Dyno_view
open Dyno_workload
open Dyno_core

let run_small ?(snapshots = true) () =
  let timeline =
    Generator.mixed ~rows:12 ~seed:99 ~n_dus:10 ~du_interval:0.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 12 |> with_cost Dyno_sim.Cost_model.free
        |> with_snapshots snapshots)
      ~timeline
  in
  ignore
    (Scenario.run t
       ~config:(Dyno_core.Run_config.of_strategy Strategy.Pessimistic));
  t

let test_accepts_correct_run () =
  let t = run_small () in
  (match Scenario.check_convergent t with
  | Ok true -> ()
  | _ -> Alcotest.fail "should converge");
  let r = Scenario.check_strong t in
  Alcotest.(check bool) "strong ok" true (Consistency.ok r);
  Alcotest.(check bool) "commits were actually checked" true (r.Consistency.checked > 1)

let test_catches_corrupted_extent () =
  let t = run_small () in
  (* sabotage the extent: inject a phantom tuple *)
  let mv = t.Scenario.mv in
  let extent = Mat_view.extent mv in
  let schema = Relation.schema extent in
  let phantom =
    Tuple.of_list
      (List.map
         (fun a ->
           match Attr.ty a with
           | Value.Vtype.TInt -> Value.int 987654
           | Value.Vtype.TFloat -> Value.float 9.9
           | Value.Vtype.TString -> Value.string "phantom"
           | Value.Vtype.TBool -> Value.bool true)
         (Schema.attrs schema))
  in
  Relation.add extent phantom 1;
  (match Scenario.check_convergent t with
  | Ok false -> ()
  | Ok true -> Alcotest.fail "corruption must break convergence"
  | Error e -> Alcotest.failf "unexpected: %s" e)

let test_catches_corrupted_snapshot () =
  let t = run_small () in
  (* corrupt the last commit's snapshot *)
  (match Mat_view.commits t.Scenario.mv |> List.rev with
  | last :: _ -> (
      match last.Mat_view.snapshot with
      | Some snap ->
          let schema = Relation.schema snap in
          let tup =
            Tuple.of_list
              (List.map
                 (fun a ->
                   match Attr.ty a with
                   | Value.Vtype.TInt -> Value.int 123123
                   | Value.Vtype.TFloat -> Value.float 1.0
                   | Value.Vtype.TString -> Value.string "bad"
                   | Value.Vtype.TBool -> Value.bool false)
                 (Schema.attrs schema))
          in
          Relation.add snap tup 1
      | None -> Alcotest.fail "snapshots expected")
  | [] -> Alcotest.fail "commits expected");
  let r = Scenario.check_strong t in
  Alcotest.(check bool) "mismatch detected" false (Consistency.ok r);
  Alcotest.(check int) "exactly one bad commit" 1 (List.length r.Consistency.mismatches)

(* Without snapshot tracking no commit can be checked: the report must
   say so, never "consistent". *)
let test_untracked_not_ok () =
  let t = run_small ~snapshots:false () in
  let r = Scenario.check_strong t in
  Alcotest.(check int) "nothing checked" 0 r.Consistency.checked;
  Alcotest.(check bool) "every commit skipped" true (r.Consistency.skipped > 0);
  Alcotest.(check bool) "not ok" false (Consistency.ok r);
  let text = Fmt.str "%a" Consistency.pp_report r in
  Alcotest.(check bool)
    (Fmt.str "report says not checked: %S" text)
    true
    (String.starts_with ~prefix:"not checked" text)

let test_convergent_on_undefined_view () =
  let t = run_small () in
  View_def.invalidate (Mat_view.def t.Scenario.mv);
  match Scenario.check_convergent t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined view is not checkable"

let () =
  Alcotest.run "consistency"
    [
      ( "consistency",
        [
          Alcotest.test_case "accepts a correct run" `Quick test_accepts_correct_run;
          Alcotest.test_case "catches corrupted extent" `Quick test_catches_corrupted_extent;
          Alcotest.test_case "catches corrupted snapshot" `Quick test_catches_corrupted_snapshot;
          Alcotest.test_case "untracked run is not ok" `Quick
            test_untracked_not_ok;
          Alcotest.test_case "undefined view not checkable" `Quick
            test_convergent_on_undefined_view;
        ] );
    ]
