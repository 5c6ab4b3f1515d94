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

(* A tuple of [schema] that no run produces. *)
let phantom schema n =
  Tuple.of_list
    (List.map
       (fun a ->
         match Attr.ty a with
         | Value.Vtype.TInt -> Value.int n
         | Value.Vtype.TFloat -> Value.float 9.9
         | Value.Vtype.TString -> Value.string "phantom"
         | Value.Vtype.TBool -> Value.bool true)
       (Schema.attrs schema))

(* Add a phantom tuple to a commit's logged change. *)
let corrupt (c : Mat_view.commit) =
  match c.Mat_view.logged with
  | Some ((Mat_view.Delta r | Mat_view.Installed r), _) ->
      Relation.add r (phantom (Relation.schema r) 123123) 1
  | Some (Mat_view.Unchanged, _) -> Alcotest.fail "the commit changed nothing"
  | None -> Alcotest.fail "logged changes expected"

(* A run whose live extent gained a phantom tuple behind the commit
   log's back. *)
let run_with_phantom () =
  let t = run_small () in
  let extent = Mat_view.extent t.Scenario.mv in
  Relation.add extent (phantom (Relation.schema extent) 987654) 1;
  t

let test_catches_corrupted_extent () =
  match Scenario.check_convergent (run_with_phantom ()) with
  | Ok false -> ()
  | Ok true -> Alcotest.fail "corruption must break convergence"
  | Error e -> Alcotest.failf "unexpected: %s" e

(* Every logged commit is right: only the final comparison of the last
   commit's extent with the live one can see the phantom. *)
let test_catches_live_phantom () =
  let t = run_with_phantom () in
  let r = Scenario.check_strong t in
  let last = Mat_view.commit_count t.Scenario.mv - 1 in
  Alcotest.(check int) "every commit checked" (last + 1) r.Consistency.checked;
  match r.Consistency.mismatches with
  | [ m ] ->
      Alcotest.(check int) "at the last commit" last m.Consistency.commit_index
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

let test_catches_corrupted_snapshot () =
  let t = run_small () in
  (match Mat_view.commits t.Scenario.mv |> List.rev with
  | last :: _ -> corrupt last
  | [] -> Alcotest.fail "commits expected");
  let r = Scenario.check_strong t in
  Alcotest.(check bool) "mismatch detected" false (Consistency.ok r);
  Alcotest.(check int) "exactly one bad commit" 1 (List.length r.Consistency.mismatches)

(* A delta corrupted mid-run is rolled into every later extent, but the
   first mismatch is the commit that logged it. *)
let test_catches_corrupted_mid_run_delta () =
  let t = run_small () in
  let commits = Mat_view.commits t.Scenario.mv in
  let n = List.length commits in
  let k, c =
    match
      List.find_opt
        (fun (i, (c : Mat_view.commit)) ->
          i >= n / 2 && i < n - 1
          && match c.Mat_view.logged with
             | Some (Mat_view.Delta _, _) -> true
             | _ -> false)
        (List.mapi (fun i c -> (i, c)) commits)
    with
    | Some kc -> kc
    | None -> Alcotest.failf "no mid-run delta among %d commits" n
  in
  corrupt c;
  match (Scenario.check_strong t).Consistency.mismatches with
  | m :: _ -> Alcotest.(check int) "first mismatch" k m.Consistency.commit_index
  | [] -> Alcotest.fail "mismatch expected"

(* An id no queue admitted means the commit integrated something that
   never arrived. *)
let test_catches_forged_id () =
  let t = run_small () in
  let mv = t.Scenario.mv in
  Mat_view.record_commit mv ~at:1e6 ~maintained:[ 424242 ];
  match (Scenario.check_strong t).Consistency.mismatches with
  | [ m ] ->
      Alcotest.(check int) "at the forged commit"
        (Mat_view.commit_count mv - 1)
        m.Consistency.commit_index;
      Alcotest.(check bool)
        (Fmt.str "names the id: %S" m.Consistency.reason)
        true
        (List.mem "424242" (String.split_on_char ' ' m.Consistency.reason))
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

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
          Alcotest.test_case "catches corrupted mid-run delta" `Quick
            test_catches_corrupted_mid_run_delta;
          Alcotest.test_case "catches forged id" `Quick test_catches_forged_id;
          Alcotest.test_case "catches live-extent phantom" `Quick
            test_catches_live_phantom;
          Alcotest.test_case "untracked run is not ok" `Quick
            test_untracked_not_ok;
          Alcotest.test_case "undefined view not checkable" `Quick
            test_convergent_on_undefined_view;
        ] );
    ]
