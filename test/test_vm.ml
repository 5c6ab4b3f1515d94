(* Unit tests for view maintenance (VM) with SWEEP compensation: delta
   correctness against recompute, anomaly handling, abort behaviour. *)

open Dyno_relational
open Dyno_view

let a_schema = Schema.of_list [ Attr.int "k"; Attr.string "x" ]
let b_schema = Schema.of_list [ Attr.int "k2"; Attr.string "y" ]
let c_schema = Schema.of_list [ Attr.int "k3"; Attr.int "z" ]

let view_q () =
  Query.make ~name:"V"
    ~select:[ Query.item "A.k"; Query.item "A.x"; Query.item "B.y"; Query.item "C.z" ]
    ~from:
      [
        Query.table ~alias:"A" "ds1" "A";
        Query.table ~alias:"B" "ds1" "B";
        Query.table ~alias:"C" "ds2" "C";
      ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2"; Predicate.eq_attr "B.k2" "C.k3" ]

let schemas () = [ ("A", a_schema); ("B", b_schema); ("C", c_schema) ]

type world = {
  w : Query_engine.t;
  mv : Mat_view.t;
  timeline : Dyno_sim.Timeline.t;
  umq : Umq.t;
  registry : Dyno_source.Registry.t;
}

let make_world () =
  let ds1 = Dyno_source.Data_source.create "ds1" in
  Dyno_source.Data_source.add_relation ds1 "A" a_schema;
  Dyno_source.Data_source.add_relation ds1 "B" b_schema;
  Dyno_source.Data_source.load ds1 "A"
    [ [ Value.int 1; Value.string "a1" ]; [ Value.int 2; Value.string "a2" ] ];
  Dyno_source.Data_source.load ds1 "B"
    [ [ Value.int 1; Value.string "b1" ]; [ Value.int 2; Value.string "b2" ] ];
  let ds2 = Dyno_source.Data_source.create "ds2" in
  Dyno_source.Data_source.add_relation ds2 "C" c_schema;
  Dyno_source.Data_source.load ds2 "C"
    [ [ Value.int 1; Value.int 10 ]; [ Value.int 2; Value.int 20 ] ];
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry ds1;
  Dyno_source.Registry.register registry ds2;
  let umq = Umq.create () in
  let timeline = Dyno_sim.Timeline.create () in
  let w =
    Query_engine.create
      ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  let vd = View_def.create ~schemas:(schemas ()) (view_q ()) in
  let mv = Mat_view.create vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation (Dyno_source.Registry.find registry tr.source) tr.rel
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env (view_q ()));
  { w; mv; timeline; umq; registry }

let recompute wd =
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find wd.registry tr.source)
      tr.rel
  in
  Eval.run ~catalog:env (View_def.peek (Mat_view.def wd.mv))

(* Commit a DU at its source immediately and hand the message to VM. *)
let commit_and_maintain ?compensate wd ~source ~rel delta =
  let u = Update.make ~source ~rel delta in
  let v =
    Dyno_source.Data_source.commit_du
      (Dyno_source.Registry.find wd.registry source)
      ~time:(Query_engine.now wd.w) u
  in
  let m =
    Umq.enqueue wd.umq ~commit_time:(Query_engine.now wd.w) ~source_version:v
      (Update_msg.Du u)
  in
  let out = Dyno_vm.Vm.maintain ?compensate wd.w wd.mv m u in
  Umq.remove_head wd.umq;
  out

let test_insert_matches_recompute () =
  let wd = make_world () in
  let delta = Relation.of_list b_schema [ [ Value.int 1; Value.string "b1bis" ] ] in
  (match commit_and_maintain wd ~source:"ds1" ~rel:"B" delta with
  | Dyno_vm.Vm.Refreshed { delta_tuples; stats } ->
      Alcotest.(check int) "one view tuple" 1 delta_tuples;
      Alcotest.(check int) "probes = n-1" 2 stats.Dyno_vm.Sweep.probes
  | _ -> Alcotest.fail "expected refresh");
  Alcotest.(check bool) "extent = recompute" true
    (Relation.equal (recompute wd) (Mat_view.extent wd.mv))

let test_delete_matches_recompute () =
  let wd = make_world () in
  let delta =
    Relation.of_counted a_schema [ ([ Value.int 2; Value.string "a2" ], -1) ]
  in
  (match commit_and_maintain wd ~source:"ds1" ~rel:"A" delta with
  | Dyno_vm.Vm.Refreshed { delta_tuples; _ } ->
      Alcotest.(check int) "one tuple removed" 1 delta_tuples
  | _ -> Alcotest.fail "expected refresh");
  Alcotest.(check bool) "extent = recompute" true
    (Relation.equal (recompute wd) (Mat_view.extent wd.mv));
  Alcotest.(check int) "card dropped" 1 (Relation.cardinality (Mat_view.extent wd.mv))

let test_irrelevant_update () =
  let wd = make_world () in
  let ds2 = Dyno_source.Registry.find wd.registry "ds2" in
  Dyno_source.Data_source.add_relation ds2 "Other" a_schema;
  let delta = Relation.of_list a_schema [ [ Value.int 9; Value.string "zz" ] ] in
  (match commit_and_maintain wd ~source:"ds2" ~rel:"Other" delta with
  | Dyno_vm.Vm.Irrelevant -> ()
  | _ -> Alcotest.fail "expected Irrelevant");
  Alcotest.(check int) "commit recorded anyway" 2 (Mat_view.commit_count wd.mv)

let test_compensation_prevents_duplication () =
  (* While maintaining a C insert, a matching B insert commits mid-probe.
     With compensation the final extent equals the serial recompute after
     both are maintained; without it the shared tuple is duplicated. *)
  let run ~compensate =
    let wd = make_world () in
    let c_delta = Relation.of_list c_schema [ [ Value.int 3; Value.int 30 ] ] in
    let a3 = Relation.of_list a_schema [ [ Value.int 3; Value.string "a3" ] ] in
    let b3 = Relation.of_list b_schema [ [ Value.int 3; Value.string "b3" ] ] in
    (* A(3) exists upfront so the join only awaits B(3) *)
    ignore
      (Dyno_source.Data_source.commit_du
         (Dyno_source.Registry.find wd.registry "ds1")
         ~time:0.0
         (Update.make ~source:"ds1" ~rel:"A" a3));
    (* schedule the concurrent B insert 10ms in: it lands inside the first
       probe's 30ms round trip *)
    Dyno_sim.Timeline.schedule wd.timeline ~time:0.01
      (Dyno_sim.Timeline.Du (Update.make ~source:"ds1" ~rel:"B" b3));
    (match commit_and_maintain ~compensate wd ~source:"ds2" ~rel:"C" c_delta with
    | Dyno_vm.Vm.Refreshed _ -> ()
    | Dyno_vm.Vm.Irrelevant -> Alcotest.fail "not irrelevant"
    | Dyno_vm.Vm.Aborted b ->
        Alcotest.failf "unexpected abort: %a" Dyno_source.Data_source.pp_broken b
    | Dyno_vm.Vm.Unreachable u -> Dyno_net.Retry.absurd u);
    (* now maintain the pending B insert *)
    (match Umq.head wd.umq with
    | Some (Umq.Single m) -> (
        match Update_msg.payload m with
        | Update_msg.Du u ->
            (match Dyno_vm.Vm.maintain ~compensate wd.w wd.mv m u with
            | Dyno_vm.Vm.Refreshed _ -> ()
            | _ -> Alcotest.fail "B maintenance failed");
            Umq.remove_head wd.umq
        | _ -> Alcotest.fail "expected DU")
    | _ -> Alcotest.fail "pending B expected");
    let expected = recompute wd in
    let tup3 =
      Tuple.of_list [ Value.int 3; Value.string "a3"; Value.string "b3"; Value.int 30 ]
    in
    (Relation.count (Mat_view.extent wd.mv) tup3, Relation.equal expected (Mat_view.extent wd.mv))
  in
  let count_with, ok_with = run ~compensate:true in
  Alcotest.(check int) "compensated: exactly once" 1 count_with;
  Alcotest.(check bool) "compensated: equals recompute" true ok_with;
  let count_without, _ = run ~compensate:false in
  Alcotest.(check int) "uncompensated: duplicated" 2 count_without

let test_broken_probe_aborts () =
  let wd = make_world () in
  (* drop C.z (selected by the view) just after the maintenance starts *)
  Dyno_sim.Timeline.schedule wd.timeline ~time:0.001
    (Dyno_sim.Timeline.Sc
       (Schema_change.Drop_attribute { source = "ds2"; rel = "C"; attr = "z" }));
  let delta = Relation.of_list a_schema [ [ Value.int 1; Value.string "dup" ] ] in
  match commit_and_maintain wd ~source:"ds1" ~rel:"A" delta with
  | Dyno_vm.Vm.Aborted b ->
      Alcotest.(check string) "broken at ds2" "ds2" b.Dyno_source.Data_source.source;
      Alcotest.(check bool) "broken flag" true (Umq.broken_query_flag wd.umq)
  | _ -> Alcotest.fail "expected abort"

let test_schema_divergence_aborts () =
  let wd = make_world () in
  (* the source schema evolved but the view manager has not synced: the DU
     delta no longer matches the believed schema *)
  let ds1 = Dyno_source.Registry.find wd.registry "ds1" in
  ignore
    (Dyno_source.Data_source.commit_sc ds1 ~time:0.0
       (Schema_change.Drop_attribute { source = "ds1"; rel = "A"; attr = "x" }));
  let narrow = Schema.of_list [ Attr.int "k" ] in
  let u = Update.make ~source:"ds1" ~rel:"A" (Relation.of_list narrow [ [ Value.int 5 ] ]) in
  let v = Dyno_source.Data_source.commit_du ds1 ~time:0.0 u in
  let m = Umq.enqueue wd.umq ~commit_time:0.0 ~source_version:v (Update_msg.Du u) in
  match Dyno_vm.Vm.maintain wd.w wd.mv m u with
  | Dyno_vm.Vm.Aborted _ -> ()
  | _ -> Alcotest.fail "expected divergence abort"

let test_invalid_view_raises () =
  let wd = make_world () in
  View_def.invalidate (Mat_view.def wd.mv);
  let delta = Relation.of_list a_schema [ [ Value.int 1; Value.string "q" ] ] in
  let u = Update.make ~source:"ds1" ~rel:"A" delta in
  let m = Umq.enqueue wd.umq ~commit_time:0.0 ~source_version:1 (Update_msg.Du u) in
  Alcotest.(check bool) "raises Invalid_view" true
    (match Dyno_vm.Vm.maintain wd.w wd.mv m u with
    | _ -> false
    | exception Dyno_vm.Vm.Invalid_view _ -> true)

(* -- grouped (deferred) maintenance --------------------------------- *)

let enqueue_du wd ~source ~rel delta =
  let u = Update.make ~source ~rel delta in
  let v =
    Dyno_source.Data_source.commit_du
      (Dyno_source.Registry.find wd.registry source)
      ~time:(Query_engine.now wd.w) u
  in
  Umq.enqueue wd.umq ~commit_time:(Query_engine.now wd.w) ~source_version:v
    (Update_msg.Du u)

let test_group_matches_sequential () =
  let wd = make_world () in
  let msgs =
    [
      enqueue_du wd ~source:"ds1" ~rel:"A"
        (Relation.of_list a_schema [ [ Value.int 3; Value.string "a3" ] ]);
      enqueue_du wd ~source:"ds1" ~rel:"B"
        (Relation.of_list b_schema [ [ Value.int 3; Value.string "b3" ] ]);
      enqueue_du wd ~source:"ds2" ~rel:"C"
        (Relation.of_list c_schema [ [ Value.int 3; Value.int 30 ] ]);
      enqueue_du wd ~source:"ds1" ~rel:"A"
        (Relation.of_counted a_schema [ ([ Value.int 1; Value.string "a1" ], -1) ]);
    ]
  in
  (match Dyno_vm.Vm.maintain_group wd.w wd.mv msgs with
  | Dyno_vm.Vm.Refreshed _, [] -> ()
  | _ -> Alcotest.fail "group should refresh, every member on the view");
  List.iter (fun _ -> Umq.remove_head wd.umq) msgs;
  Alcotest.(check bool) "group result = recompute" true
    (Relation.equal (recompute wd) (Mat_view.extent wd.mv));
  (* one commit for the whole group, carrying every id *)
  (match List.rev (Mat_view.commits wd.mv) with
  | last :: _ ->
      Alcotest.(check (list int)) "all ids in one commit"
        (List.sort compare (List.map Update_msg.id msgs))
        (List.sort compare last.Mat_view.maintained)
  | [] -> Alcotest.fail "commit expected");
  Alcotest.(check int) "exactly two commits (init + group)" 2
    (Mat_view.commit_count wd.mv)

let test_group_abort_leaves_view_untouched () =
  let wd = make_world () in
  let before = Relation.copy (Mat_view.extent wd.mv) in
  let msgs =
    [
      enqueue_du wd ~source:"ds1" ~rel:"A"
        (Relation.of_list a_schema [ [ Value.int 4; Value.string "a4" ] ]);
    ]
  in
  (* an SC breaks the sweep mid-group *)
  Dyno_sim.Timeline.schedule wd.timeline ~time:(Query_engine.now wd.w +. 0.001)
    (Dyno_sim.Timeline.Sc
       (Schema_change.Drop_attribute { source = "ds2"; rel = "C"; attr = "z" }));
  (match Dyno_vm.Vm.maintain_group wd.w wd.mv msgs with
  | Dyno_vm.Vm.Aborted _, _ -> ()
  | _ -> Alcotest.fail "expected abort");
  Alcotest.(check bool) "extent unchanged on abort" true
    (Relation.equal before (Mat_view.extent wd.mv))

let test_group_rejects_sc () =
  let wd = make_world () in
  let m =
    Umq.enqueue wd.umq ~commit_time:0.0 ~source_version:1
      (Update_msg.Sc
         (Schema_change.Rename_relation
            { source = "ds1"; old_name = "A"; new_name = "A2" }))
  in
  Alcotest.(check bool) "SC in group rejected" true
    (match Dyno_vm.Vm.maintain_group wd.w wd.mv [ m ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* -- prepared probe plans across a schema change --------------------- *)

let outcome_to_string = function
  | Dyno_vm.Vm.Refreshed { delta_tuples; stats } ->
      Fmt.str "refreshed %d tuple(s), %d probe(s), %d compensation(s)"
        delta_tuples stats.Dyno_vm.Sweep.probes
        stats.Dyno_vm.Sweep.compensations
  | Dyno_vm.Vm.Irrelevant -> "irrelevant"
  | Dyno_vm.Vm.Aborted b -> Fmt.str "%a" Dyno_source.Data_source.pp_broken b
  | Dyno_vm.Vm.Unreachable u -> Dyno_net.Retry.absurd u

(* Maintain a DU on A — which compiles A's sweep, probe plans included —
   then commit [sc] at ds2 (C's source) without maintaining it, leave
   [pending] DUs on C queued, and maintain a second DU on A whose sweep
   probes C with the plan prepared before the change. *)
let maintain_across_sc sc ~pending =
  let wd = make_world () in
  ignore
    (commit_and_maintain wd ~source:"ds1" ~rel:"A"
       (Relation.of_list a_schema [ [ Value.int 3; Value.string "a3" ] ]));
  let vd = Mat_view.def wd.mv in
  let a_ref = List.hd (Query.from (View_def.peek vd)) in
  let before = Dyno_vm.Maint_query.sweep_for vd a_ref in
  let ds2 = Dyno_source.Registry.find wd.registry "ds2" in
  ignore
    (Dyno_source.Data_source.commit_sc ds2 ~time:(Query_engine.now wd.w) sc);
  List.iter (fun d -> ignore (enqueue_du wd ~source:"ds2" ~rel:"C" d)) pending;
  let m =
    enqueue_du wd ~source:"ds1" ~rel:"A"
      (Relation.of_list a_schema [ [ Value.int 1; Value.string "a1bis" ] ])
  in
  let out = Dyno_vm.Vm.maintain wd.w wd.mv m (Option.get (Update_msg.as_du m)) in
  Alcotest.(check bool) "the sweep compiled before the change was used" true
    (Dyno_vm.Maint_query.sweep_for vd a_ref == before);
  outcome_to_string out

let test_plan_across_sc () =
  (* the source re-prepares against its renamed schema: same broken
     reason as an unprepared probe *)
  Alcotest.(check string) "rename breaks the probe alike"
    "broken query maint:V:C at ds2: relation C has no attribute z"
    (maintain_across_sc ~pending:[]
       (Schema_change.Rename_attribute
          { source = "ds2"; rel = "C"; old_name = "z"; new_name = "zz" }));
  (* an added attribute breaks nothing: the probe and the compensation
     over a pending DU in the new schema both re-prepare and succeed *)
  let c3 = Schema.of_list [ Attr.int "k3"; Attr.int "z"; Attr.int "w" ] in
  Alcotest.(check string) "add keeps the probe working"
    "refreshed 1 tuple(s), 2 probe(s), 1 compensation(s)"
    (maintain_across_sc
       ~pending:
         [ Relation.of_list c3 [ [ Value.int 1; Value.int 11; Value.int 0 ] ] ]
       (Schema_change.Add_attribute
          { source = "ds2"; rel = "C"; attr = Attr.int "w"; default = Value.int 0 }))


let test_maint_query_shapes () =
  (* probe_query structure: selects needed attrs (prefixed) + partial
     columns, joins against the shipped partial *)
  let owner = Dyno_vm.Maint_query.owner_of_schemas (schemas ()) in
  let q = view_q () in
  let pivot = List.hd (Query.from q) in
  let sw = Dyno_vm.Maint_query.compile ~version:0 q (schemas ()) pivot in
  let partial = Dyno_vm.Maint_query.start sw
      (Relation.of_list a_schema [ [ Value.int 1; Value.string "v" ] ])
  in
  Alcotest.(check (list string)) "prefixed partial columns" [ "A__k"; "A__x" ]
    (Schema.names (Rows.schema partial));
  let b_ref = List.nth (Query.from q) 1 in
  let probe =
    Dyno_vm.Maint_query.probe_query q owner b_ref
      ~partial_schema:(Rows.schema partial) ~bound:[ "A" ]
  in
  Alcotest.(check int) "probe FROM has table + partial" 2
    (List.length (Query.from probe));
  Alcotest.(check bool) "join condition present" true (Query.where probe <> []);
  let out_schema = Dyno_vm.Maint_query.view_output_schema q (schemas ()) in
  Alcotest.(check (list string)) "output schema" [ "k"; "x"; "y"; "z" ]
    (Schema.names out_schema)

let test_sweep_order () =
  let q = view_q () in
  let order = Dyno_vm.Maint_query.sweep_order q "B" in
  Alcotest.(check (list string)) "left then right" [ "A"; "C" ]
    (List.map (fun (tr : Query.table_ref) -> tr.alias) order);
  let order2 = Dyno_vm.Maint_query.sweep_order q "C" in
  Alcotest.(check (list string)) "walk left from the end" [ "B"; "A" ]
    (List.map (fun (tr : Query.table_ref) -> tr.alias) order2)

let () =
  Alcotest.run "vm"
    [
      ( "maintenance",
        [
          Alcotest.test_case "insert matches recompute" `Quick test_insert_matches_recompute;
          Alcotest.test_case "delete matches recompute" `Quick test_delete_matches_recompute;
          Alcotest.test_case "irrelevant update" `Quick test_irrelevant_update;
          Alcotest.test_case "compensation vs duplication anomaly" `Quick
            test_compensation_prevents_duplication;
          Alcotest.test_case "broken probe aborts" `Quick test_broken_probe_aborts;
          Alcotest.test_case "schema divergence aborts" `Quick test_schema_divergence_aborts;
          Alcotest.test_case "invalid view raises" `Quick test_invalid_view_raises;
        ] );
      ( "grouped maintenance",
        [
          Alcotest.test_case "group = sequential result" `Quick
            test_group_matches_sequential;
          Alcotest.test_case "abort leaves view untouched" `Quick
            test_group_abort_leaves_view_untouched;
          Alcotest.test_case "schema change rejected" `Quick test_group_rejects_sc;
        ] );
      ( "maintenance queries",
        [
          Alcotest.test_case "probe/partial shapes" `Quick test_maint_query_shapes;
          Alcotest.test_case "sweep order" `Quick test_sweep_order;
          Alcotest.test_case "prepared plan across a schema change" `Quick
            test_plan_across_sc;
        ] );
    ]
