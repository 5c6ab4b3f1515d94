(* Unit tests for view adaptation (VA): Equation 6, compensated fetches,
   extent replacement, and the Section 5 batch preprocessing. *)

open Dyno_relational
open Dyno_view

let a_schema = Schema.of_list [ Attr.int "k"; Attr.string "x" ]
let b_schema = Schema.of_list [ Attr.int "k2"; Attr.int "w" ]

let q2 () =
  Query.make ~name:"V"
    ~select:[ Query.item "A.k"; Query.item "A.x"; Query.item "B.w" ]
    ~from:[ Query.table ~alias:"A" "ds1" "A"; Query.table ~alias:"B" "ds1" "B" ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2" ]

let rel_a rows = Relation.of_list a_schema rows
let rel_b rows = Relation.of_list b_schema rows

(* -- Equation 6 ----------------------------------------------------- *)

let check_equation6 ~old_a ~new_a ~old_b ~new_b =
  let q = q2 () in
  let old_env = [ ("A", old_a); ("B", old_b) ] in
  let new_env = [ ("A", new_a); ("B", new_b) ] in
  let dv = Dyno_va.Adapt.equation6 ~old_env ~new_env q in
  let expected =
    Relation.diff (Eval.run ~catalog:(Eval.catalog new_env) q) (Eval.run ~catalog:(Eval.catalog old_env) q)
  in
  Alcotest.(check bool) "ΔV = V(new) − V(old)" true (Relation.equal dv expected)

let test_equation6_inserts () =
  check_equation6
    ~old_a:(rel_a [ [ Value.int 1; Value.string "a" ] ])
    ~new_a:(rel_a [ [ Value.int 1; Value.string "a" ]; [ Value.int 2; Value.string "b" ] ])
    ~old_b:(rel_b [ [ Value.int 1; Value.int 10 ] ])
    ~new_b:(rel_b [ [ Value.int 1; Value.int 10 ]; [ Value.int 2; Value.int 20 ] ])

let test_equation6_deletes () =
  check_equation6
    ~old_a:(rel_a [ [ Value.int 1; Value.string "a" ]; [ Value.int 2; Value.string "b" ] ])
    ~new_a:(rel_a [ [ Value.int 2; Value.string "b" ] ])
    ~old_b:(rel_b [ [ Value.int 1; Value.int 10 ]; [ Value.int 2; Value.int 20 ] ])
    ~new_b:(rel_b [ [ Value.int 2; Value.int 20 ] ])

let test_equation6_mixed_both_sides () =
  (* simultaneous inserts and deletes on both relations, including a key
     that moves: the cross terms matter here *)
  check_equation6
    ~old_a:(rel_a [ [ Value.int 1; Value.string "a" ]; [ Value.int 3; Value.string "c" ] ])
    ~new_a:(rel_a [ [ Value.int 1; Value.string "a'" ]; [ Value.int 2; Value.string "b" ] ])
    ~old_b:(rel_b [ [ Value.int 1; Value.int 10 ]; [ Value.int 3; Value.int 30 ] ])
    ~new_b:(rel_b [ [ Value.int 1; Value.int 11 ]; [ Value.int 2; Value.int 20 ] ])

let test_equation6_no_change () =
  let a = rel_a [ [ Value.int 1; Value.string "a" ] ] in
  let b = rel_b [ [ Value.int 1; Value.int 10 ] ] in
  let dv =
    Dyno_va.Adapt.equation6
      ~old_env:[ ("A", a); ("B", b) ]
      ~new_env:[ ("A", a); ("B", b) ]
      (q2 ())
  in
  Alcotest.(check int) "empty delta" 0 (Relation.support dv);
  Alcotest.(check (list string)) "delta has view schema" [ "k"; "x"; "w" ]
    (Schema.names (Relation.schema dv))

(* -- delta-first Equation 6 over a three-alias chain ------------------

   With two aliases FROM order and SWEEP order coincide; over the chain
   A–B–C the term of B is evaluated as B, A, C and the term of C as
   C, B, A, so the pivoted plans are exercised. *)

let ia = Schema.of_list [ Attr.int "k"; Attr.int "x" ]
let ib = Schema.of_list [ Attr.int "k2"; Attr.int "w" ]
let ic = Schema.of_list [ Attr.int "k3"; Attr.int "z" ]

let q3 () =
  Query.make ~name:"V3"
    ~select:[ Query.item "A.x"; Query.item "B.w"; Query.item "C.z" ]
    ~from:
      [
        Query.table ~alias:"A" "ds1" "A";
        Query.table ~alias:"B" "ds1" "B";
        Query.table ~alias:"C" "ds2" "C";
      ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2"; Predicate.eq_attr "B.w" "C.k3" ]

let ints sch rows =
  Relation.of_counted sch (List.map (fun (a, b, c) -> ([ Value.int a; Value.int b ], c)) rows)

(* Equation 6 with the deltas passed in, against V(new) − V(old), under
   both planners.  Aliases whose state does not change pass no delta. *)
let equation6_matches ~old_env ~new_env =
  let q = q3 () in
  let deltas =
    List.filter_map
      (fun (a, n) ->
        let d = Relation.diff n (List.assoc a old_env) in
        if Relation.is_empty d then None else Some (a, d))
      new_env
  in
  List.for_all
    (fun planner ->
      let dv = Dyno_va.Adapt.equation6 ~planner ~deltas ~old_env ~new_env q in
      Relation.equal dv
        (Relation.diff
           (Eval.run ~planner ~catalog:(Eval.catalog new_env) q)
           (Eval.run ~planner ~catalog:(Eval.catalog old_env) q)))
    [ `Indexed; `Nested_loop ]

let test_equation6_chain_deltas () =
  let a = ints ia [ (1, 10, 1); (2, 20, 1); (3, 30, 2) ] in
  let old_b = ints ib [ (1, 5, 1); (2, 6, 1) ] in
  let new_b = ints ib [ (1, 5, 1); (2, 7, 1); (3, 5, 1) ] in
  let old_c = ints ic [ (5, 50, 1); (6, 60, 1) ] in
  let new_c = ints ic [ (5, 50, 2); (7, 70, 1) ] in
  Alcotest.(check bool) "ΔV = V(new) − V(old), middle and last alias changed" true
    (equation6_matches
       ~old_env:[ ("A", a); ("B", old_b); ("C", old_c) ]
       ~new_env:[ ("A", a); ("B", new_b); ("C", new_c) ])

let prop_equation6_chain =
  let gen_rel sch =
    QCheck.Gen.(
      map (ints sch)
        (list_size (int_range 0 6)
           (triple (int_range 0 3) (int_range 0 3) (int_range (-2) 2))))
  in
  let gen_alias sch =
    QCheck.Gen.(
      map3
        (fun old fresh changed -> (old, if changed then fresh else old))
        (gen_rel sch) (gen_rel sch) bool)
  in
  QCheck.Test.make ~name:"delta-first equation6 = V(new) - V(old), signed, both planners"
    ~count:200
    (QCheck.make
       ~print:(fun ((a, _), (b, _), (c, _)) ->
         Fmt.str "old A %a@.old B %a@.old C %a" Relation.pp a Relation.pp b
           Relation.pp c)
       QCheck.Gen.(triple (gen_alias ia) (gen_alias ib) (gen_alias ic)))
    (fun ((old_a, new_a), (old_b, new_b), (old_c, new_c)) ->
      equation6_matches
        ~old_env:[ ("A", old_a); ("B", old_b); ("C", old_c) ]
        ~new_env:[ ("A", new_a); ("B", new_b); ("C", new_c) ])

(* -- batch preprocessing (Section 5) -------------------------------- *)

let msg id payload = Update_msg.make ~id ~commit_time:0.0 ~source_version:id payload

let test_preprocess_merges_dus () =
  let d1 = Update.make ~source:"ds" ~rel:"R" (rel_a [ [ Value.int 1; Value.string "p" ] ]) in
  let d2 = Update.make ~source:"ds" ~rel:"R" (rel_a [ [ Value.int 2; Value.string "q" ] ]) in
  let prep =
    Dyno_va.Batch.preprocess [ msg 0 (Update_msg.Du d1); msg 1 (Update_msg.Du d2) ]
  in
  Alcotest.(check int) "no SCs" 0 (List.length prep.Dyno_va.Batch.scs);
  (match prep.Dyno_va.Batch.du_deltas with
  | [ (src, rel, d) ] ->
      Alcotest.(check string) "source" "ds" src;
      Alcotest.(check string) "rel" "R" rel;
      Alcotest.(check int) "merged" 2 (Relation.cardinality d)
  | _ -> Alcotest.fail "one merged delta expected")

let test_preprocess_projects_through_sc () =
  (* the paper's §5 sequence: insert (k,x), drop x, insert (k): merged into
     homogeneous single-column inserts *)
  let d1 = Update.make ~source:"ds" ~rel:"R" (rel_a [ [ Value.int 3; Value.string "s" ] ]) in
  let sc = Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = "x" } in
  let narrow = Schema.of_list [ Attr.int "k" ] in
  let d2 = Update.make ~source:"ds" ~rel:"R" (Relation.of_list narrow [ [ Value.int 5 ] ]) in
  let prep =
    Dyno_va.Batch.preprocess
      [ msg 0 (Update_msg.Du d1); msg 1 (Update_msg.Sc sc); msg 2 (Update_msg.Du d2) ]
  in
  (match prep.Dyno_va.Batch.du_deltas with
  | [ (_, "R", d) ] ->
      Alcotest.(check int) "both inserts survive" 2 (Relation.cardinality d);
      Alcotest.(check (list string)) "homogeneous schema" [ "k" ]
        (Schema.names (Relation.schema d));
      Alcotest.(check int) "(3) present" 1 (Relation.count d (Tuple.of_list [ Value.int 3 ]));
      Alcotest.(check int) "(5) present" 1 (Relation.count d (Tuple.of_list [ Value.int 5 ]))
  | _ -> Alcotest.fail "one merged delta expected");
  Alcotest.(check int) "sc kept" 1 (List.length prep.Dyno_va.Batch.scs)

let test_preprocess_rename_rekeys () =
  let d1 = Update.make ~source:"ds" ~rel:"R" (rel_a [ [ Value.int 1; Value.string "a" ] ]) in
  let sc = Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "R2" } in
  let d2 = Update.make ~source:"ds" ~rel:"R2" (rel_a [ [ Value.int 2; Value.string "b" ] ]) in
  let prep =
    Dyno_va.Batch.preprocess
      [ msg 0 (Update_msg.Du d1); msg 1 (Update_msg.Sc sc); msg 2 (Update_msg.Du d2) ]
  in
  match prep.Dyno_va.Batch.du_deltas with
  | [ (_, rel, d) ] ->
      Alcotest.(check string) "keyed under final name" "R2" rel;
      Alcotest.(check int) "merged across rename" 2 (Relation.cardinality d)
  | _ -> Alcotest.fail "one merged delta expected"

let test_preprocess_drop_absorbs () =
  let d1 = Update.make ~source:"ds" ~rel:"R" (rel_a [ [ Value.int 1; Value.string "a" ] ]) in
  let sc = Schema_change.Drop_relation { source = "ds"; name = "R" } in
  let prep =
    Dyno_va.Batch.preprocess [ msg 0 (Update_msg.Du d1); msg 1 (Update_msg.Sc sc) ]
  in
  Alcotest.(check int) "delta absorbed" 0 (List.length prep.Dyno_va.Batch.du_deltas);
  Alcotest.(check int) "tuple counted as dropped" 1 prep.Dyno_va.Batch.dropped_du_tuples

(* -- same_shape classification --------------------------------------- *)

let test_same_shape () =
  let old_query = q2 () in
  let old_schemas = [ ("A", a_schema); ("B", b_schema) ] in
  (* pure relation rename: same shape *)
  let renamed = Query.rename_relation old_query ~source:"ds1" ~old_rel:"A" ~new_rel:"A2" in
  Alcotest.(check bool) "rename keeps shape" true
    (Dyno_va.Batch.same_shape ~old_query ~old_schemas ~new_query:renamed
       ~new_schemas:old_schemas);
  (* dropping a select item changes shape *)
  let narrower =
    { old_query with Query.select = [ Query.item "A.k"; Query.item "B.w" ] }
  in
  Alcotest.(check bool) "narrower select changes shape" false
    (Dyno_va.Batch.same_shape ~old_query ~old_schemas ~new_query:narrower
       ~new_schemas:old_schemas)

(* -- compensated fetch + full replace over a live world -------------- *)

let make_world ?(cost = Dyno_sim.Cost_model.free)
    ?(timeline = Dyno_sim.Timeline.create ()) () =
  let ds1 = Dyno_source.Data_source.create "ds1" in
  Dyno_source.Data_source.add_relation ds1 "A" a_schema;
  Dyno_source.Data_source.add_relation ds1 "B" b_schema;
  Dyno_source.Data_source.load ds1 "A" [ [ Value.int 1; Value.string "a" ] ];
  Dyno_source.Data_source.load ds1 "B" [ [ Value.int 1; Value.int 10 ] ];
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry ds1;
  let umq = Umq.create () in
  let w = Query_engine.create ~cost ~registry ~timeline ~umq () in
  let vd = View_def.create ~schemas:[ ("A", a_schema); ("B", b_schema) ] (q2 ()) in
  let mv = Mat_view.create vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) = Dyno_source.Data_source.relation ds1 tr.rel in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env (q2 ()));
  (w, mv, ds1, umq)

let test_fetch_compensated () =
  let w, mv, ds1, umq = make_world () in
  (* a pending, unmaintained DU must be compensated away *)
  let u = Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 2; Value.string "zz" ] ]) in
  let v = Dyno_source.Data_source.commit_du ds1 ~time:0.0 u in
  ignore (Umq.enqueue umq ~commit_time:0.0 ~source_version:v (Update_msg.Du u));
  let vd = Mat_view.def mv in
  let tr = List.hd (Query.from (View_def.peek vd)) in
  (match
     Dyno_va.Adapt.fetch_compensated w ~query:(View_def.peek vd)
       ~schemas:(View_def.schemas vd) tr ~exclude:[]
   with
  | Ok r ->
      Alcotest.(check int) "pending insert hidden" 1 (Relation.cardinality r)
  | Error f -> Alcotest.failf "broken: %a" Query_engine.pp_failure f);
  (* with the message excluded (being maintained), the insert stays *)
  match
    Dyno_va.Adapt.fetch_compensated w ~query:(View_def.peek vd)
      ~schemas:(View_def.schemas vd) tr ~exclude:[ 0 ]
  with
  | Ok r -> Alcotest.(check int) "excluded id stays" 2 (Relation.cardinality r)
  | Error f -> Alcotest.failf "broken: %a" Query_engine.pp_failure f

(* The adaptation charge after a fetch delivers commits into the queue,
   and with them into its live pending sums.  Compensation must read the
   sums at the answer's frontier, before the charge: a DU committed
   inside the charge is not in the answer, so it must not be subtracted
   from it. *)
let test_fetch_compensation_frontier () =
  let timeline = Dyno_sim.Timeline.create () in
  let w, mv, ds1, umq =
    make_world ~timeline
      ~cost:{ Dyno_sim.Cost_model.free with va_per_tuple = 1.0 }
      ()
  in
  let u = Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 2; Value.string "zz" ] ]) in
  let v = Dyno_source.Data_source.commit_du ds1 ~time:0.0 u in
  ignore (Umq.enqueue umq ~commit_time:0.0 ~source_version:v (Update_msg.Du u));
  let vd = Mat_view.def mv in
  let tr = List.hd (Query.from (View_def.peek vd)) in
  let fetch () =
    Dyno_va.Adapt.fetch_compensated w ~query:(View_def.peek vd)
      ~schemas:(View_def.schemas vd) tr ~exclude:[]
  in
  (* The first read builds A's sums; its charge (2 rows scanned) moves
     the clock to 2 s. *)
  (match fetch () with
  | Ok r -> Alcotest.(check int) "pending insert hidden" 1 (Relation.cardinality r)
  | Error f -> Alcotest.failf "broken: %a" Query_engine.pp_failure f);
  Alcotest.(check (float 1e-9)) "first charge" 2.0 (Query_engine.now w);
  (* A later insert commits 0.5 s into the second read's charge. *)
  Dyno_sim.Timeline.schedule timeline ~time:2.5
    (Dyno_sim.Timeline.Du
       (Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 3; Value.string "late" ] ])));
  (match fetch () with
  | Ok r ->
      Alcotest.(check int) "answer keeps only the initial row" 1 (Relation.cardinality r);
      Alcotest.(check int) "the late insert is not subtracted" 0
        (Relation.count r (Tuple.of_list [ Value.int 3; Value.string "late" ]))
  | Error f -> Alcotest.failf "broken: %a" Query_engine.pp_failure f);
  Alcotest.(check int) "the late insert was delivered during the charge" 2
    (List.length (Umq.pending_dus umq ~source:"ds1" ~rel:"A"))

let test_replace_extent_after_sync () =
  let w, mv, ds1, _umq = make_world () in
  (* source drops A.x; the view drops it too (simulate a dispensable
     rewrite by hand), then adaptation rebuilds the extent *)
  ignore
    (Dyno_source.Data_source.commit_sc ds1 ~time:0.0
       (Schema_change.Drop_attribute { source = "ds1"; rel = "A"; attr = "x" }));
  let vd = Mat_view.def mv in
  let new_q =
    Query.make ~name:"V"
      ~select:[ Query.item "A.k"; Query.item "B.w" ]
      ~from:(Query.from (View_def.peek vd))
      ~where:(Query.where (View_def.peek vd))
  in
  View_def.write vd ~schemas:[ ("A", Schema.of_list [ Attr.int "k" ]); ("B", b_schema) ] new_q;
  (match Dyno_va.Adapt.replace_extent w mv ~maintained:[ 42 ] ~exclude:[ 42 ] with
  | Ok () -> ()
  | Error f -> Alcotest.failf "broken: %a" Query_engine.pp_failure f);
  Alcotest.(check (list string)) "new extent schema" [ "k"; "w" ]
    (Schema.names (Relation.schema (Mat_view.extent mv)));
  Alcotest.(check int) "one row" 1 (Relation.cardinality (Mat_view.extent mv))

let () =
  Alcotest.run "va"
    [
      ( "equation 6",
        [
          Alcotest.test_case "inserts" `Quick test_equation6_inserts;
          Alcotest.test_case "deletes" `Quick test_equation6_deletes;
          Alcotest.test_case "mixed on both sides" `Quick test_equation6_mixed_both_sides;
          Alcotest.test_case "no change" `Quick test_equation6_no_change;
          Alcotest.test_case "three-alias chain, deltas passed" `Quick
            test_equation6_chain_deltas;
          QCheck_alcotest.to_alcotest prop_equation6_chain;
        ] );
      ( "batch preprocessing",
        [
          Alcotest.test_case "merges DUs" `Quick test_preprocess_merges_dus;
          Alcotest.test_case "projects through SC (paper §5)" `Quick
            test_preprocess_projects_through_sc;
          Alcotest.test_case "rename re-keys accumulators" `Quick test_preprocess_rename_rekeys;
          Alcotest.test_case "relation drop absorbs deltas" `Quick test_preprocess_drop_absorbs;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "shape classification" `Quick test_same_shape;
          Alcotest.test_case "compensated fetch" `Quick test_fetch_compensated;
          Alcotest.test_case "compensation frontier under a charge" `Quick
            test_fetch_compensation_frontier;
          Alcotest.test_case "replace extent after sync" `Quick test_replace_extent_after_sync;
        ] );
    ]
