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

(* Each state as a sum input with no part. *)
let sums env = List.map (fun (a, r) -> (a, Eval.sum (Rows.of_relation r))) env

(* ΔRᵢ = new − old of every alias whose state changed. *)
let deltas_of ~old_env ~new_env =
  List.filter_map
    (fun (a, n) ->
      let d = Relation.diff n (List.assoc a old_env) in
      if Relation.is_empty d then None else Some (a, d))
    new_env

let check_equation6 ~old_a ~new_a ~old_b ~new_b =
  let q = q2 () in
  let old_env = [ ("A", old_a); ("B", old_b) ] in
  let new_env = [ ("A", new_a); ("B", new_b) ] in
  let dv =
    Dyno_va.Adapt.equation6
      ~deltas:(deltas_of ~old_env ~new_env)
      ~old_env:(sums old_env) ~new_env:(sums new_env) q
  in
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
    Dyno_va.Adapt.equation6 ~deltas:[]
      ~old_env:(sums [ ("A", a); ("B", b) ])
      ~new_env:(sums [ ("A", a); ("B", b) ])
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
  let deltas = deltas_of ~old_env ~new_env in
  List.for_all
    (fun planner ->
      let dv =
        Dyno_va.Adapt.equation6 ~planner ~deltas ~old_env:(sums old_env)
          ~new_env:(sums new_env) q
      in
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
  let w = Query_engine.create ~cost ~registry ~timeline ~umqs:[| umq |] () in
  let vd = View_def.create ~schemas:[ ("A", a_schema); ("B", b_schema) ] (q2 ()) in
  let mv = Mat_view.create vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) = Dyno_source.Data_source.relation ds1 tr.rel in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env (q2 ()));
  (w, mv, ds1, umq)

(* A compensated state consolidated, for reading: a private copy. *)
let consolidated (s : Eval.sum) =
  let r = Relation.copy (Rows.relation s.Eval.base) in
  List.iter (fun (k, p) -> Relation.sum_in_place ~scale:k r p) s.Eval.parts;
  r

(* The compensated state of the view's first relation, read while the
   adaptation holds its fetch. *)
let fetch_first ?(inside = fun _ -> ()) w mv ~exclude =
  let vd = Mat_view.def mv in
  let f =
    List.hd (Dyno_va.Adapt.fetches (View_def.peek vd) (View_def.schemas vd))
  in
  Dyno_va.Adapt.holding w (fun held ->
      match Dyno_va.Adapt.fetch_compensated w held f ~exclude with
      | Ok s ->
          inside s;
          consolidated s
      | Error e -> Alcotest.failf "broken: %a" Dyno_source.Data_source.pp_broken e)

let test_fetch_compensated () =
  let w, mv, ds1, umq = make_world () in
  (* a pending, unmaintained DU must be compensated away *)
  let u = Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 2; Value.string "zz" ] ]) in
  let v = Dyno_source.Data_source.commit_du ds1 ~time:0.0 u in
  ignore (Umq.enqueue umq ~commit_time:0.0 ~source_version:v (Update_msg.Du u));
  Alcotest.(check int) "pending insert hidden" 1
    (Relation.cardinality (fetch_first w mv ~exclude:[]));
  (* with the message excluded (being maintained), the insert stays *)
  Alcotest.(check int) "excluded id stays" 2
    (Relation.cardinality (fetch_first w mv ~exclude:[ 0 ]))

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
  (* The first read builds A's sums; its charge (2 rows scanned) moves
     the clock to 2 s. *)
  Alcotest.(check int) "pending insert hidden" 1
    (Relation.cardinality (fetch_first w mv ~exclude:[]));
  Alcotest.(check (float 1e-9)) "first charge" 2.0 (Query_engine.now w);
  (* A later insert commits 0.5 s into the second read's charge. *)
  Dyno_sim.Timeline.schedule timeline ~time:2.5
    (Dyno_sim.Timeline.Du
       (Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 3; Value.string "late" ] ])));
  let r = fetch_first w mv ~exclude:[] in
  Alcotest.(check int) "answer keeps only the initial row" 1 (Relation.cardinality r);
  Alcotest.(check int) "the late insert is not subtracted" 0
    (Relation.count r (Tuple.of_list [ Value.int 3; Value.string "late" ]));
  Alcotest.(check int) "the late insert was delivered during the charge" 2
    (List.length (Umq.pending_dus umq ~source:"ds1" ~rel:"A"))

(* -- fetches read the source's own extent, pinned ---------------------- *)

let tuples_of r = Relation.fold (fun t c acc -> (t, c) :: acc) r [] |> List.sort compare

let key1 = Tuple.of_list [ Value.int 1 ]

let bucket r =
  match Relation.find_index_pos r [| 0 |] with
  | Some ix -> List.sort compare (Index.lookup ix key1)
  | None -> Alcotest.fail "no key index"

(* A world whose A has its key index built at the source, as SWEEP
   probes build it. *)
let indexed_world () =
  let w, mv, ds1, _ = make_world () in
  ignore
    (Relation.ensure_index_pos (Dyno_source.Data_source.relation ds1 "A") [| 0 |]
      : Index.t);
  (w, mv, ds1)

(* The identity fetch is the source's extent itself, no copy: the very
   relation, with the source's key index ready to probe, and while no
   commit lands on it the source keeps it as its live extent. *)
let test_identity_fetch_shares () =
  let w, mv, ds1 = indexed_world () in
  let src = Dyno_source.Data_source.relation ds1 "A" in
  let inside (s : Eval.sum) =
    match s.Eval.base with
    | Rows.Flat _ | Rows.Projected _ ->
        Alcotest.fail "an identity fetch came back flat or projected"
    | Rows.Hashed r -> (
        Alcotest.(check bool) "the fetch is the source's relation" true (r == src);
        match Relation.find_index_pos r [| 0 |] with
        | None -> Alcotest.fail "the fetch lost the source's key index"
        | Some ix ->
            Alcotest.(check int) "index covers the fetch" (Relation.support r)
              (Index.support ix))
  in
  let r = fetch_first ~inside w mv ~exclude:[] in
  Alcotest.(check bool) "same contents" true (Relation.equal src r);
  Alcotest.(check bool) "no commit landed: nothing was copied" true
    (Dyno_source.Data_source.relation ds1 "A" == src);
  (* released: the next commit updates the extent in place *)
  ignore
    (Dyno_source.Data_source.commit_du ds1 ~time:1.0
       (Update.make ~source:"ds1" ~rel:"A" (rel_a [ [ Value.int 7; Value.string "g" ] ])));
  Alcotest.(check bool) "unpinned: updated in place" true
    (Dyno_source.Data_source.relation ds1 "A" == src);
  Alcotest.(check int) "in place" 2 (Relation.support src)

(* A commit landing after the fetch changes the source and its index,
   never the fetched relation or its: the source swaps onto a copy. *)
let test_fetch_isolated_from_commits () =
  let w, mv, ds1 = indexed_world () in
  let src = Dyno_source.Data_source.relation ds1 "A" in
  let before = tuples_of src and bucket_before = bucket src in
  let inside (_ : Eval.sum) =
    ignore
      (Dyno_source.Data_source.commit_du ds1 ~time:1.0
         (Update.make ~source:"ds1" ~rel:"A"
            (Relation.of_counted a_schema
               [
                 ([ Value.int 1; Value.string "a" ], -1);
                 ([ Value.int 1; Value.string "b" ], 1);
                 ([ Value.int 5; Value.string "e" ], 1);
               ])))
  in
  ignore (fetch_first ~inside w mv ~exclude:[] : Relation.t);
  let live = Dyno_source.Data_source.relation ds1 "A" in
  Alcotest.(check bool) "the source moved onto a copy" true (live != src);
  Alcotest.(check int) "the source moved" 2 (Relation.support live);
  Alcotest.(check bool) "fetched data unchanged" true (before = tuples_of src);
  Alcotest.(check bool) "fetched index unchanged" true (bucket_before = bucket src);
  Alcotest.(check (list (pair (testable Tuple.pp Tuple.equal) int)))
    "the source's index follows the source"
    [ (Tuple.of_list [ Value.int 1; Value.string "b" ], 1) ]
    (bucket live)

(* -- allocation budget of one merged-batch adaptation -------------------

   Churn-shaped: the paper's world at 500 rows, 120 DUs queued around a
   relation rename, and the rename maintained with the 60 DUs committed
   before it as one batch.  The rename keeps the view's shape, so the
   batch adapts by Equation 6 over six compensated fetches (the 60 later
   DUs are pending).  Words are minor + major - promoted; no clock is
   read, so the count is deterministic. *)
let batch_words () =
  let rows = 500 and seed = 24 in
  let requests =
    List.init 60 (fun _ -> Dyno_workload.Generator.At_du 0.0)
    @ [ Dyno_workload.Generator.At_sc (0.0, Dyno_workload.Generator.Rename_rel) ]
    @ List.init 60 (fun _ -> Dyno_workload.Generator.At_du 0.0)
  in
  let t =
    Dyno_workload.Spec.build
      { Dyno_workload.Spec.default with seed; world = Dyno_workload.Spec.paper_world ~rows }
      ~timeline:(Dyno_workload.Generator.build ~rows ~seed requests)
  in
  let w = t.Dyno_workload.Scenario.engine in
  Query_engine.deliver_due w;
  let rec through_sc = function
    | [] -> []
    | m :: rest -> (
        match Update_msg.payload m with
        | Update_msg.Sc _ -> [ m ]
        | Update_msg.Du _ -> m :: through_sc rest)
  in
  let batch = through_sc (Umq.messages t.Dyno_workload.Scenario.umq) in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let outcome =
    Dyno_va.Batch.maintain w t.Dyno_workload.Scenario.mv
      t.Dyno_workload.Scenario.mk batch
  in
  let used = words () -. w0 in
  (match outcome with
  | Dyno_va.Batch.Adapted -> ()
  | _ -> Alcotest.fail "the batch did not adapt");
  used

(* Re-hashing every fetched tuple, copying each fetch per pending group
   and indexing every old state cost this batch about 658k words; fetches
   that copy the source's table and indexes, compensated in place, about
   388k (OCaml 5.1, 64-bit). *)
let test_batch_allocation_budget () =
  let used = batch_words () in
  if used > 500_000.0 then
    Alcotest.failf "the batch allocates %.0f words (budget 500k)" used

(* -- an Equation 6 adaptation copies nothing it fetches -----------------

   The paper's world at [rows] rows, two attribute renames queued.  The
   first is maintained as a warm-up; the words of the second are
   returned.  A rename keeps the view's shape, so each adapts by
   Equation 6 over six identity fetches and no delta: nothing of the
   work depends on the rows unless a fetch copies its relation. *)
let rename_words ~rows =
  let seed = 24 in
  let t =
    Dyno_workload.Spec.build
      { Dyno_workload.Spec.default with seed; world = Dyno_workload.Spec.paper_world ~rows }
      ~timeline:
        (Dyno_workload.Generator.build ~rows ~seed
           [
             Dyno_workload.Generator.At_sc (0.0, Dyno_workload.Generator.Rename_attr);
             Dyno_workload.Generator.At_sc (1000.0, Dyno_workload.Generator.Rename_attr);
           ])
  in
  let w = t.Dyno_workload.Scenario.engine in
  let maintain () =
    Query_engine.deliver_due w;
    match Umq.head t.Dyno_workload.Scenario.umq with
    | None -> Alcotest.fail "no schema change queued"
    | Some entry -> (
        match
          Dyno_va.Batch.maintain w t.Dyno_workload.Scenario.mv
            t.Dyno_workload.Scenario.mk (Umq.entry_messages entry)
        with
        | Dyno_va.Batch.Adapted -> Umq.remove_head t.Dyno_workload.Scenario.umq
        | _ -> Alcotest.fail "the rename did not adapt")
  in
  maintain ();
  Query_engine.idle_until w 1000.0;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  maintain ();
  words () -. w0

(* Copying each fetched relation (its table and key index) made the
   second rename cost about 69k words at 2,000 rows against 7k at 500;
   reading the sources' own extents, it costs about 2.2k at both
   (OCaml 5.1, 64-bit). *)
let test_adaptation_words_flat () =
  let small = rename_words ~rows:500 and large = rename_words ~rows:2000 in
  if large > small *. 1.05 +. 500.0 then
    Alcotest.failf "a rename adaptation allocates %.0f words at 2,000 rows, %.0f at 500"
      large small

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
  | Error f -> Alcotest.failf "broken: %a" Dyno_source.Data_source.pp_broken f);
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
          Alcotest.test_case "an identity fetch shares tuples and key index" `Quick
            test_identity_fetch_shares;
          Alcotest.test_case "a later commit leaves a fetch and its index alone" `Quick
            test_fetch_isolated_from_commits;
        ] );
      ( "budget",
        [
          Alcotest.test_case "merged-batch Equation 6 adaptation <= 500k words"
            `Quick test_batch_allocation_budget;
          Alcotest.test_case "a rename's adaptation words stay flat in the rows"
            `Quick test_adaptation_words_flat;
        ] );
    ]
