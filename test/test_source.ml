(* Unit tests for Dyno_source.Data_source: autonomous commits, query
   answering with broken-query detection, metadata validation, and the
   past-version reads that the strong-consistency checker and
   self-maintenance re-seeding rely on. *)

open Dyno_relational
open Dyno_source

let schema = Schema.of_list [ Attr.int "k"; Attr.string "v" ]

let fresh () =
  let s = Data_source.create "ds" in
  Data_source.add_relation s "R" schema;
  Data_source.load s "R" [ [ Value.int 1; Value.string "a" ]; [ Value.int 2; Value.string "b" ] ];
  s

let du ?(rel = "R") rows =
  Update.make ~source:"ds" ~rel (Relation.of_counted schema rows)

let test_commit_du () =
  let s = fresh () in
  let v = Data_source.commit_du s ~time:1.0 (du [ ([ Value.int 3; Value.string "c" ], 1) ]) in
  Alcotest.(check int) "version bumps" 1 v;
  Alcotest.(check int) "extent grew" 3 (Relation.cardinality (Data_source.relation s "R"));
  let v2 =
    Data_source.commit_du s ~time:2.0 (du [ ([ Value.int 1; Value.string "a" ], -1) ])
  in
  Alcotest.(check int) "second version" 2 v2;
  Alcotest.(check int) "delete applied" 2 (Relation.cardinality (Data_source.relation s "R"))

let test_commit_rejections () =
  let s = fresh () in
  let trap u =
    match Data_source.commit_du s ~time:0.0 u with
    | _ -> false
    | exception Data_source.Commit_rejected _ -> true
  in
  Alcotest.(check bool) "wrong source" true
    (trap (Update.make ~source:"other" ~rel:"R" (Relation.create schema)));
  Alcotest.(check bool) "missing relation" true
    (trap (Update.make ~source:"ds" ~rel:"ZZ" (Relation.create schema)));
  let bad_schema = Schema.of_list [ Attr.int "k" ] in
  Alcotest.(check bool) "schema mismatch" true
    (trap (Update.make ~source:"ds" ~rel:"R" (Relation.create bad_schema)));
  let before = Relation.copy (Data_source.relation s "R") in
  Alcotest.(check bool) "deleting an absent row" true
    (trap (du [ ([ Value.int 9; Value.string "z" ], -1) ]));
  Alcotest.(check int) "no version committed" 0 (Data_source.version s);
  Alcotest.(check bool) "extent untouched" true
    (Relation.equal before (Data_source.relation s "R"))

let test_commit_sc_extent_transforms () =
  let s = fresh () in
  ignore
    (Data_source.commit_sc s ~time:1.0
       (Schema_change.Add_attribute
          { source = "ds"; rel = "R"; attr = Attr.int "n"; default = Value.int 7 }));
  let r = Data_source.relation s "R" in
  Alcotest.(check int) "arity 3" 3 (Schema.arity (Relation.schema r));
  Relation.iter
    (fun tup _ ->
      Alcotest.(check bool) "default filled" true
        (Value.equal (Tuple.get tup 2) (Value.int 7)))
    r;
  ignore
    (Data_source.commit_sc s ~time:2.0
       (Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = "v" }));
  let r = Data_source.relation s "R" in
  Alcotest.(check (list string)) "v gone" [ "k"; "n" ] (Schema.names (Relation.schema r));
  ignore
    (Data_source.commit_sc s ~time:3.0
       (Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "Rx" }));
  Alcotest.(check bool) "renamed extent follows" true
    (Data_source.relation_opt s "R" = None
    && Data_source.relation_opt s "Rx" <> None)

let single_table_query ?(attrs = [ "k"; "v" ]) rel =
  Query.make ~name:"probe"
    ~select:(List.map (fun a -> Query.item (rel ^ "." ^ a)) attrs)
    ~from:[ Query.table ~alias:rel "ds" rel ]
    ~where:[]

let test_answer_and_broken () =
  let s = fresh () in
  (match Data_source.answer s (single_table_query "R") ~bound:[] with
  | Ok ans ->
      Alcotest.(check int) "2 rows" 2 (Relation.cardinality (Rows.relation ans.Data_source.rows));
      Alcotest.(check int) "scanned" 2 ans.Data_source.scanned
  | Error _ -> Alcotest.fail "query should succeed");
  (* missing relation -> broken, not an exception *)
  (match Data_source.answer s (single_table_query "Nope") ~bound:[] with
  | Ok _ -> Alcotest.fail "should be broken"
  | Error b -> Alcotest.(check string) "source" "ds" b.Data_source.source);
  (* missing attribute -> broken *)
  ignore
    (Data_source.commit_sc s ~time:1.0
       (Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = "v" }));
  match Data_source.answer s (single_table_query "R") ~bound:[] with
  | Ok _ -> Alcotest.fail "dropped attribute should break the query"
  | Error _ -> ()

let test_answer_with_bound () =
  let s = fresh () in
  let bschema = Schema.of_list [ Attr.int "bk" ] in
  let bound_rel = Relation.of_list bschema [ [ Value.int 1 ] ] in
  let q =
    Query.make ~name:"semi"
      ~select:[ Query.item "R.v" ]
      ~from:[ Query.table ~alias:"R" "ds" "R"; Query.table ~alias:"B" "ds" "__b" ]
      ~where:[ Predicate.eq_attr "R.k" "B.bk" ]
  in
  match Data_source.answer s q ~bound:[ ("B", Rows.of_relation bound_rel) ] with
  | Ok ans -> Alcotest.(check int) "semijoin" 1 (Relation.cardinality (Rows.relation ans.Data_source.rows))
  | Error b -> Alcotest.failf "unexpected break: %a" Data_source.pp_broken b

let test_validate () =
  let s = fresh () in
  Alcotest.(check bool) "valid" true
    (Data_source.validate s (single_table_query "R") = Ok ());
  Alcotest.(check bool) "missing rel invalid" true
    (match Data_source.validate s (single_table_query "Zed") with
    | Error _ -> true
    | Ok () -> false);
  ignore
    (Data_source.commit_sc s ~time:1.0
       (Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = "v" }));
  Alcotest.(check bool) "missing attr invalid" true
    (match Data_source.validate s (single_table_query "R") with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool) "narrower query fine" true
    (Data_source.validate s (single_table_query ~attrs:[ "k" ] "R") = Ok ())

let test_snapshot_reconstruction () =
  let s = fresh () in
  (* history: +(3,c) | rename R->R2 | -(1,a) | drop attr v *)
  ignore (Data_source.commit_du s ~time:1.0 (du [ ([ Value.int 3; Value.string "c" ], 1) ]));
  ignore
    (Data_source.commit_sc s ~time:2.0
       (Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "R2" }));
  ignore
    (Data_source.commit_du s ~time:3.0
       (Update.make ~source:"ds" ~rel:"R2"
          (Relation.of_counted schema [ ([ Value.int 1; Value.string "a" ], -1) ])));
  ignore
    (Data_source.commit_sc s ~time:4.0
       (Schema_change.Drop_attribute { source = "ds"; rel = "R2"; attr = "v" }));
  Alcotest.(check int) "4 versions" 4 (Data_source.version s);
  (* v0: R = {(1,a),(2,b)} *)
  let r0 = Data_source.relation_at s ~version:0 "R" in
  Alcotest.(check int) "v0 card" 2 (Relation.cardinality r0);
  Alcotest.(check int) "v0 arity" 2 (Schema.arity (Relation.schema r0));
  (* v1: R gains (3,c) *)
  Alcotest.(check int) "v1 card" 3
    (Relation.cardinality (Data_source.relation_at s ~version:1 "R"));
  (* v2: renamed; R absent, R2 present with same data *)
  Alcotest.(check bool) "v2 R absent" true
    (match Data_source.relation_at s ~version:2 "R" with
    | _ -> false
    | exception Catalog.No_such_relation _ -> true);
  Alcotest.(check int) "v2 R2 card" 3
    (Relation.cardinality (Data_source.relation_at s ~version:2 "R2"));
  (* v3: (1,a) deleted *)
  Alcotest.(check int) "v3 card" 2
    (Relation.cardinality (Data_source.relation_at s ~version:3 "R2"));
  (* v4 = current: narrow schema *)
  let r4 = Data_source.relation_at s ~version:4 "R2" in
  Alcotest.(check (list string)) "v4 names" [ "k" ] (Schema.names (Relation.schema r4));
  (* reconstruction does not corrupt current state *)
  Alcotest.(check int) "current card still 2" 2
    (Relation.cardinality (Data_source.relation s "R2"))

let test_registry () =
  let reg = Registry.create () in
  let s = fresh () in
  Registry.register reg s;
  Alcotest.(check bool) "find" true (Registry.find reg "ds" == s);
  Alcotest.check_raises "unknown" (Registry.Unknown_source "nope") (fun () ->
      ignore (Registry.find reg "nope"));
  (* re-register replaces *)
  let s2 = Data_source.create "ds" in
  Registry.register reg s2;
  Alcotest.(check bool) "replaced" true (Registry.find reg "ds" == s2);
  Registry.unregister reg "ds";
  Alcotest.(check bool) "gone" false (Registry.mem reg "ds")

let test_meta_knowledge_rekey () =
  let mk = Meta_knowledge.create () in
  Meta_knowledge.mark_dispensable mk ~source:"ds" ~rel:"R" ~attr:"v";
  Meta_knowledge.rename_relation mk ~source:"ds" ~old_rel:"R" ~new_rel:"R2";
  Alcotest.(check bool) "old key gone" false
    (Meta_knowledge.is_dispensable mk ~source:"ds" ~rel:"R" ~attr:"v");
  Alcotest.(check bool) "new key found" true
    (Meta_knowledge.is_dispensable mk ~source:"ds" ~rel:"R2" ~attr:"v");
  Meta_knowledge.rename_attribute mk ~source:"ds" ~rel:"R2" ~old_attr:"v" ~new_attr:"w";
  Alcotest.(check bool) "attr rekeyed" true
    (Meta_knowledge.is_dispensable mk ~source:"ds" ~rel:"R2" ~attr:"w");
  (* save/restore round-trips *)
  let snap = Meta_knowledge.save mk in
  Meta_knowledge.rename_relation mk ~source:"ds" ~old_rel:"R2" ~new_rel:"R3";
  Meta_knowledge.restore mk snap;
  Alcotest.(check bool) "restored" true
    (Meta_knowledge.is_dispensable mk ~source:"ds" ~rel:"R2" ~attr:"w")

(* -- pinned fetches --------------------------------------------------- *)

let identity_fetch =
  Query.make ~name:"fetch" ~select:[ Query.item "R.k"; Query.item "R.v" ]
    ~from:[ Query.table ~alias:"R" "ds" "R" ]
    ~where:[]

let fetched s q =
  match Data_source.fetch s q with
  | Ok { Data_source.rows = Rows.Hashed r; _ } -> r
  | Ok _ -> Alcotest.fail "an identity fetch came back flat or projected"
  | Error b -> Alcotest.failf "%a" Data_source.pp_broken b

(* Every tuple of [r] sits in its bucket of [r]'s key index with its
   count, and the index holds nothing else. *)
let index_consistent what r =
  match Relation.find_index_pos r [| 0 |] with
  | None -> Alcotest.failf "%s: no key index" what
  | Some ix ->
      Alcotest.(check int) (what ^ ": index support") (Relation.support r)
        (Index.support ix);
      Relation.iter
        (fun t c ->
          if not (List.mem (t, c) (Index.lookup ix (Index.key_of ix t))) then
            Alcotest.failf "%s: %a x%d missing from its bucket" what Tuple.pp t c)
        r

(* A pinned extent stays exactly as fetched, indexes included, while its
   source commits a DU, an attribute rename and an attribute addition to
   it; the live side moves on with consistent indexes, and a relation no
   fetch pinned is updated in place. *)
let test_pinned_fetch () =
  let s = fresh () in
  Data_source.add_relation s "S" schema;
  let other = Data_source.relation s "S" in
  ignore (Relation.ensure_index_pos (Data_source.relation s "R") [| 0 |] : Index.t);
  let pinned = fetched s identity_fetch in
  Alcotest.(check bool) "the fetch is the live extent" true
    (pinned == Data_source.relation s "R");
  let as_fetched = Relation.to_counted pinned in
  ignore
    (Data_source.commit_du s ~time:1.0
       (du [ ([ Value.int 1; Value.string "a" ], -1); ([ Value.int 3; Value.string "c" ], 2) ]));
  let live = Data_source.relation s "R" in
  Alcotest.(check bool) "the DU swapped the source onto a copy" true (live != pinned);
  index_consistent "live after the DU" live;
  ignore
    (Data_source.commit_sc s ~time:2.0
       (Schema_change.Rename_attribute { source = "ds"; rel = "R"; old_name = "v"; new_name = "w" }));
  ignore
    (Data_source.commit_sc s ~time:3.0
       (Schema_change.Add_attribute
          { source = "ds"; rel = "R"; attr = Attr.int "n"; default = Value.int 0 }));
  Alcotest.(check bool) "pinned contents as fetched" true
    (Relation.to_counted pinned = as_fetched);
  Alcotest.(check (list string)) "pinned schema as fetched" [ "k"; "v" ]
    (Schema.names (Relation.schema pinned));
  index_consistent "pinned" pinned;
  let live = Data_source.relation s "R" in
  Alcotest.(check (list string)) "live schema moved" [ "k"; "w"; "n" ]
    (Schema.names (Relation.schema live));
  Alcotest.(check int) "live holds the DU" 2
    (Relation.count live (Tuple.of_list [ Value.int 3; Value.string "c"; Value.int 0 ]));
  ignore (Relation.ensure_index_pos live [| 0 |] : Index.t);
  index_consistent "live after the SCs" live;
  ignore
    (Data_source.commit_du s ~time:4.0
       (du ~rel:"S" [ ([ Value.int 9; Value.string "z" ], 1) ]));
  Alcotest.(check bool) "an unpinned relation is updated in place" true
    (Data_source.relation s "S" == other && Relation.support other = 1)

(* Released, an extent no commit landed on was never copied, and later
   commits update it in place again. *)
let test_unpin () =
  let s = fresh () in
  let r = fetched s identity_fetch in
  Data_source.unpin s r;
  Alcotest.(check bool) "no commit landed: still the live extent" true
    (Data_source.relation s "R" == r);
  ignore
    (Data_source.commit_du s ~time:1.0 (du [ ([ Value.int 3; Value.string "c" ], 1) ]));
  Alcotest.(check bool) "unpinned: updated in place" true
    (Data_source.relation s "R" == r && Relation.support r = 3);
  (* a projection is an ordinary answer: the caller's own, nothing pinned *)
  let projected =
    Query.make ~name:"fetch-k" ~select:[ Query.item "R.k" ]
      ~from:[ Query.table ~alias:"R" "ds" "R" ]
      ~where:[]
  in
  (match Data_source.fetch s projected with
  | Ok { Data_source.rows; _ } ->
      Alcotest.(check int) "projected rows" 3 (Rows.support rows)
  | Error b -> Alcotest.failf "%a" Data_source.pp_broken b);
  ignore
    (Data_source.commit_du s ~time:2.0 (du [ ([ Value.int 4; Value.string "d" ], 1) ]));
  Alcotest.(check bool) "a projection no index shows injective pins nothing" true
    (Data_source.relation s "R" == r);
  (* with a key index showing k unique, the projection on k merges
     nothing: the extent itself answers it, seen through the projection,
     and is pinned like an identity fetch *)
  ignore (Relation.ensure_index_pos r [| 0 |] : Index.t);
  (match Data_source.fetch s projected with
  | Ok { Data_source.rows = Rows.Projected p as rows; _ } ->
      Alcotest.(check bool) "the extent itself" true (p.rel == r);
      Alcotest.(check int) "one row per tuple" 4 (Rows.support rows)
  | Ok _ -> Alcotest.fail "an injective projection was materialized"
  | Error b -> Alcotest.failf "%a" Data_source.pp_broken b);
  let keys = Relation.to_counted r in
  ignore
    (Data_source.commit_du s ~time:3.0 (du [ ([ Value.int 5; Value.string "e" ], 1) ]));
  Alcotest.(check bool) "a commit swaps the projected pin onto a copy" true
    (Data_source.relation s "R" != r && Relation.to_counted r = keys)

(* An added or a dropped attribute keeps the relation's indexes, keyed
   where their columns moved, each equal to a fresh build on the new
   extent; an index keyed on the dropped column goes.  The next
   projection fetch is then answered by the extent itself. *)
let test_sc_keeps_indexes () =
  let s = fresh () in
  let index pos =
    ignore (Relation.ensure_index_pos (Data_source.relation s "R") pos : Index.t)
  in
  let sorted l = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) l in
  let carried what pos =
    let live = Data_source.relation s "R" in
    match Relation.find_index_pos live pos with
    | None -> Alcotest.failf "%s: index on %d lost" what pos.(0)
    | Some ix ->
        let fresh =
          Relation.ensure_index_pos
            (Relation.map_tuples (Relation.schema live) Fun.id live)
            pos
        in
        Alcotest.(check (pair int int))
          (what ^ ": keys and tuples of a fresh build")
          (Index.key_count fresh, Index.support fresh)
          (Index.key_count ix, Index.support ix);
        Relation.iter
          (fun t _ ->
            let key = Index.key_of ix t in
            if sorted (Index.lookup ix key) <> sorted (Index.lookup fresh key) then
              Alcotest.failf "%s: bucket of %a differs from a fresh build" what
                Tuple.pp t)
          live
  in
  let projection_pinned what =
    match Data_source.fetch s (single_table_query ~attrs:[ "k" ] "R") with
    | Ok { Data_source.rows = Rows.Projected p; _ } ->
        Alcotest.(check bool) (what ^ ": the extent itself answers") true
          (p.rel == Data_source.relation s "R");
        Data_source.unpin s p.rel
    | Ok _ -> Alcotest.failf "%s: the projection fetch was materialized" what
    | Error b -> Alcotest.failf "%a" Data_source.pp_broken b
  in
  index [| 0 |];
  index [| 1 |];
  ignore
    (Data_source.commit_du s ~time:1.0 (du [ ([ Value.int 3; Value.string "a" ], 2) ]));
  ignore
    (Data_source.commit_sc s ~time:2.0
       (Schema_change.Add_attribute
          { source = "ds"; rel = "R"; attr = Attr.int "n"; default = Value.int 7 }));
  Alcotest.(check int) "an added attribute keeps both indexes" 2
    (Relation.index_count (Data_source.relation s "R"));
  carried "add: k" [| 0 |];
  carried "add: v" [| 1 |];
  projection_pinned "add";
  index [| 2 |];
  ignore
    (Data_source.commit_sc s ~time:3.0
       (Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = "v" }));
  Alcotest.(check int) "a dropped attribute takes its own index only" 2
    (Relation.index_count (Data_source.relation s "R"));
  carried "drop: k" [| 0 |];
  carried "drop: n shifted past v" [| 1 |];
  projection_pinned "drop"

let () =
  Alcotest.run "source"
    [
      ( "commits",
        [
          Alcotest.test_case "data updates" `Quick test_commit_du;
          Alcotest.test_case "rejections" `Quick test_commit_rejections;
          Alcotest.test_case "schema-change extent transforms" `Quick
            test_commit_sc_extent_transforms;
          Alcotest.test_case "added and dropped attributes keep indexes" `Quick
            test_sc_keeps_indexes;
        ] );
      ( "queries",
        [
          Alcotest.test_case "answer + broken detection" `Quick test_answer_and_broken;
          Alcotest.test_case "bound partial results" `Quick test_answer_with_bound;
          Alcotest.test_case "metadata validation" `Quick test_validate;
          Alcotest.test_case "a pinned fetch never changes" `Quick test_pinned_fetch;
          Alcotest.test_case "an unpinned fetch is not copied" `Quick test_unpin;
        ] );
      ( "versioning",
        [ Alcotest.test_case "snapshot reconstruction" `Quick test_snapshot_reconstruction ] );
      ( "registry & meta knowledge",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "meta-knowledge rekey/save/restore" `Quick
            test_meta_knowledge_rekey;
        ] );
    ]
