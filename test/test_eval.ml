(* Unit tests for the SPJ evaluator: joins, push-down, projection,
   residual predicates, error handling; results cross-checked against a
   naive product+filter evaluation. *)

open Dyno_relational

let r_schema = Schema.of_list [ Attr.int "k"; Attr.string "name" ]
let s_schema = Schema.of_list [ Attr.int "fk"; Attr.float "price" ]
let t_schema = Schema.of_list [ Attr.int "tk"; Attr.string "tag" ]

let r =
  Relation.of_list r_schema
    [
      [ Value.int 1; Value.string "one" ];
      [ Value.int 2; Value.string "two" ];
      [ Value.int 3; Value.string "three" ];
    ]

let s =
  Relation.of_list s_schema
    [
      [ Value.int 1; Value.float 10.0 ];
      [ Value.int 1; Value.float 11.0 ];
      [ Value.int 2; Value.float 20.0 ];
      [ Value.int 9; Value.float 90.0 ];
    ]

let t =
  Relation.of_list t_schema
    [ [ Value.int 1; Value.string "hot" ]; [ Value.int 2; Value.string "cold" ] ]

let q2 ~where =
  Query.make ~name:"q2"
    ~select:[ Query.item "R.name"; Query.item "S.price" ]
    ~from:[ Query.table ~alias:"R" "x" "R"; Query.table ~alias:"S" "x" "S" ]
    ~where

let test_equijoin () =
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s) ]) (q2 ~where:[ Predicate.eq_attr "R.k" "S.fk" ]) in
  Alcotest.(check int) "3 joined rows" 3 (Relation.cardinality out);
  Alcotest.(check (list string)) "output names" [ "name"; "price" ]
    (Schema.names (Relation.schema out))

let test_cross_product_when_no_condition () =
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s) ]) (q2 ~where:[]) in
  Alcotest.(check int) "3*4 rows" 12 (Relation.cardinality out)

let test_selection_pushdown_equivalence () =
  (* local filter + join computed two ways must agree *)
  let where =
    [
      Predicate.eq_attr "R.k" "S.fk";
      Predicate.cmp "S.price" Predicate.Ge (Value.float 11.0);
      Predicate.eq_const "R.name" (Value.string "one");
    ]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s) ]) (q2 ~where) in
  (* naive: full product, then filter *)
  let naive =
    let p = Relation.product r s in
    let ps = Relation.schema p in
    Relation.select
      (fun tup ->
        Value.equal (Tuple.field ps tup "k") (Tuple.field ps tup "fk")
        && Value.compare (Tuple.field ps tup "price") (Value.float 11.0) >= 0
        && Value.equal (Tuple.field ps tup "name") (Value.string "one"))
      p
    |> fun sel -> Relation.project sel [ "name"; "price" ]
  in
  Alcotest.(check bool) "pushdown = naive" true (Relation.equal_contents out naive)

let test_residual_non_equi_join () =
  (* R.k < S.fk is not hash-joinable: exercised via residual filtering *)
  let where =
    [ Predicate.atom
        (Predicate.Ref (Attr.Qualified.of_string "R.k"))
        Predicate.Lt
        (Predicate.Ref (Attr.Qualified.of_string "S.fk")) ]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s) ]) (q2 ~where) in
  (* pairs: k in {1,2,3} x fk in {1,1,2,9}: k<fk → (1,2),(1,9),(2,9),(3,9) = 4 *)
  Alcotest.(check int) "non-equi residual" 4 (Relation.cardinality out)

let test_three_way_chain () =
  let q =
    Query.make ~name:"q3"
      ~select:[ Query.item "R.name"; Query.item "T.tag" ]
      ~from:
        [
          Query.table ~alias:"R" "x" "R";
          Query.table ~alias:"S" "x" "S";
          Query.table ~alias:"T" "x" "T";
        ]
      ~where:[ Predicate.eq_attr "R.k" "S.fk"; Predicate.eq_attr "S.fk" "T.tk" ]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s); ("T", t) ]) q in
  (* k=1: 2 S rows x tag hot; k=2: 1 x cold → 3 rows *)
  Alcotest.(check int) "chain join" 3 (Relation.cardinality out)

let test_unqualified_resolution () =
  let q =
    Query.make ~name:"qu"
      ~select:[ Query.item "name"; Query.item "price" ]
      ~from:[ Query.table ~alias:"R" "x" "R"; Query.table ~alias:"S" "x" "S" ]
      ~where:[ Predicate.eq_attr "k" "fk" ]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r); ("S", s) ]) q in
  Alcotest.(check int) "resolved by uniqueness" 3 (Relation.cardinality out)

let test_errors () =
  let bad_attr =
    Query.make ~name:"qb" ~select:[ Query.item "R.nope" ]
      ~from:[ Query.table ~alias:"R" "x" "R" ]
      ~where:[]
  in
  Alcotest.(check bool) "unknown attribute" true
    (match Eval.run ~catalog:(Eval.catalog [ ("R", r) ]) bad_attr with
    | _ -> false
    | exception Eval.Error _ -> true);
  let dup_schema = Schema.of_list [ Attr.int "k"; Attr.string "z" ] in
  let r2 = Relation.of_list dup_schema [ [ Value.int 1; Value.string "w" ] ] in
  let ambiguous =
    Query.make ~name:"qa" ~select:[ Query.item "k" ]
      ~from:[ Query.table ~alias:"R" "x" "R"; Query.table ~alias:"R2" "x" "R2" ]
      ~where:[]
  in
  Alcotest.(check bool) "ambiguous attribute" true
    (match Eval.run ~catalog:(Eval.catalog [ ("R", r); ("R2", r2) ]) ambiguous with
    | _ -> false
    | exception Eval.Error _ -> true);
  Alcotest.(check bool) "unbound alias" true
    (match Eval.run ~catalog:(Eval.catalog []) bad_attr with
    | _ -> false
    | exception Eval.Error _ -> true);
  (* A WHERE atom on an alias outside FROM, local or a join, is an error,
     not an atom no scan or join step applies. *)
  List.iter
    (fun (what, atom) ->
      let q =
        Query.make ~name:"qc" ~select:[ Query.item "R.k" ]
          ~from:[ Query.table ~alias:"R" "x" "R" ]
          ~where:[ atom ]
      in
      Alcotest.(check string) what "unknown alias C in reference C.x"
        (match Eval.run ~catalog:(Eval.catalog [ ("R", r) ]) q with
        | _ -> "no error"
        | exception Eval.Error e -> e))
    [
      ("constant atom on an alias outside FROM", Predicate.eq_const "C.x" (Value.int 1));
      ("join atom on an alias outside FROM", Predicate.eq_attr "R.k" "C.x");
    ]

let test_signed_inputs () =
  (* evaluating a query over a delta relation keeps signs (linearity) *)
  let delta =
    Relation.of_counted r_schema [ ([ Value.int 1; Value.string "one" ], -1) ]
  in
  let out =
    Eval.run ~catalog:(Eval.catalog [ ("R", delta); ("S", s) ])
      (q2 ~where:[ Predicate.eq_attr "R.k" "S.fk" ])
  in
  Alcotest.(check int) "negative propagates through join" (-2)
    (Relation.cardinality out)

let test_projection_duplicates () =
  (* projecting away the key merges duplicates into counts *)
  let q =
    Query.make ~name:"qp" ~select:[ Query.item "S.fk" ]
      ~from:[ Query.table ~alias:"S" "x" "S" ]
      ~where:[]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("S", s) ]) q in
  Alcotest.(check int) "fk=1 count 2" 2
    (Relation.count out (Tuple.of_list [ Value.int 1 ]));
  Alcotest.(check int) "support 3" 3 (Relation.support out)

(* A projection of one unfiltered input cannot outgrow the input, so its
   answer starts in a table sized to it and filling it never re-hashes;
   a filtered one starts small, since it may keep a sliver. *)
let test_projection_sized () =
  let n = 2000 in
  let big =
    Relation.of_list r_schema
      (List.init n (fun i -> [ Value.int i; Value.string (string_of_int (i mod 100)) ]))
  in
  let project where =
    Eval.run
      ~catalog:(Eval.catalog [ ("R", big) ])
      (Query.make ~name:"qk" ~select:[ Query.item "R.k" ]
         ~from:[ Query.table ~alias:"R" "x" "R" ]
         ~where)
  in
  let all = project [] in
  Alcotest.(check int) "every key" n (Relation.support all);
  if Relation.buckets all < n then
    Alcotest.failf "the projection re-hashed: %d buckets for %d tuples"
      (Relation.buckets all) n;
  let sliver = project [ Predicate.eq_const "R.name" (Value.string "7") ] in
  Alcotest.(check int) "one key in 100" (n / 100) (Relation.support sliver);
  if Relation.buckets sliver >= n / 4 then
    Alcotest.failf "a filtered projection took %d buckets for %d tuples"
      (Relation.buckets sliver) (Relation.support sliver)

let test_alias_rename_in_select () =
  let q =
    Query.make ~name:"qr"
      ~select:[ Query.item ~as_:"label" "R.name" ]
      ~from:[ Query.table ~alias:"R" "x" "R" ]
      ~where:[]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("R", r) ]) q in
  Alcotest.(check (list string)) "renamed output" [ "label" ]
    (Schema.names (Relation.schema out))

let () =
  Alcotest.run "eval"
    [
      ( "eval",
        [
          Alcotest.test_case "hash equi-join" `Quick test_equijoin;
          Alcotest.test_case "cross product fallback" `Quick test_cross_product_when_no_condition;
          Alcotest.test_case "pushdown = naive evaluation" `Quick test_selection_pushdown_equivalence;
          Alcotest.test_case "non-equi residual join" `Quick test_residual_non_equi_join;
          Alcotest.test_case "three-way chain" `Quick test_three_way_chain;
          Alcotest.test_case "unqualified resolution" `Quick test_unqualified_resolution;
          Alcotest.test_case "error cases" `Quick test_errors;
          Alcotest.test_case "signed inputs (linearity)" `Quick test_signed_inputs;
          Alcotest.test_case "projection merges duplicates" `Quick test_projection_duplicates;
          Alcotest.test_case "a projection's table is sized to its input" `Quick
            test_projection_sized;
          Alcotest.test_case "select AS renames" `Quick test_alias_rename_in_select;
        ] );
    ]
