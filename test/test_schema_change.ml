(* Unit tests for Schema_change: what one change does to a relation's
   schema and extent ({!Schema_change.schema}, {!Schema_change.extent}) —
   the transform sources apply and Section 5 preprocessing folds over a
   batch ("insert (3,4)", "drop first attribute", "insert (5)" →
   "insert (4),(5)"). *)

open Dyno_relational

let schema = Schema.of_list [ Attr.int "a"; Attr.int "b"; Attr.string "c" ]

let rename_attr o n =
  Schema_change.Rename_attribute { source = "ds"; rel = "R"; old_name = o; new_name = n }

let drop_attr a = Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = a }

let add_attr name default =
  Schema_change.Add_attribute
    { source = "ds"; rel = "R"; attr = Attr.int name; default }

let schema_after scs s = List.fold_left (fun s sc -> Schema_change.schema sc s) s scs
let extent_after scs r = List.fold_left (fun r sc -> Schema_change.extent sc r) r scs

let rel rows = Relation.of_list schema rows
let row a b c = [ Value.int a; Value.int b; Value.string c ]

let names_after scs = Schema.names (schema_after scs schema)

let check_rows msg expected r =
  Alcotest.(check bool) msg true
    (Relation.equal r (Relation.of_counted (Relation.schema r) expected))

(* Sources accept an attribute renamed onto its own name. *)
let test_identity () =
  let r = rel [ row 1 2 "p" ] in
  Alcotest.(check bool) "schema unchanged" true
    (Schema.equal schema (Schema_change.schema (rename_attr "a" "a") schema));
  Alcotest.(check bool) "extent unchanged" true
    (Relation.equal r (Schema_change.extent (rename_attr "a" "a") (Relation.copy r)))

let test_rename_chain_collapses () =
  let scs = [ rename_attr "a" "x"; rename_attr "x" "y" ] in
  Alcotest.(check (list string)) "net rename" [ "y"; "b"; "c" ] (names_after scs);
  let r = extent_after scs (rel [ row 1 2 "p" ]) in
  Alcotest.(check (list string)) "extent renamed" [ "y"; "b"; "c" ]
    (Schema.names (Relation.schema r));
  check_rows "tuples kept" [ (row 1 2 "p", 1) ] r

let test_rename_then_drop_absorbs () =
  let scs = [ rename_attr "a" "x"; drop_attr "x" ] in
  Alcotest.(check (list string)) "gone" [ "b"; "c" ] (names_after scs);
  check_rows "first position removed"
    [ ([ Value.int 2; Value.string "p" ], 1) ]
    (extent_after scs (rel [ row 1 2 "p" ]))

let test_add_then_drop_cancels () =
  let r = rel [ row 1 2 "p"; row 3 4 "q" ] in
  let back = extent_after [ add_attr "z" (Value.int 0); drop_attr "z" ] (Relation.copy r) in
  Alcotest.(check bool) "back to the original" true (Relation.equal r back)

let test_add_then_rename () =
  let scs = [ add_attr "z" (Value.int 7); rename_attr "z" "zz" ] in
  Alcotest.(check (list string)) "added under final name" [ "a"; "b"; "c"; "zz" ]
    (names_after scs);
  check_rows "default appended"
    [ (row 1 2 "p" @ [ Value.int 7 ], 1) ]
    (extent_after scs (rel [ row 1 2 "p" ]))

let test_relation_rename_and_drop () =
  let r = rel [ row 1 2 "p" ] in
  let rename =
    Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "R2" }
  in
  Alcotest.(check bool) "rename keeps the schema" true
    (Schema.equal schema (Schema_change.schema rename schema));
  Alcotest.(check bool) "rename keeps the extent" true
    (Schema_change.extent rename r == r);
  (* a dropped or added relation has no relation on both sides *)
  List.iter
    (fun sc ->
      Alcotest.(check bool) "no schema across" true
        (match Schema_change.schema sc schema with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check bool) "no extent across" true
        (match Schema_change.extent sc r with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      Schema_change.Drop_relation { source = "ds"; name = "R" };
      Schema_change.Add_relation { source = "ds"; name = "R"; schema };
    ]

let test_inapplicable_steps () =
  let r = rel [ row 1 2 "p" ] in
  let trap msg exn sc =
    Alcotest.check_raises (msg ^ ": schema") exn (fun () ->
        ignore (Schema_change.schema sc schema));
    Alcotest.check_raises (msg ^ ": extent") exn (fun () ->
        ignore (Schema_change.extent sc r))
  in
  trap "rename missing attr" (Schema.No_such_attribute "zz") (rename_attr "zz" "q");
  trap "rename onto existing" (Schema.Duplicate_attribute "b") (rename_attr "a" "b");
  trap "drop missing" (Schema.No_such_attribute "zz") (drop_attr "zz");
  trap "add duplicate" (Schema.Duplicate_attribute "a") (add_attr "a" (Value.int 0))

let test_project_tuple_section5 () =
  (* The paper's §5 example: "insert (3,4)", "drop first attribute",
     "insert (5)" — the first insert is projected to "(4)". *)
  let schema2 = Schema.of_list [ Attr.int "a"; Attr.int "b" ] in
  check_rows "(3,4) -> (4)"
    [ ([ Value.int 4 ], 1) ]
    (Schema_change.extent (drop_attr "a")
       (Relation.of_list schema2 [ [ Value.int 3; Value.int 4 ] ]))

let test_project_tuple_with_default () =
  check_rows "(1,2,'x') -> (1,'x',99)"
    [ ([ Value.int 1; Value.string "x"; Value.int 99 ], 1) ]
    (extent_after
       [ drop_attr "b"; add_attr "n" (Value.int 99) ]
       (rel [ row 1 2 "x" ]))

let test_project_delta_reaggregates () =
  let schema2 = Schema.of_list [ Attr.int "a"; Attr.int "b" ] in
  let delta =
    Relation.of_counted schema2
      [
        ([ Value.int 1; Value.int 7 ], 1);
        ([ Value.int 2; Value.int 7 ], 2);
        ([ Value.int 3; Value.int 7 ], -1);
        ([ Value.int 4; Value.int 8 ], -1);
      ]
  in
  let p = Schema_change.extent (drop_attr "a") delta in
  Alcotest.(check int) "merged under projection" 2
    (Relation.count p (Tuple.of_list [ Value.int 7 ]));
  Alcotest.(check int) "a deletion stays signed" (-1)
    (Relation.count p (Tuple.of_list [ Value.int 8 ]));
  Alcotest.(check int) "two tuples left" 2 (Relation.support p)

let test_destructive_classification () =
  Alcotest.(check bool) "drop destructive" true
    (Schema_change.destructive (drop_attr "a"));
  Alcotest.(check bool) "rename destructive" true
    (Schema_change.destructive (rename_attr "a" "b2"));
  Alcotest.(check bool) "add not destructive" false
    (Schema_change.destructive (add_attr "n" (Value.int 0)));
  Alcotest.(check bool) "add relation not destructive" false
    (Schema_change.destructive
       (Schema_change.Add_relation { source = "ds"; name = "N"; schema }))

let () =
  Alcotest.run "schema-change"
    [
      ( "delta algebra",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "rename chain collapses" `Quick test_rename_chain_collapses;
          Alcotest.test_case "rename then drop absorbs" `Quick test_rename_then_drop_absorbs;
          Alcotest.test_case "add then drop cancels" `Quick test_add_then_drop_cancels;
          Alcotest.test_case "add then rename" `Quick test_add_then_rename;
          Alcotest.test_case "relation rename/drop" `Quick test_relation_rename_and_drop;
          Alcotest.test_case "inapplicable steps rejected" `Quick test_inapplicable_steps;
        ] );
      ( "DU homogenization (Section 5)",
        [
          Alcotest.test_case "project tuple (paper example)" `Quick test_project_tuple_section5;
          Alcotest.test_case "project with added default" `Quick test_project_tuple_with_default;
          Alcotest.test_case "project delta re-aggregates" `Quick test_project_delta_reaggregates;
        ] );
      ( "classification",
        [ Alcotest.test_case "destructive vs add-only" `Quick test_destructive_classification ] );
    ]
