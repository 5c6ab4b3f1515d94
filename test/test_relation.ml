(* Unit tests for Dyno_relational.Relation: signed multisets and their
   algebra — the foundation of incremental maintenance. *)

open Dyno_relational

let schema = Schema.of_list [ Attr.int "k"; Attr.string "s" ]

let t k s : Value.t list = [ Value.int k; Value.string s ]

let rel rows = Relation.of_list schema rows

let test_signed_counts () =
  let r = Relation.create schema in
  let tup = Tuple.of_list (t 1 "a") in
  Relation.add r tup 3;
  Alcotest.(check int) "count 3" 3 (Relation.count r tup);
  Relation.add r tup (-3);
  Alcotest.(check int) "zero entries dropped" 0 (Relation.support r);
  Relation.add r tup (-2);
  Alcotest.(check int) "negative allowed (delta)" (-2) (Relation.count r tup);
  Alcotest.(check int) "cardinality signed" (-2) (Relation.cardinality r);
  Alcotest.(check int) "mass absolute" 2 (Relation.mass r)

let test_typecheck_on_add () =
  let r = Relation.create schema in
  Alcotest.(check bool) "schema mismatch raises" true
    (match Relation.add r (Tuple.of_list [ Value.int 1 ]) 1 with
    | () -> false
    | exception Relation.Schema_mismatch _ -> true)

let test_sum_diff_negate () =
  let a = rel [ t 1 "a"; t 2 "b" ] in
  let b = rel [ t 2 "b"; t 3 "c" ] in
  let s = Relation.sum a b in
  Alcotest.(check int) "sum count" 2 (Relation.count s (Tuple.of_list (t 2 "b")));
  Alcotest.(check int) "sum card" 4 (Relation.cardinality s);
  let d = Relation.diff a b in
  Alcotest.(check int) "diff +1 -1" 1 (Relation.count d (Tuple.of_list (t 1 "a")));
  Alcotest.(check int) "diff removes common" 0
    (Relation.count d (Tuple.of_list (t 2 "b")));
  Alcotest.(check int) "diff negative" (-1)
    (Relation.count d (Tuple.of_list (t 3 "c")));
  Alcotest.(check bool) "a + (b - b) = a" true
    (Relation.equal a (Relation.sum a (Relation.diff b b)));
  Alcotest.(check bool) "negate . negate = id" true
    (Relation.equal a (Relation.negate (Relation.negate a)))

let test_positive_negative_split () =
  let d = Relation.of_counted schema [ (t 1 "a", 2); (t 2 "b", -3) ] in
  let pos = Relation.positive d and neg = Relation.negative d in
  Alcotest.(check int) "positive part" 2 (Relation.count pos (Tuple.of_list (t 1 "a")));
  Alcotest.(check int) "pos has no neg" 0 (Relation.count pos (Tuple.of_list (t 2 "b")));
  Alcotest.(check int) "negative part flipped" 3
    (Relation.count neg (Tuple.of_list (t 2 "b")));
  (* d = pos - neg *)
  Alcotest.(check bool) "recompose" true
    (Relation.equal d (Relation.diff pos neg))

let test_project_reaggregates () =
  let r = rel [ t 1 "a"; t 2 "a"; t 3 "b" ] in
  let p = Relation.project r [ "s" ] in
  Alcotest.(check int) "a collapsed to count 2" 2
    (Relation.count p (Tuple.of_list [ Value.string "a" ]));
  Alcotest.(check int) "total preserved" 3 (Relation.cardinality p)

let test_select () =
  let r = rel [ t 1 "a"; t 2 "b"; t 3 "a" ] in
  let sel =
    Relation.select (fun tup -> Value.equal (Tuple.get tup 1) (Value.string "a")) r
  in
  Alcotest.(check int) "selected" 2 (Relation.cardinality sel)

let test_equijoin_counting () =
  let left = Relation.of_counted schema [ (t 1 "x", 2) ] in
  let right_schema = Schema.of_list [ Attr.int "k2"; Attr.string "y" ] in
  let right =
    Relation.of_counted right_schema
      [ ([ Value.int 1; Value.string "p" ], 3); ([ Value.int 9; Value.string "q" ], 1) ]
  in
  let j = Relation.equijoin left right [ ("k", "k2") ] in
  Alcotest.(check int) "multiplicities multiply: 2*3" 6 (Relation.cardinality j);
  Alcotest.(check int) "one distinct output" 1 (Relation.support j);
  (* signed: join with a negative delta *)
  let neg = Relation.of_counted right_schema [ ([ Value.int 1; Value.string "p" ], -1) ] in
  let jn = Relation.equijoin left neg [ ("k", "k2") ] in
  Alcotest.(check int) "2 * -1 = -2" (-2) (Relation.cardinality jn)

let test_product () =
  let a = rel [ t 1 "a"; t 2 "b" ] in
  let b = rel [ t 3 "c" ] in
  let p = Relation.product a b in
  Alcotest.(check int) "2x1 product" 2 (Relation.cardinality p);
  Alcotest.(check int) "arity doubles" 4 (Schema.arity (Relation.schema p))

let test_distinct () =
  let r = Relation.of_counted schema [ (t 1 "a", 5); (t 2 "b", -2) ] in
  let d = Relation.distinct r in
  Alcotest.(check int) "positive collapsed to 1" 1
    (Relation.count d (Tuple.of_list (t 1 "a")));
  Alcotest.(check int) "negatives dropped" 0
    (Relation.count d (Tuple.of_list (t 2 "b")))

let test_apply_delta_guard () =
  let base = rel [ t 1 "a" ] in
  let bad = Relation.of_counted schema [ (t 9 "zz", -1) ] in
  Alcotest.(check bool) "negative residue trapped" true
    (match Relation.apply_delta base bad with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let good = Relation.of_counted schema [ (t 1 "a", -1); (t 2 "b", 1) ] in
  let r = Relation.apply_delta base good in
  Alcotest.(check int) "applied" 1 (Relation.cardinality r)

let test_equal_and_subset () =
  let a = rel [ t 1 "a"; t 2 "b" ] in
  let b = rel [ t 2 "b"; t 1 "a" ] in
  Alcotest.(check bool) "order-insensitive equal" true (Relation.equal a b);
  let c = rel [ t 1 "a" ] in
  Alcotest.(check bool) "subset" true (Relation.is_subset c a);
  Alcotest.(check bool) "not superset" false (Relation.is_subset a c)

let test_rename_attr () =
  let a = rel [ t 1 "a" ] in
  let r = Relation.rename_attr a ~old_name:"s" ~new_name:"txt" in
  Alcotest.(check (list string)) "renamed" [ "k"; "txt" ]
    (Schema.names (Relation.schema r));
  Alcotest.(check int) "data unchanged" 1 (Relation.cardinality r)

let test_scale () =
  let a = rel [ t 1 "a" ] in
  Alcotest.(check int) "x3" 3 (Relation.cardinality (Relation.scale 3 a));
  Alcotest.(check int) "x0 empties" 0 (Relation.support (Relation.scale 0 a));
  Alcotest.(check int) "x-1 negates" (-1) (Relation.cardinality (Relation.scale (-1) a))

(* [copy_as] re-names positionally: same tuples under the new names, and
   a schema whose arity or types differ is refused. *)
let test_copy_as () =
  let r = rel [ t 1 "a"; t 2 "b" ] in
  let renamed = Schema.of_list [ Attr.int "k1"; Attr.string "s1" ] in
  let c = Relation.copy_as renamed r in
  Alcotest.(check (list string)) "new names" [ "k1"; "s1" ]
    (Schema.names (Relation.schema c));
  Alcotest.(check bool) "same contents" true (Relation.equal_contents r c);
  List.iter
    (fun sch ->
      Alcotest.(check bool)
        (Fmt.str "%a refused" Schema.pp sch)
        true
        (match Relation.copy_as sch r with
        | _ -> false
        | exception Relation.Schema_mismatch _ -> true))
    [
      Schema.of_list [ Attr.string "k"; Attr.string "s" ];
      Schema.of_list [ Attr.int "k" ];
      Schema.of_list [ Attr.int "k"; Attr.string "s"; Attr.int "x" ];
    ]

let () =
  Alcotest.run "relation"
    [
      ( "signed multisets",
        [
          Alcotest.test_case "signed counts" `Quick test_signed_counts;
          Alcotest.test_case "typecheck on add" `Quick test_typecheck_on_add;
          Alcotest.test_case "sum/diff/negate" `Quick test_sum_diff_negate;
          Alcotest.test_case "positive/negative split" `Quick test_positive_negative_split;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "project re-aggregates" `Quick test_project_reaggregates;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "equijoin counting semantics" `Quick test_equijoin_counting;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "apply_delta guard" `Quick test_apply_delta_guard;
          Alcotest.test_case "equality/subset" `Quick test_equal_and_subset;
          Alcotest.test_case "rename attribute" `Quick test_rename_attr;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "copy_as renames positionally" `Quick test_copy_as;
        ] );
    ]
