(* Unit tests for Dyno_relational.Value: typing, comparison, coercion. *)

open Dyno_relational

let v_int = Value.int 42
let v_float = Value.float 3.5
let v_string = Value.string "abc"
let v_bool = Value.bool true

let test_type_of () =
  Alcotest.(check bool) "int" true (Value.type_of v_int = Some Value.Vtype.TInt);
  Alcotest.(check bool) "float" true (Value.type_of v_float = Some Value.Vtype.TFloat);
  Alcotest.(check bool) "string" true (Value.type_of v_string = Some Value.Vtype.TString);
  Alcotest.(check bool) "bool" true (Value.type_of v_bool = Some Value.Vtype.TBool);
  Alcotest.(check bool) "null" true (Value.type_of Value.null = None)

let test_has_type () =
  Alcotest.(check bool) "int has TInt" true (Value.has_type v_int Value.Vtype.TInt);
  Alcotest.(check bool) "int not TFloat" false (Value.has_type v_int Value.Vtype.TFloat);
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        (Fmt.str "null has %a" Value.Vtype.pp ty)
        true (Value.has_type Value.null ty))
    Value.Vtype.all

let test_equal () =
  Alcotest.(check bool) "same int" true (Value.equal (Value.int 7) (Value.int 7));
  Alcotest.(check bool) "diff int" false (Value.equal (Value.int 7) (Value.int 8));
  Alcotest.(check bool) "int vs float" false (Value.equal (Value.int 7) (Value.float 7.0));
  Alcotest.(check bool) "null=null" true (Value.equal Value.null Value.null);
  Alcotest.(check bool) "null vs 0" false (Value.equal Value.null (Value.int 0))

let test_compare_total_order () =
  let values =
    [ Value.null; Value.bool false; Value.bool true; Value.int (-1);
      Value.int 5; Value.float 0.5; Value.string "a"; Value.string "b" ]
  in
  (* compare is antisymmetric on this set *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool)
            (Fmt.str "antisym %a %a" Value.pp a Value.pp b)
            true
            ((c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0)))
        values)
    values;
  let sorted = List.sort Value.compare values in
  Alcotest.(check int) "sort stable length" (List.length values) (List.length sorted)

let test_hash_consistent_with_equal () =
  let pairs =
    [
      (Value.int 3, Value.int 3);
      (Value.string "x", Value.string "x");
      (Value.float 0.0, Value.float (-0.0));
      (Value.float Float.nan, Value.float (-.Float.nan));
      (Value.bool true, Value.bool true);
      (Value.null, Value.null);
    ]
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Fmt.str "%a = %a" Value.pp a Value.pp b)
        true (Value.equal a b);
      Alcotest.(check int) "equal implies same hash" (Value.hash a) (Value.hash b))
    pairs;
  let t () = Tuple.of_list [ Value.int 1; Value.float (-0.0); Value.string "a"; Value.null ] in
  Alcotest.(check int) "equal tuples hash equally" (Tuple.hash (t ()))
    (Tuple.hash (Tuple.of_list [ Value.int 1; Value.float 0.0; Value.string "a"; Value.null ]))

(* Hashing runs twice per [Relation.add] and once per index probe, so it
   must not allocate: 10k calls per constructor, and on a 4-column tuple,
   measured in minor-heap words. *)
let test_hash_allocates_nothing () =
  let words_of_10k f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun v ->
      let words = words_of_10k (fun () -> Value.hash v) in
      if words > 0.0 then
        Alcotest.failf "Value.hash %a: %.0f words over 10k calls" Value.pp v words)
    [ Value.int 7; Value.float 2.5; Value.string "abc"; Value.bool true; Value.null ];
  let tup = Tuple.of_list [ Value.int 1; Value.float 2.5; Value.string "x"; Value.null ] in
  let words = words_of_10k (fun () -> Tuple.hash tup) in
  if words > 0.0 then
    Alcotest.failf "Tuple.hash of a 4-tuple: %.0f words over 10k calls" words

let test_coerce () =
  Alcotest.(check bool) "int->float" true
    (Value.coerce_to Value.Vtype.TFloat (Value.int 2) = Some (Value.float 2.0));
  Alcotest.(check bool) "int->string" true
    (match Value.coerce_to Value.Vtype.TString (Value.int 2) with
    | Some (Value.VString _) -> true
    | _ -> false);
  Alcotest.(check bool) "string->int fails" true
    (Value.coerce_to Value.Vtype.TInt (Value.string "2") = None);
  Alcotest.(check bool) "null -> anything" true
    (Value.coerce_to Value.Vtype.TInt Value.null = Some Value.null)

let test_pp () =
  Alcotest.(check string) "string quoted" "'abc'" (Value.to_string v_string);
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.null);
  Alcotest.(check string) "int" "42" (Value.to_string v_int)

let () =
  Alcotest.run "value"
    [
      ( "value",
        [
          Alcotest.test_case "type_of" `Quick test_type_of;
          Alcotest.test_case "has_type (null universal)" `Quick test_has_type;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "total order" `Quick test_compare_total_order;
          Alcotest.test_case "hash/equal consistency" `Quick test_hash_consistent_with_equal;
          Alcotest.test_case "coercion" `Quick test_coerce;
          Alcotest.test_case "printing" `Quick test_pp;
          Alcotest.test_case "hashing allocates nothing" `Quick test_hash_allocates_nothing;
        ] );
    ]
