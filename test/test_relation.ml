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

(* -- The tuple table against [Hashtbl.Make (Tuple.Key)] --------------- *)

(* [Tuple.Table] keeps [Hashtbl.Make (Tuple.Key)]'s bucket rules, so both
   iterate in the same order: that is what keeps every flat row, output
   byte and simulated figure of the engine unchanged.  Random sequences
   of adds (duplicates included), replaces, removes, count changes and
   copies drive both side by side on small tuples, through several
   resizes; after every step the lengths, bucket counts, [iter] and
   [fold] orders, stored hashes and lookups must agree.  A copied-from
   pair is kept and must not move afterwards. *)
module Model = Hashtbl.Make (Tuple.Key)

type op =
  | Add of Tuple.t * int
  | Replace of Tuple.t * int
  | Remove of Tuple.t
  | Count of Tuple.t * int  (** a non-zero count change *)
  | Copy

let pp_op ppf = function
  | Add (t, v) -> Fmt.pf ppf "add %a %d" Tuple.pp t v
  | Replace (t, v) -> Fmt.pf ppf "replace %a %d" Tuple.pp t v
  | Remove t -> Fmt.pf ppf "remove %a" Tuple.pp t
  | Count (t, k) -> Fmt.pf ppf "count %a %+d" Tuple.pp t k
  | Copy -> Fmt.string ppf "copy"

let gen_ops =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map Value.int (int_range 0 5);
        map Value.string (oneofl [ "a"; "b" ]);
        return Value.null;
      ]
  in
  let tuple = map Tuple.of_list (list_size (int_range 1 3) value) in
  let k = map (fun k -> if k >= 0 then k + 1 else k) (int_range (-2) 1) in
  let op =
    frequency
      [
        (3, map2 (fun t v -> Add (t, v)) tuple small_signed_int);
        (2, map2 (fun t v -> Replace (t, v)) tuple small_signed_int);
        (1, map (fun t -> Remove t) tuple);
        (5, map2 (fun t k -> Count (t, k)) tuple k);
        (1, return Copy);
      ]
  in
  list_size (int_range 300 900) op

(* [add_count] in [Hashtbl] terms: find, then remove at zero, replace or
   add. *)
let model_count m key k =
  match Model.find m key with
  | c -> if c + k = 0 then Model.remove m key else Model.replace m key (c + k)
  | exception Not_found -> Model.add m key k

let same_bindings =
  List.equal (fun (a, x) (b, y) -> Tuple.equal a b && Int.equal x y)

let table_iter t =
  let acc = ref [] in
  Tuple.Table.iter (fun k v -> acc := (k, v) :: !acc) t;
  List.rev !acc

let model_iter m =
  let acc = ref [] in
  Model.iter (fun k v -> acc := (k, v) :: !acc) m;
  List.rev !acc

let agree t m =
  let bindings = model_iter m in
  Tuple.Table.length t = Model.length m
  && Tuple.Table.buckets t = (Model.stats m).Hashtbl.num_buckets
  && same_bindings (table_iter t) bindings
  && same_bindings
       (Tuple.Table.fold (fun k v acc -> (k, v) :: acc) t [])
       (Model.fold (fun k v acc -> (k, v) :: acc) m [])
  && (match
        Tuple.Table.iter_h
          (fun () k h _ -> if h <> Tuple.hash k then raise Exit)
          () t
      with
     | () -> true
     | exception Exit -> false)
  && List.for_all
       (fun (k, _) ->
         Tuple.Table.find_or t (Tuple.hash k) k min_int = Model.find m k)
       bindings

let prop_table_is_hashtbl =
  QCheck.Test.make ~count:40
    ~name:"tuple table = Hashtbl.Make (Tuple.Key): bindings and orders"
    (QCheck.make ~print:Fmt.(str "%a" (list ~sep:semi pp_op)) gen_ops)
    (fun ops ->
      let t = ref (Tuple.Table.create 1) and m = ref (Model.create 1) in
      let frozen = ref [] in
      let resizes = ref 0 in
      List.iter
        (fun op ->
          let buckets = Tuple.Table.buckets !t in
          (match op with
          | Add (k, v) ->
              Tuple.Table.add !t (Tuple.hash k) k v;
              Model.add !m k v
          | Replace (k, v) ->
              Tuple.Table.replace !t (Tuple.hash k) k v;
              Model.replace !m k v
          | Remove k ->
              Tuple.Table.remove !t (Tuple.hash k) k;
              Model.remove !m k
          | Count (k, d) ->
              Tuple.Table.add_count !t (Tuple.hash k) k d;
              model_count !m k d
          | Copy ->
              frozen := (!t, table_iter !t) :: !frozen;
              t := Tuple.Table.copy !t;
              m := Model.copy !m);
          if Tuple.Table.buckets !t > buckets then incr resizes;
          if not (agree !t !m) then
            QCheck.Test.fail_reportf "tables differ after %a" pp_op op)
        ops;
      List.iter
        (fun (old, seen) ->
          if not (same_bindings (table_iter old) seen) then
            QCheck.Test.fail_report "a table changed after it was copied")
        !frozen;
      (* Some sequence lengths must pass a resize, or the property
         would miss the split. *)
      List.length ops < 400 || !resizes >= 2)

(* -- Words of a delta application ----------------------------------- *)

(* Applying a one-tuple delta whose tuple the extent holds allocates
   nothing on a plain extent: both passes read the delta's stored hash
   and compare tuples without a closure.  With one key index the bucket
   list is rebuilt: a one-column key and a new (tuple, count) cell, 8
   words per application.  Words are minor + major - promoted, the minor
   heap emptied first; 500 insert+delete pairs.  Over [Hashtbl.Make] the
   same loops took 92.0 words a pair on the 500-row, 24-column extent
   and 230.0 on the indexed 4-column one. *)
let words_per_pair ~cols ~index =
  let rows = 500 in
  let schema =
    Schema.of_list
      (List.init cols (fun i ->
           if i mod 2 = 0 then Attr.int (Fmt.str "c%d" i)
           else Attr.string (Fmt.str "c%d" i)))
  in
  let tuple r =
    Tuple.of_list
      (List.init cols (fun i ->
           if i mod 2 = 0 then Value.int ((r * cols) + i)
           else Value.string (Fmt.str "v%d_%d" r i)))
  in
  let r = Relation.create schema in
  for i = 0 to rows - 1 do
    Relation.insert r (tuple i)
  done;
  if index then ignore (Relation.ensure_index_pos r [| 0 |] : Index.t);
  let ins = Relation.create schema and del = Relation.create schema in
  Relation.insert ins (tuple (rows / 2));
  Relation.delete del (tuple (rows / 2));
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let pairs = 500 in
  let w0 = words () in
  for _ = 1 to pairs do
    Relation.apply_delta_in_place r ins;
    Relation.apply_delta_in_place r del
  done;
  let per_pair = (words () -. w0) /. float_of_int pairs in
  Alcotest.(check int) "extent unchanged" rows (Relation.cardinality r);
  per_pair

let test_delta_words () =
  let plain = words_per_pair ~cols:24 ~index:false in
  let indexed = words_per_pair ~cols:4 ~index:true in
  Printf.printf "delta application: %.1f words a pair, %.1f with an index\n"
    plain indexed;
  if plain > 2.0 then
    Alcotest.failf "a plain extent: %.1f words per insert+delete (budget 2)"
      plain;
  if indexed > 20.0 then
    Alcotest.failf "an indexed extent: %.1f words per insert+delete (budget 20)"
      indexed

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
      ( "tuple table",
        [
          QCheck_alcotest.to_alcotest prop_table_is_hashtbl;
          Alcotest.test_case "delta application words" `Quick test_delta_words;
        ] );
    ]
