(* Property tests for the physical layer (qcheck, registered as alcotest
   cases): the indexed planner is held to the nested-loop reference plan
   on random signed multisets — negative multiplicities included — and
   incrementally maintained indexes are held to a full rescan.  Edge
   cases (empty inputs, unbound aliases, vanished attributes) must behave
   identically under both planners. *)

open Dyno_relational

let schema_a = Schema.of_list [ Attr.int "k"; Attr.int "v" ]
let schema_b = Schema.of_list [ Attr.int "k2"; Attr.int "w" ]
let schema_c = Schema.of_list [ Attr.int "k3"; Attr.int "u" ]

(* Small key domains so random joins actually match; counts span
   (-3, 3) so deltas with mixed signs flow through every operator. *)
let gen_relation sch =
  QCheck.Gen.(
    let tuple =
      map2
        (fun k v -> [ Value.int k; Value.int v ])
        (int_range 0 5) (int_range 0 3)
    in
    let entry = map2 (fun t c -> (t, c)) tuple (int_range (-3) 3) in
    map
      (fun entries -> Relation.of_counted sch entries)
      (list_size (int_range 0 12) entry))

let arb_rel sch = QCheck.make (gen_relation sch) ~print:(Fmt.str "%a" Relation.pp)

let both_plans q env =
  let run planner = Eval.run ~planner ~catalog:(Eval.catalog env) q in
  Relation.equal (run `Indexed) (run `Nested_loop)

(* -- plan equivalence ------------------------------------------------ *)

let join2 =
  Query.make ~name:"J2"
    ~select:[ Query.item "A.k"; Query.item "A.v"; Query.item "B.w" ]
    ~from:[ Query.table ~alias:"A" "x" "A"; Query.table ~alias:"B" "x" "B" ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2" ]

let prop_join2 =
  QCheck.Test.make ~name:"indexed join = nested-loop join (2 tables)"
    ~count:500
    (QCheck.pair (arb_rel schema_a) (arb_rel schema_b))
    (fun (a, b) -> both_plans join2 [ ("A", a); ("B", b) ])

let join3 =
  (* the middle alias joins both neighbours: exercises probing the
     accumulated intermediate as well as the pristine leftmost base *)
  Query.make ~name:"J3"
    ~select:[ Query.item "A.v"; Query.item "B.w"; Query.item "C.u" ]
    ~from:
      [
        Query.table ~alias:"A" "x" "A";
        Query.table ~alias:"B" "x" "B";
        Query.table ~alias:"C" "x" "C";
      ]
    ~where:
      [ Predicate.eq_attr "A.k" "B.k2"; Predicate.eq_attr "B.w" "C.k3" ]

let prop_join3 =
  QCheck.Test.make ~name:"indexed join = nested-loop join (3 tables)"
    ~count:500
    (QCheck.triple (arb_rel schema_a) (arb_rel schema_b) (arb_rel schema_c))
    (fun (a, b, c) -> both_plans join3 [ ("A", a); ("B", b); ("C", c) ])

let select_q =
  (* constant-equality conjunct (an index lookup under `Indexed) plus a
     residual non-equality atom *)
  Query.make ~name:"S"
    ~select:[ Query.item "A.k"; Query.item "A.v" ]
    ~from:[ Query.table ~alias:"A" "x" "A" ]
    ~where:
      [
        Predicate.eq_const "A.k" (Value.int 2);
        Predicate.cmp "A.v" Predicate.Ne (Value.int 1);
      ]

let prop_select =
  QCheck.Test.make ~name:"indexed selection = nested-loop selection"
    ~count:500 (arb_rel schema_a)
    (fun a -> both_plans select_q [ ("A", a) ])

(* -- prepared plans ---------------------------------------------------- *)

(* A residual cross-alias atom and a constant equality on a joined
   table, on top of the three-way join *)
let join3r =
  Query.make ~name:"J3R"
    ~select:[ Query.item "A.k"; Query.item "B.w"; Query.item "C.u" ]
    ~from:
      [
        Query.table ~alias:"A" "x" "A";
        Query.table ~alias:"B" "x" "B";
        Query.table ~alias:"C" "x" "C";
      ]
    ~where:
      [
        Predicate.eq_attr "A.k" "B.k2";
        Predicate.eq_attr "B.w" "C.k3";
        Predicate.atom
          (Predicate.Ref (Attr.Qualified.of_string "A.v"))
          Predicate.Ne
          (Predicate.Ref (Attr.Qualified.of_string "C.u"));
        Predicate.eq_const "C.u" (Value.int 2);
      ]

let schemas_abc = [ ("A", schema_a); ("B", schema_b); ("C", schema_c) ]

(* Each query is prepared exactly once, here, and reused for every
   instance the property draws. *)
let prepared =
  List.map
    (fun q -> (q, Eval.prepare q schemas_abc))
    [ join2; join3; join3r; select_q ]

let inputs_of q env =
  List.map (fun (tr : Query.table_ref) -> List.assoc tr.alias env) (Query.from q)

let prop_prepared =
  QCheck.Test.make
    ~name:"prepared once, executed per instance = run (both planners)"
    ~count:200
    (QCheck.list_of_size
       (QCheck.Gen.int_range 1 4)
       (QCheck.triple (arb_rel schema_a) (arb_rel schema_b) (arb_rel schema_c)))
    (fun instances ->
      List.for_all
        (fun (a, b, c) ->
          let env = [ ("A", a); ("B", b); ("C", c) ] in
          List.for_all
            (fun (q, p) ->
              let exec planner = Eval.execute ~planner p (inputs_of q env) in
              List.for_all
                (fun planner ->
                  Relation.equal (exec planner)
                    (Eval.run ~planner ~catalog:(Eval.catalog env) q))
                [ `Indexed; `Nested_loop ]
              && Relation.equal (exec `Indexed) (exec `Nested_loop))
            prepared)
        instances)

(* The same prepared plans answering rows: the rows consolidate to the
   relation [execute] answers, and their distinct count and mass are
   that relation's — flat or hashed, whatever the select list keeps. *)
let prop_rows =
  QCheck.Test.make ~name:"execute_rows = execute, exact counts (both planners)"
    ~count:200
    (QCheck.triple (arb_rel schema_a) (arb_rel schema_b) (arb_rel schema_c))
    (fun (a, b, c) ->
      let env = [ ("A", a); ("B", b); ("C", c) ] in
      List.for_all
        (fun (q, p) ->
          List.for_all
            (fun planner ->
              let rel = Eval.execute ~planner p (inputs_of q env) in
              let rows =
                Eval.execute_rows ~planner p
                  (List.map Rows.of_relation (inputs_of q env))
              in
              Rows.support rows = Relation.support rel
              && Rows.mass rows = Relation.mass rel
              && Relation.equal (Rows.relation rows) rel)
            [ `Indexed; `Nested_loop ])
        prepared)

(* A sum input: a base — hashed, maybe with key indexes built, flat, or
   a wider relation seen through a projection onto the base — and up to
   three scaled parts, plus sometimes a part and its negation, which
   cancel. *)
type sum_case = {
  base : Relation.t;
  form : [ `Hashed | `Flat | `Projected ];
  indexed : bool;
  parts : (int * Relation.t) list;
  cancel : Relation.t option;
}

let gen_sum sch =
  QCheck.Gen.(
    map
      (fun ((base, form, indexed), parts, cancel) ->
        { base; form; indexed; parts; cancel })
      (triple
         (triple (gen_relation sch) (oneofl [ `Hashed; `Flat; `Projected ]) bool)
         (list_size (int_range 0 3)
            (pair (oneofl [ -2; -1; 1; 2 ]) (gen_relation sch)))
         (opt (gen_relation sch))))

(* [r] with a first column numbering its tuples: projecting it away
   merges nothing. *)
let widened r =
  let sch = Relation.schema r in
  let wide = Schema.of_list (Attr.int "n" :: Schema.attrs sch) in
  let w = Relation.create wide in
  ignore
    (Relation.fold
       (fun t c i ->
         Relation.add w (Array.append [| Value.int i |] t) c;
         i + 1)
       r 0
      : int);
  w

let sum_of c =
  let indexed r at =
    if c.indexed then
      List.iter (fun pos -> ignore (Relation.ensure_index_pos r pos : Index.t)) at
  in
  let rows =
    match c.form with
    | `Flat ->
        let l = Relation.to_counted c.base in
        Rows.flat (Relation.schema c.base)
          (Array.of_list (List.map fst l))
          (Array.of_list (List.map snd l))
          (List.length l)
    | `Hashed ->
        indexed c.base [ [| 0 |]; [| 1 |] ];
        Rows.of_relation c.base
    | `Projected ->
        let w = widened c.base in
        indexed w [ [| 1 |]; [| 2 |] ];
        Rows.projected w [| 1; 2 |] (Relation.schema c.base)
  in
  let parts =
    c.parts
    @ match c.cancel with Some p -> [ (1, p); (-1, p) ] | None -> []
  in
  List.fold_left (fun s (k, p) -> Eval.add_part s k p) (Eval.sum rows) parts

let consolidated c =
  List.fold_left
    (fun acc (k, p) -> Relation.sum acc (Relation.scale k p))
    c.base c.parts

let print_sum c =
  Fmt.str "base %a@.parts %a@.cancel %a" Relation.pp c.base
    Fmt.(Dump.list (Dump.pair int Relation.pp))
    c.parts
    Fmt.(Dump.option Relation.pp)
    c.cancel

(* One unfiltered input projected: the sum reaches the output unjoined. *)
let project_v =
  let q =
    Query.make ~name:"P" ~select:[ Query.item "A.v" ]
      ~from:[ Query.table ~alias:"A" "x" "A" ]
      ~where:[]
  in
  (q, Eval.prepare q schemas_abc)

(* Every FROM entry a sum, its parts possibly empty: the answer over the
   sums equals the answer over their consolidated relations, for each
   prepared query and both planners, and no base or part changed. *)
let prop_sums =
  QCheck.Test.make ~name:"a sum input = its consolidated relation (both planners)"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b, c) ->
         Fmt.str "A: %s@.B: %s@.C: %s" (print_sum a) (print_sum b) (print_sum c))
       QCheck.Gen.(triple (gen_sum schema_a) (gen_sum schema_b) (gen_sum schema_c)))
    (fun (a, b, c) ->
      let cases = [ ("A", a); ("B", b); ("C", c) ] in
      let before = List.map (fun (_, c) -> Relation.to_counted c.base) cases in
      let sums = List.map (fun (al, c) -> (al, sum_of c)) cases in
      let env = List.map (fun (al, c) -> (al, consolidated c)) cases in
      List.for_all
        (fun (q, p) ->
          List.for_all
            (fun planner ->
              Relation.equal
                (Eval.execute_sums ~planner p
                   (List.map
                      (fun (tr : Query.table_ref) -> List.assoc tr.alias sums)
                      (Query.from q)))
                (Eval.run ~planner:`Nested_loop ~catalog:(Eval.catalog env) q))
            [ `Indexed; `Nested_loop ])
        (project_v :: prepared)
      && before = List.map (fun (_, c) -> Relation.to_counted c.base) cases)

(* -- index maintenance ------------------------------------------------ *)

(* Random add/delete stream applied to an indexed relation: every bucket
   of the incrementally maintained index must agree with a full rescan. *)
let gen_ops =
  QCheck.Gen.(
    let op =
      map2
        (fun k c -> ([ Value.int k; Value.int (k mod 3) ], c))
        (int_range 0 5)
        (int_range (-3) 3)
    in
    list_size (int_range 0 40) op)

let arb_ops =
  QCheck.make gen_ops
    ~print:
      (Fmt.str "%a"
         (Fmt.list (fun ppf (vs, c) ->
              Fmt.pf ppf "(%a, %+d)" (Fmt.list Value.pp) vs c)))

let prop_index_maintenance =
  QCheck.Test.make ~name:"incremental index = full rescan" ~count:500 arb_ops
    (fun ops ->
      let r = Relation.create schema_a in
      let ix = Relation.ensure_index r [ "k" ] in
      List.iter (fun (vs, c) -> Relation.add r (Tuple.of_list vs) c) ops;
      let sorted l = List.sort compare l in
      (* per-key buckets match a rescan of the final extent... *)
      let buckets_ok =
        List.for_all
          (fun k ->
            let key = Tuple.of_list [ Value.int k ] in
            let rescan =
              Relation.fold
                (fun t c acc ->
                  if Value.equal (Tuple.get t 0) (Value.int k) then
                    (t, c) :: acc
                  else acc)
                r []
            in
            sorted (Index.lookup ix key) = sorted rescan)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      (* ...and the index carries exactly the relation's support: no
         zombie entries survive cancellation to zero. *)
      buckets_ok && Index.support ix = Relation.support r)

(* -- copies carry their indexes ----------------------------------------- *)

(* Keys a relation over [schema_a] may have registered: none, one or two
   of these. *)
let key_choices = [| [| 0 |]; [| 1 |]; [| 1; 0 |] |]

(* Every (k, v) a generated tuple can take, so every possible key. *)
let all_tuples =
  List.concat_map
    (fun k -> List.map (fun v -> Tuple.of_list [ Value.int k; Value.int v ]) [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3; 4; 5 ]

(* An index as plain data: each possible key with its sorted bucket. *)
let index_contents ix =
  List.map
    (fun t ->
      let key = Index.key_of ix t in
      (key, List.sort compare (Index.lookup ix key)))
    all_tuples

let indexes_of r keys =
  List.map
    (fun pos ->
      match Relation.find_index_pos r pos with
      | Some ix -> index_contents ix
      | None -> [])
    keys

(* The indexes a fresh relation holding [r]'s data would build. *)
let rebuilt r keys =
  let fresh = Relation.create (Relation.schema r) in
  Relation.iter (fun t c -> Relation.add fresh t c) r;
  List.map (fun pos -> index_contents (Relation.ensure_index_pos fresh pos)) keys

let gen_counted =
  QCheck.Gen.(
    list_size (int_range 0 15)
      (triple (int_range 0 5) (int_range 0 3) (int_range (-3) 3)))

let of_triples r =
  List.iter
    (fun (k, v, c) -> Relation.add r (Tuple.of_list [ Value.int k; Value.int v ]) c)

let prop_copy_carries_indexes =
  QCheck.Test.make
    ~name:"a copy's indexes = indexes rebuilt from its data; copies evolve apart"
    ~count:300
    (QCheck.make
       ~print:(fun (base, n, to_copy, to_orig) ->
         Fmt.str "base %d ops, %d index(es), %d ops on the copy, %d on the original"
           (List.length base) n (List.length to_copy) (List.length to_orig))
       QCheck.Gen.(quad gen_counted (int_range 0 2) gen_counted gen_counted))
    (fun (base, n, to_copy, to_orig) ->
      let keys = Array.to_list (Array.sub key_choices 0 n) in
      let orig = Relation.create schema_a in
      List.iter (fun pos -> ignore (Relation.ensure_index_pos orig pos : Index.t)) keys;
      of_triples orig base;
      let snapshot r = (Relation.to_counted r, indexes_of r keys) in
      let orig_before = snapshot orig in
      let copy = Relation.copy orig in
      let carried = Relation.index_count copy = List.length keys in
      let fresh_ok () = indexes_of copy keys = rebuilt copy keys in
      let at_copy = fresh_ok () in
      of_triples copy to_copy;
      let after_adds = fresh_ok () in
      let orig_untouched = snapshot orig = orig_before in
      let copy_before = snapshot copy in
      of_triples orig to_orig;
      let copy_untouched = snapshot copy = copy_before in
      let orig_fresh = indexes_of orig keys = rebuilt orig keys in
      carried && at_copy && after_adds && orig_untouched && copy_untouched
      && orig_fresh)

(* -- identity projections are copies ---------------------------------- *)

(* Every column in order under new names: the identity path.  Its
   permutation, and [select_q] (every column, but filtered), take the
   general one. *)
let identity_q =
  Query.make ~name:"I"
    ~select:[ Query.item ~as_:"k1" "A.k"; Query.item ~as_:"v1" "A.v" ]
    ~from:[ Query.table ~alias:"A" "x" "A" ]
    ~where:[]

let swapped_q =
  Query.make ~name:"P"
    ~select:[ Query.item ~as_:"v1" "A.v"; Query.item ~as_:"k1" "A.k" ]
    ~from:[ Query.table ~alias:"A" "x" "A" ]
    ~where:[]

let prop_identity_projection =
  QCheck.Test.make
    ~name:"identity projection = general projection (both planners), a copy"
    ~count:300
    (QCheck.pair (arb_rel schema_a) (QCheck.int_range 0 2))
    (fun (a, n) ->
      let keys = Array.to_list (Array.sub key_choices 0 n) in
      List.iter (fun pos -> ignore (Relation.ensure_index_pos a pos : Index.t)) keys;
      let out_schema = Schema.of_list [ Attr.int "k1"; Attr.int "v1" ] in
      (* the general projection, operator by operator *)
      let general = Relation.map_tuples out_schema Fun.id a in
      let swapped =
        Relation.map_tuples
          (Schema.of_list [ Attr.int "v1"; Attr.int "k1" ])
          (fun t -> Tuple.project_idx t [| 1; 0 |])
          a
      in
      let filtered =
        Relation.select
          (fun t ->
            Value.equal (Tuple.get t 0) (Value.int 2)
            && not (Value.equal (Tuple.get t 1) (Value.int 1)))
          a
      in
      let snapshot () = (Relation.to_counted a, indexes_of a keys) in
      let a_before = snapshot () in
      List.for_all
        (fun planner ->
          let run q = Eval.run ~planner ~catalog:(Eval.catalog [ ("A", a) ]) q in
          let id = run identity_q in
          let same = Relation.equal id general in
          let keeps_indexes =
            indexes_of id keys = indexes_of a keys
            && Relation.index_count id = Relation.index_count a
          in
          (* the caller owns the answer: changing it leaves the input *)
          let owned =
            id != a
            && (Relation.add id (Tuple.of_list [ Value.int 9; Value.int 9 ]) 1;
                snapshot () = a_before)
          in
          same && keeps_indexes && owned
          && Relation.equal (run swapped_q) swapped
          && Relation.equal (run select_q) filtered)
        [ `Indexed; `Nested_loop ])

(* -- edge cases (plain alcotest) -------------------------------------- *)

let empty_a () = Relation.create schema_a
let empty_b () = Relation.create schema_b

let test_empty_inputs () =
  List.iter
    (fun env ->
      List.iter
        (fun planner ->
          let r = Eval.run ~planner ~catalog:(Eval.catalog env) join2 in
          Alcotest.(check int) "empty join" 0 (Relation.support r))
        [ `Indexed; `Nested_loop ])
    [
      [ ("A", empty_a ()); ("B", empty_b ()) ];
      [ ("A", empty_a ()); ("B", Relation.of_list schema_b [ [ Value.int 1; Value.int 1 ] ]) ];
      [ ("A", Relation.of_list schema_a [ [ Value.int 1; Value.int 1 ] ]); ("B", empty_b ()) ];
    ]

let expect_eval_error name f =
  match f () with
  | (_ : Relation.t) -> Alcotest.failf "%s: expected Eval.Error" name
  | exception Eval.Error _ -> ()

let test_unbound_alias () =
  List.iter
    (fun planner ->
      expect_eval_error "unbound alias" (fun () ->
          Eval.run ~planner
            ~catalog:(Eval.catalog [ ("A", empty_a ()) ])
            join2))
    [ `Indexed; `Nested_loop ]

let test_mismatched_schema () =
  (* B bound to a relation without the k2 the query joins on — the
     in-exec broken-query signal must fire under either plan *)
  List.iter
    (fun planner ->
      expect_eval_error "vanished attribute" (fun () ->
          Eval.run ~planner
            ~catalog:
              (Eval.catalog
                 [ ("A", empty_a ()); ("B", Relation.create schema_c) ])
            join2))
    [ `Indexed; `Nested_loop ]

let test_stale_plan_reprepares () =
  (* a plan prepared for B(k2, w) executed over B(w, k2): the positions it
     resolved are stale, so it must re-prepare and agree with [run] *)
  let p = Eval.prepare join2 [ ("A", schema_a); ("B", schema_b) ] in
  let a = Relation.of_list schema_a [ [ Value.int 1; Value.int 7 ] ] in
  let swapped = Schema.of_list [ Attr.int "w"; Attr.int "k2" ] in
  let b = Relation.of_list swapped [ [ Value.int 9; Value.int 1 ] ] in
  let env = [ ("A", a); ("B", b) ] in
  List.iter
    (fun planner ->
      Alcotest.(check bool) "stale plan = run" true
        (Relation.equal
           (Eval.execute ~planner p [ a; b ])
           (Eval.run ~planner ~catalog:(Eval.catalog env) join2)))
    [ `Indexed; `Nested_loop ];
  (* ...and a conflict raises the same error [run] raises *)
  let c = Relation.create schema_c in
  let reason f = match f () with _ -> "none" | exception Eval.Error r -> r in
  Alcotest.(check string) "same broken reason"
    (reason (fun () ->
         Eval.run ~catalog:(Eval.catalog [ ("A", a); ("B", c) ]) join2))
    (reason (fun () -> Eval.execute p [ a; c ]))

let test_stale_plan_prepares_once () =
  (* A plan executed over inputs with other schemas re-prepares once and
     keeps that plan for the next execution with the same schemas. *)
  let p = Eval.prepare join2 [ ("A", schema_a); ("B", schema_b) ] in
  let a = Relation.of_list schema_a [ [ Value.int 1; Value.int 7 ] ] in
  let swapped = Schema.of_list [ Attr.int "w"; Attr.int "k2" ] in
  let b = Relation.of_list swapped [ [ Value.int 9; Value.int 1 ] ] in
  let fresh = Eval.prepare join2 [ ("A", schema_a); ("B", swapped) ] in
  List.iter
    (fun planner ->
      let first = Eval.execute ~planner p [ a; b ] in
      let restaged = Eval.restaged p in
      let second = Eval.execute ~planner p [ a; b ] in
      Alcotest.(check bool) "first = fresh prepare" true
        (Relation.equal first (Eval.execute ~planner fresh [ a; b ]));
      Alcotest.(check bool) "second = fresh prepare" true
        (Relation.equal second (Eval.execute ~planner fresh [ a; b ]));
      Alcotest.(check bool) "re-prepared once" true
        (match (restaged, Eval.restaged p) with
        | Some r1, Some r2 -> r1 == r2
        | _ -> false))
    [ `Indexed; `Nested_loop ];
  (* a re-prepare that fails raises the same error every time *)
  let c = Relation.create schema_c in
  let reason () =
    match Eval.execute p [ a; c ] with
    | _ -> "none"
    | exception Eval.Error r -> r
  in
  let first = reason () in
  Alcotest.(check bool) "conflict raises" true (first <> "none");
  Alcotest.(check string) "same error again" first (reason ())

let test_index_registry () =
  let r = Relation.of_list schema_a [ [ Value.int 1; Value.int 2 ] ] in
  let ix = Relation.ensure_index r [ "k" ] in
  let again = Relation.ensure_index r [ "k" ] in
  Alcotest.(check bool) "ensure is idempotent" true (ix == again);
  Alcotest.(check int) "one index registered" 1 (Relation.index_count r);
  ignore (Relation.ensure_index r [ "v" ]);
  Alcotest.(check int) "second key registered" 2 (Relation.index_count r)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "index"
    [
      ( "plan equivalence",
        List.map to_alcotest
          [
            prop_join2;
            prop_join3;
            prop_select;
            prop_prepared;
            prop_rows;
            prop_identity_projection;
            prop_sums;
          ] );
      ( "index maintenance",
        List.map to_alcotest [ prop_index_maintenance; prop_copy_carries_indexes ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "unbound alias" `Quick test_unbound_alias;
          Alcotest.test_case "mismatched schema" `Quick test_mismatched_schema;
          Alcotest.test_case "stale plan re-prepares" `Quick
            test_stale_plan_reprepares;
          Alcotest.test_case "stale plan prepares once per schema" `Quick
            test_stale_plan_prepares_once;
          Alcotest.test_case "index registry" `Quick test_index_registry;
        ] );
    ]
