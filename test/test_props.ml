(* Property-based tests (qcheck, registered as alcotest cases):

   - algebraic laws of signed-multiset relations, including the linearity
     that SWEEP compensation and Equation 6 rely on;
   - Equation 6 equals new-minus-old for arbitrary old/new states;
   - schema-change delta composition laws;
   - correction always produces a legal order (Theorem 2) and never loses
     an update;
   - the golden end-to-end property: for random mixed workloads, every
     strategy drives the view to convergence with strong consistency. *)

open Dyno_relational

let schema = Schema.of_list [ Attr.int "k"; Attr.int "v" ]
let schema_b = Schema.of_list [ Attr.int "k2"; Attr.int "w" ]

(* -- generators ------------------------------------------------------ *)

let gen_relation ?(sch = schema) () =
  QCheck.Gen.(
    let tuple =
      map2 (fun k v -> [ Value.int k; Value.int v ]) (int_range 0 5) (int_range 0 3)
    in
    let entry = map2 (fun t c -> (t, c)) tuple (int_range (-3) 3) in
    map (fun entries -> Relation.of_counted sch entries) (list_size (int_range 0 10) entry))

let arb_relation = QCheck.make (gen_relation ()) ~print:(Fmt.str "%a" Relation.pp)

let arb_relation_b =
  QCheck.make (gen_relation ~sch:schema_b ()) ~print:(Fmt.str "%a" Relation.pp)

let arb_pos_relation =
  QCheck.make
    QCheck.Gen.(map Relation.positive (gen_relation ()))
    ~print:(Fmt.str "%a" Relation.pp)

(* -- relation algebra -------------------------------------------------- *)

let prop_sum_commutative =
  QCheck.Test.make ~name:"sum is commutative" ~count:200
    (QCheck.pair arb_relation arb_relation)
    (fun (a, b) -> Relation.equal (Relation.sum a b) (Relation.sum b a))

let prop_sum_associative =
  QCheck.Test.make ~name:"sum is associative" ~count:200
    (QCheck.triple arb_relation arb_relation arb_relation)
    (fun (a, b, c) ->
      Relation.equal
        (Relation.sum a (Relation.sum b c))
        (Relation.sum (Relation.sum a b) c))

let prop_diff_self_empty =
  QCheck.Test.make ~name:"a - a = 0" ~count:200 arb_relation (fun a ->
      Relation.is_empty (Relation.diff a a))

let prop_negate_distributes =
  QCheck.Test.make ~name:"-(a+b) = (-a)+(-b)" ~count:200
    (QCheck.pair arb_relation arb_relation)
    (fun (a, b) ->
      Relation.equal
        (Relation.negate (Relation.sum a b))
        (Relation.sum (Relation.negate a) (Relation.negate b)))

let prop_pos_neg_decomposition =
  QCheck.Test.make ~name:"a = pos(a) - neg(a)" ~count:200 arb_relation (fun a ->
      Relation.equal a (Relation.diff (Relation.positive a) (Relation.negative a)))

let prop_project_preserves_cardinality =
  QCheck.Test.make ~name:"projection preserves signed cardinality" ~count:200
    arb_relation (fun a ->
      Relation.cardinality (Relation.project a [ "v" ]) = Relation.cardinality a)

let join_query =
  Query.make ~name:"J"
    ~select:[ Query.item "A.k"; Query.item "A.v"; Query.item "B.w" ]
    ~from:[ Query.table ~alias:"A" "x" "A"; Query.table ~alias:"B" "x" "B" ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2" ]

let eval_join a b = Eval.run ~catalog:(Eval.catalog [ ("A", a); ("B", b) ]) join_query

let prop_join_linearity =
  QCheck.Test.make ~name:"SPJ queries are linear: J(a+b,c) = J(a,c)+J(b,c)"
    ~count:200
    (QCheck.triple arb_relation arb_relation arb_relation_b)
    (fun (a, b, c) ->
      Relation.equal (eval_join (Relation.sum a b) c)
        (Relation.sum (eval_join a c) (eval_join b c)))

(* -- evaluator against a naive reference -------------------------------- *)

(* reference evaluation: full cross product, then filter, then project —
   no push-down, no hash joins, no binder cleverness *)
let reference_eval (env : (string * Relation.t) list) (q : Query.t) =
  let schemas = List.map (fun (a, r) -> (a, Relation.schema r)) env in
  (* absolute position of alias.attr in the product tuple *)
  let resolve (r : Attr.Qualified.t) =
    let alias =
      match Attr.Qualified.rel r with
      | Some a -> a
      | None ->
          fst
            (List.find
               (fun (_, s) -> Schema.mem s (Attr.Qualified.attr r))
               schemas)
    in
    let rec go offset = function
      | [] -> failwith "alias not found"
      | (a, s) :: rest ->
          if String.equal a alias then offset + Schema.index_of s (Attr.Qualified.attr r)
          else go (offset + Schema.arity s) rest
    in
    go 0 schemas
  in
  let product =
    match Query.from q with
    | [] -> failwith "empty from"
    | first :: rest ->
        List.fold_left
          (fun acc (tr : Query.table_ref) ->
            Relation.product acc (List.assoc tr.alias env))
          (List.assoc first.Query.alias env)
          rest
  in
  let filtered =
    Relation.select (fun t -> Predicate.eval resolve (Query.where q) t) product
  in
  let items =
    List.map
      (fun (it : Query.select_item) ->
        let pos = resolve it.Query.expr in
        let src =
          Schema.attr_at (Relation.schema product) pos
        in
        (pos, Attr.make it.Query.as_name (Attr.ty src)))
      (Query.select q)
  in
  let out_schema = Schema.of_list (List.map snd items) in
  let idxs = Array.of_list (List.map fst items) in
  Relation.map_tuples out_schema (fun t -> Tuple.project_idx t idxs) filtered

let prop_eval_matches_reference =
  QCheck.Test.make ~name:"evaluator = naive product+filter+project" ~count:200
    (QCheck.pair arb_relation arb_relation_b)
    (fun (a, b) ->
      let q =
        Query.make ~name:"ref"
          ~select:[ Query.item "A.v"; Query.item "B.w"; Query.item ~as_:"key" "A.k" ]
          ~from:[ Query.table ~alias:"A" "x" "A"; Query.table ~alias:"B" "x" "B" ]
          ~where:
            [
              Predicate.eq_attr "A.k" "B.k2";
              Predicate.cmp "B.w" Predicate.Ge (Value.int 1);
            ]
      in
      let env = [ ("A", a); ("B", b) ] in
      Relation.equal (Eval.run ~catalog:(Eval.catalog env) q) (reference_eval env q))

(* -- Equation 6 -------------------------------------------------------- *)

(* B with a column the view never reads, so its fetch is a projection. *)
let schema_bz = Schema.of_list [ Attr.int "k2"; Attr.int "w"; Attr.int "z" ]

let gen_pos_bz =
  QCheck.Gen.(
    map
      (fun entries -> Relation.positive (Relation.of_counted schema_bz entries))
      (list_size (int_range 0 10)
         (map2
            (fun (k, w, z) c -> ([ Value.int k; Value.int w; Value.int z ], c))
            (triple (int_range 0 5) (int_range 0 3) (int_range 0 1))
            (int_range (-3) 3))))

let counted r = List.map (fun (t, c) -> (Tuple.to_list t, c)) (Relation.to_counted r)

(* A refresh through the engine: a source [x] at the old states commits
   the batch (ΔA, ΔB, maintained), then pending inserts on both (to be
   compensated), and an insert on A lands 0.5 s in, after A's fetch; the
   view starts at V(old) and must end at V(new), and once the insert is
   delivered the source's A holds every commit. *)
let refresh_reaches_new ~old_a ~new_a ~old_b ~new_b ~pend_a ~pend_b ~late =
  let ds = Dyno_source.Data_source.create "x" in
  Dyno_source.Data_source.add_relation ds "A" schema;
  Dyno_source.Data_source.load_counted ds "A" (counted old_a);
  Dyno_source.Data_source.add_relation ds "B" schema_bz;
  Dyno_source.Data_source.load_counted ds "B" (counted old_b);
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry ds;
  let umq = Dyno_view.Umq.create () in
  let timeline = Dyno_sim.Timeline.create () in
  let w =
    Dyno_view.Query_engine.create
      ~cost:{ Dyno_sim.Cost_model.free with va_per_tuple = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  let commit rel d =
    if Relation.is_empty d then []
    else
      let u = Update.make ~source:"x" ~rel d in
      let v = Dyno_source.Data_source.commit_du ds ~time:0.0 u in
      [
        Dyno_view.Update_msg.id
          (Dyno_view.Umq.enqueue umq ~commit_time:0.0 ~source_version:v
             (Dyno_view.Update_msg.Du u));
      ]
  in
  let da = Relation.diff new_a old_a and db = Relation.diff new_b old_b in
  let batch = commit "A" da @ commit "B" db in
  ignore (commit "A" pend_a @ commit "B" pend_b : int list);
  if not (Relation.is_empty late) then
    Dyno_sim.Timeline.schedule timeline ~time:0.5
      (Dyno_sim.Timeline.Du (Update.make ~source:"x" ~rel:"A" late));
  let vd =
    Dyno_view.View_def.create ~schemas:[ ("A", schema); ("B", schema_bz) ] join_query
  in
  let mv = Dyno_view.Mat_view.create vd (Relation.create Schema.empty) in
  Dyno_view.Mat_view.replace mv ~at:0.0 ~maintained:[] (eval_join old_a old_b);
  match
    Dyno_va.Adapt.refresh_with_equation6 w mv ~maintained:batch
      ~batch_deltas:[ ("A", da); ("B", db) ]
      ~exclude:batch
  with
  | Error _ -> false
  | Ok () ->
      Relation.equal (Dyno_view.Mat_view.extent mv) (eval_join new_a new_b)
      && (Dyno_view.Query_engine.idle_until w 1.0;
          Relation.equal
           (Dyno_source.Data_source.relation ds "A")
           (Relation.sum new_a (Relation.sum pend_a late)))

(* Equation 6 over sums whose parts cancel: each new state is its source
   extent (new + pending) minus the pending part, each old state that
   minus its delta, under both planners; and the same refresh driven
   through pinned fetches, projections and a commit after a fetch. *)
let prop_equation6 =
  let arb_bz = QCheck.make gen_pos_bz ~print:(Fmt.str "%a" Relation.pp) in
  QCheck.Test.make ~name:"equation6 = V(new) - V(old)" ~count:200
    (QCheck.triple
       (QCheck.pair arb_pos_relation arb_pos_relation)
       (QCheck.pair arb_bz arb_bz)
       (QCheck.triple arb_pos_relation arb_bz arb_pos_relation))
    (fun ((old_a, new_a), (old_b, new_b), (pend_a, pend_b, late)) ->
      let state fresh pending =
        Eval.add_part
          (Eval.sum (Rows.of_relation (Relation.sum fresh pending)))
          (-1) pending
      in
      let new_env = [ ("A", state new_a pend_a); ("B", state new_b pend_b) ] in
      let da = Relation.diff new_a old_a and db = Relation.diff new_b old_b in
      let old_env =
        [
          ("A", Eval.add_part (List.assoc "A" new_env) (-1) da);
          ("B", Eval.add_part (List.assoc "B" new_env) (-1) db);
        ]
      in
      let expected =
        Relation.diff (eval_join new_a new_b) (eval_join old_a old_b)
      in
      List.for_all
        (fun planner ->
          Relation.equal expected
            (Dyno_va.Adapt.equation6 ~planner
               ~deltas:[ ("A", da); ("B", db) ]
               ~old_env ~new_env join_query))
        [ `Indexed; `Nested_loop ]
      && refresh_reaches_new ~old_a ~new_a ~old_b ~new_b ~pend_a ~pend_b ~late)

(* -- schema-change transform --------------------------------------------- *)

(* derive a random APPLICABLE schema-change sequence by folding random
   choices over the evolving schema *)
let gen_sc_seq =
  QCheck.Gen.(
    let base = Schema.of_list [ Attr.int "a"; Attr.int "b"; Attr.int "c" ] in
    map
      (fun choices ->
        let _, rev_scs, _ =
          List.fold_left
            (fun (sch, acc, fresh) choice ->
              let names = Schema.names sch in
              let pick i = List.nth names (i mod List.length names) in
              match choice mod 3 with
              | 0 when names <> [] ->
                  (* rename *)
                  let o = pick choice in
                  let n = Fmt.str "n%d" fresh in
                  ( Schema.rename sch ~old_name:o ~new_name:n,
                    Schema_change.Rename_attribute
                      { source = "ds"; rel = "R"; old_name = o; new_name = n }
                    :: acc,
                    fresh + 1 )
              | 1 when List.length names > 1 ->
                  let o = pick choice in
                  ( Schema.drop sch o,
                    Schema_change.Drop_attribute { source = "ds"; rel = "R"; attr = o } :: acc,
                    fresh )
              | _ ->
                  let n = Fmt.str "x%d" fresh in
                  ( Schema.add sch (Attr.int n),
                    Schema_change.Add_attribute
                      { source = "ds"; rel = "R"; attr = Attr.int n; default = Value.int 0 }
                    :: acc,
                    fresh + 1 ))
            (base, [], 0) choices
        in
        (base, List.rev rev_scs))
      (list_size (int_range 0 8) (int_range 0 1000)))

let arb_sc_seq =
  QCheck.make gen_sc_seq ~print:(fun (_, scs) ->
      Fmt.str "%a" Fmt.(list ~sep:(any "; ") Schema_change.pp) scs)

(* The delta a batch carries across the changes ends in the schema that
   the source's relation reaches by committing them one at a time. *)
let prop_delta_matches_source =
  QCheck.Test.make ~name:"net delta schema = stepwise source application"
    ~count:200 arb_sc_seq (fun (base, scs) ->
      let d =
        List.fold_left
          (fun r sc -> Schema_change.extent sc r)
          (Relation.create base) scs
      in
      let src = Dyno_source.Data_source.create "ds" in
      Dyno_source.Data_source.add_relation src "R" base;
      List.iter
        (fun sc -> ignore (Dyno_source.Data_source.commit_sc src ~time:0.0 sc))
        scs;
      Schema.equal (Relation.schema d)
        (Relation.schema (Dyno_source.Data_source.relation src "R")))

let prop_project_tuple_arity =
  QCheck.Test.make ~name:"projected tuples match the post-delta schema"
    ~count:200 arb_sc_seq (fun (base, scs) ->
      let tup = List.init (Schema.arity base) (fun i -> Value.int i) in
      let d =
        List.fold_left
          (fun r sc -> Schema_change.extent sc r)
          (Relation.of_counted base [ (tup, 1) ]) scs
      in
      let s' = List.fold_left (fun s sc -> Schema_change.schema sc s) base scs in
      Relation.support d = 1
      && Relation.fold (fun t _ ok -> ok && Schema.typecheck s' t) d true)

(* A random signed relation over [gen_sc_seq]'s base schema (a, b, c),
   from a small value domain so that drops merge tuples: the rows as
   generated, duplicates and all. *)
let gen_signed_rows =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (pair
         (list_repeat 3 (int_range 0 2))
         (oneofl [ -2; -1; 1; 2 ])))

(* The naive reference for one change on (attribute names, rows): a
   rename keeps the tuples, a drop removes the position, an add appends
   the default.  Counts are re-aggregated at the end ([aggregate]). *)
let naive_step (names, rows) (sc : Schema_change.t) =
  match sc with
  | Rename_attribute { old_name; new_name; _ } ->
      ( List.map (fun n -> if String.equal n old_name then new_name else n) names,
        rows )
  | Drop_attribute { attr; _ } ->
      let keep l =
        List.filteri (fun j _ -> not (String.equal (List.nth names j) attr)) l
      in
      (keep names, List.map (fun (t, c) -> (keep t, c)) rows)
  | Add_attribute { attr; default; _ } ->
      (names @ [ Attr.name attr ], List.map (fun (t, c) -> (t @ [ default ], c)) rows)
  | _ -> invalid_arg "naive_step: gen_sc_seq makes attribute changes only"

(* Sum the counts of equal tuples, dropping those that reach zero. *)
let aggregate rows =
  List.fold_left
    (fun acc (t, c) ->
      let c' = c + Option.value (List.assoc_opt t acc) ~default:0 in
      (t, c') :: List.remove_assoc t acc)
    [] rows
  |> List.filter (fun (_, c) -> c <> 0)

let prop_extent_matches_reference =
  QCheck.Test.make ~name:"carried extent = reference" ~count:300
    (QCheck.pair arb_sc_seq
       (QCheck.make gen_signed_rows
          ~print:
            (Fmt.str "%a"
               Fmt.(Dump.list (Dump.pair (Dump.list int) int)))))
    (fun ((base, scs), ints) ->
      let rows = List.map (fun (t, c) -> (List.map Value.int t, c)) ints in
      let r =
        List.fold_left
          (fun r sc -> Schema_change.extent sc r)
          (Relation.of_counted base rows) scs
      in
      let names, expected =
        List.fold_left naive_step (Schema.names base, rows) scs
      in
      let expected = aggregate expected in
      Schema.equal (Relation.schema r)
        (List.fold_left (fun s sc -> Schema_change.schema sc s) base scs)
      && List.equal String.equal (Schema.names (Relation.schema r)) names
      && Relation.support r = List.length expected
      && List.for_all
           (fun (t, c) -> Relation.count r (Tuple.of_list t) = c)
           expected)

(* -- correction legality (Theorem 2) ----------------------------------- *)

let view2 =
  Query.make ~name:"V"
    ~select:[ Query.item "A.k"; Query.item "B.k2" ]
    ~from:[ Query.table ~alias:"A" "ds1" "A"; Query.table ~alias:"B" "ds2" "B" ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2" ]

let view2_schemas = [ ("A", schema); ("B", schema_b) ]

let gen_msgs =
  QCheck.Gen.(
    map
      (fun choices ->
        List.mapi
          (fun id choice ->
            let source = if choice mod 2 = 0 then "ds1" else "ds2" in
            let rel = if source = "ds1" then "A" else "B" in
            let payload =
              if choice mod 5 = 0 then
                Dyno_view.Update_msg.Sc
                  (Schema_change.Rename_relation
                     { source; old_name = rel; new_name = Fmt.str "%s%d" rel id })
              else
                Dyno_view.Update_msg.Du
                  (Update.make ~source ~rel
                     (Relation.of_list
                        (if rel = "A" then schema else schema_b)
                        [ [ Value.int id; Value.int 0 ] ]))
            in
            Dyno_view.Update_msg.make ~id ~commit_time:(float_of_int id)
              ~source_version:id payload)
          choices)
      (list_size (int_range 1 14) (int_range 0 1000)))

let arb_msgs =
  QCheck.make gen_msgs ~print:(fun msgs ->
      Fmt.str "%a" Fmt.(list ~sep:(any "; ") Dyno_view.Update_msg.pp) msgs)

let prop_correction_legal =
  QCheck.Test.make ~name:"corrected order is legal and loses nothing"
    ~count:300 arb_msgs (fun msgs ->
      let entries = List.map (fun m -> Dyno_view.Umq.Single m) msgs in
      let g = Dyno_core.Dep_graph.build view2 view2_schemas entries in
      let c = Dyno_core.Dep_graph.correct g in
      (* 1. no update lost or duplicated *)
      let ids_in l =
        List.sort compare (List.concat_map Dyno_view.Umq.entry_ids l)
      in
      let preserved = ids_in entries = ids_in c.Dyno_core.Dep_graph.order in
      (* 2. every dependency safe in the new order *)
      let pos = Hashtbl.create 16 in
      List.iteri
        (fun i e ->
          List.iter
            (fun m -> Hashtbl.replace pos (Dyno_view.Update_msg.id m) i)
            (Dyno_view.Umq.entry_messages e))
        c.Dyno_core.Dep_graph.order;
      let node_ids =
        Array.of_list
          (List.map Dyno_view.Umq.entry_ids (Dyno_core.Dep_graph.nodes g))
      in
      let legal =
        List.for_all
          (fun (e : Dyno_core.Dependency.edge) ->
            let p = Hashtbl.find pos (List.hd node_ids.(e.prerequisite)) in
            let d = Hashtbl.find pos (List.hd node_ids.(e.dependent)) in
            p <= d)
          (Dyno_core.Dep_graph.edges g)
      in
      (* 3. batch members stay in commit order *)
      let batches_ordered =
        List.for_all
          (function
            | Dyno_view.Umq.Single _ -> true
            | Dyno_view.Umq.Batch ms ->
                let ids = List.map Dyno_view.Update_msg.id ms in
                ids = List.sort compare ids)
          c.Dyno_core.Dep_graph.order
      in
      preserved && legal && batches_ordered)

(* -- versioned-store reconstruction ------------------------------------- *)

(* The strong-consistency checker rests on Data_source.relation_at being
   exact.  Property: for a random commit history (data updates, attribute
   renames/drops/adds, relation renames), the replica's state at every
   past version equals a mirror captured at commit time, whatever order
   the versions are read in. *)
let prop_snapshot_reconstruction =
  QCheck.Test.make ~name:"relation_at reconstructs every past version"
    ~count:60
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 15) (int_range 0 1000))
       ~print:(Fmt.str "%a" Fmt.(Dump.list int)))
    (fun choices ->
      let src = Dyno_source.Data_source.create "ds" in
      Dyno_source.Data_source.add_relation src "R" schema;
      Dyno_source.Data_source.load src "R"
        [ [ Value.int 0; Value.int 0 ]; [ Value.int 1; Value.int 1 ] ];
      (* the source's one relation, under its current name *)
      let current = ref "R" in
      (* mirror: (version, rel name, extent copy) *)
      let capture () =
        ( Dyno_source.Data_source.version src,
          !current,
          Relation.copy (Dyno_source.Data_source.relation src !current) )
      in
      let mirrors = ref [ capture () ] in
      let fresh = ref 0 in
      List.iter
        (fun choice ->
          let name = !current in
          let sch =
            Relation.schema (Dyno_source.Data_source.relation src name)
          in
          incr fresh;
          (try
             match choice mod 5 with
             | 0 | 1 ->
                 (* insert a row valid under the current schema *)
                 let row =
                   List.map
                     (fun a ->
                       match Attr.ty a with
                       | Value.Vtype.TInt -> Value.int (choice mod 7)
                       | _ -> Value.null)
                     (Schema.attrs sch)
                 in
                 ignore
                   (Dyno_source.Data_source.commit_du src ~time:0.0
                      (Update.make ~source:"ds" ~rel:name
                         (Relation.of_list sch [ row ])))
             | 2 ->
                 let new_name = Fmt.str "R%d" !fresh in
                 ignore
                   (Dyno_source.Data_source.commit_sc src ~time:0.0
                      (Schema_change.Rename_relation
                         { source = "ds"; old_name = name; new_name }));
                 current := new_name
             | 3 ->
                 ignore
                   (Dyno_source.Data_source.commit_sc src ~time:0.0
                      (Schema_change.Add_attribute
                         { source = "ds"; rel = name;
                           attr = Attr.int (Fmt.str "n%d" !fresh);
                           default = Value.int 0 }))
             | _ ->
                 (* drop the last attribute if more than one remains *)
                 if Schema.arity sch > 1 then
                   ignore
                     (Dyno_source.Data_source.commit_sc src ~time:0.0
                        (Schema_change.Drop_attribute
                           { source = "ds"; rel = name;
                             attr =
                               Attr.name (Schema.attr_at sch (Schema.arity sch - 1));
                           }))
           with Dyno_source.Data_source.Commit_rejected _ -> ());
          mirrors := capture () :: !mirrors)
        choices;
      let matches (v, name, expected) =
        match Dyno_source.Data_source.relation_at src ~version:v name with
        | actual -> Relation.equal actual expected
        | exception _ -> false
      in
      let rng = Random.State.make [| Hashtbl.hash choices |] in
      let shuffled =
        List.map (fun m -> (Random.State.bits rng, m)) !mirrors
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      (* Oldest first only rolls the replica forward, newest first
         rebuilds it at every read, and a shuffle mixes both. *)
      List.for_all matches (List.rev !mirrors)
      && List.for_all matches !mirrors
      && List.for_all matches shuffled)

(* -- stats JSON round-trip --------------------------------------------- *)

(* [Stats.to_json_string] must survive a parse → re-serialize loop through
   the in-tree JSON parser with every field intact — counters, transport
   fields, [cross_shard_barriers] and the self-maintenance pair included.
   Floats are generated dyadic (n/8) so the %.6f rendering is exact. *)
let gen_stats =
  QCheck.Gen.(
    let dy = map (fun n -> float_of_int n /. 8.0) (int_range 0 80_000) in
    let i = int_range 0 100_000 in
    map3
      (fun fl b ints ->
        let f k = List.nth fl k and n k = List.nth ints k in
        let open Dyno_core in
        let s = Stats.create () in
        s.Stats.busy <- f 0;
        s.Stats.abort_cost <- f 1;
        s.Stats.idle <- f 2;
        s.Stats.end_time <- f 3;
        s.Stats.net_wait <- f 4;
        s.Stats.du_maintained <- n 0;
        s.Stats.sc_maintained <- n 1;
        s.Stats.batches <- n 2;
        s.Stats.batch_updates <- n 3;
        s.Stats.irrelevant <- n 4;
        s.Stats.aborts <- n 5;
        s.Stats.broken_queries <- n 6;
        s.Stats.detections <- n 7;
        s.Stats.corrections <- n 8;
        s.Stats.merges <- n 9;
        s.Stats.probes <- n 10;
        s.Stats.compensations <- n 11;
        s.Stats.view_commits <- n 12;
        s.Stats.view_undefined <- b;
        s.Stats.retries <- n 13;
        s.Stats.timeouts <- n 14;
        s.Stats.msgs_lost <- n 15;
        s.Stats.msgs_duplicated <- n 16;
        s.Stats.dups_dropped <- n 17;
        s.Stats.reorders_healed <- n 18;
        s.Stats.net_stalls <- n 19;
        s.Stats.cross_shard_barriers <- n 20;
        s.Stats.probes_avoided <- n 21;
        s.Stats.bytes_saved <- n 22;
        s)
      (list_repeat 5 dy) bool (list_repeat 23 i))

let arb_stats = QCheck.make gen_stats ~print:Dyno_core.Stats.to_json_string

let prop_stats_json_roundtrip =
  QCheck.Test.make ~name:"Stats JSON survives parse -> re-serialize"
    ~count:200 arb_stats (fun s ->
      let open Dyno_jsonv.Jsonv in
      match parse (Dyno_core.Stats.to_json_string s) with
      | Error _ -> false
      | Ok doc ->
          let fl k =
            match Option.bind (member k doc) num with
            | Some v -> v
            | None -> Float.nan
          in
          let it k = int_of_float (fl k) in
          let open Dyno_core in
          let s' = Stats.create () in
          s'.Stats.busy <- fl "busy";
          s'.Stats.abort_cost <- fl "abort_cost";
          s'.Stats.idle <- fl "idle";
          s'.Stats.end_time <- fl "end_time";
          s'.Stats.du_maintained <- it "du_maintained";
          s'.Stats.sc_maintained <- it "sc_maintained";
          s'.Stats.batches <- it "batches";
          s'.Stats.batch_updates <- it "batch_updates";
          s'.Stats.irrelevant <- it "irrelevant";
          s'.Stats.aborts <- it "aborts";
          s'.Stats.broken_queries <- it "broken_queries";
          s'.Stats.detections <- it "detections";
          s'.Stats.corrections <- it "corrections";
          s'.Stats.merges <- it "merges";
          s'.Stats.probes <- it "probes";
          s'.Stats.compensations <- it "compensations";
          s'.Stats.view_commits <- it "view_commits";
          s'.Stats.view_undefined <-
            member "view_undefined" doc = Some (Bool true);
          s'.Stats.retries <- it "retries";
          s'.Stats.timeouts <- it "timeouts";
          s'.Stats.msgs_lost <- it "msgs_lost";
          s'.Stats.msgs_duplicated <- it "msgs_duplicated";
          s'.Stats.dups_dropped <- it "dups_dropped";
          s'.Stats.reorders_healed <- it "reorders_healed";
          s'.Stats.net_stalls <- it "net_stalls";
          s'.Stats.cross_shard_barriers <- it "cross_shard_barriers";
          s'.Stats.probes_avoided <- it "probes_avoided";
          s'.Stats.bytes_saved <- it "bytes_saved";
          s'.Stats.net_wait <- fl "net_wait";
          String.equal
            (Dyno_core.Stats.to_json_string s)
            (Dyno_core.Stats.to_json_string s'))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "relation algebra",
        List.map to_alcotest
          [
            prop_sum_commutative;
            prop_sum_associative;
            prop_diff_self_empty;
            prop_negate_distributes;
            prop_pos_neg_decomposition;
            prop_project_preserves_cardinality;
            prop_join_linearity;
            prop_eval_matches_reference;
          ] );
      ("equation 6", List.map to_alcotest [ prop_equation6 ]);
      ( "schema-change deltas",
        List.map to_alcotest
          [
            prop_delta_matches_source;
            prop_project_tuple_arity;
            prop_extent_matches_reference;
          ] );
      ("correction", List.map to_alcotest [ prop_correction_legal ]);
      ( "versioned store",
        List.map to_alcotest [ prop_snapshot_reconstruction ] );
      ("stats json", List.map to_alcotest [ prop_stats_json_roundtrip ]);
    ]
