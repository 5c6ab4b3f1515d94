(* Unit tests for the dependency model and graph correction: CD/SD edge
   construction, safety classification (Definition 6), Tarjan SCC, cycle
   merging and the stable topological legal order (Theorem 2) — including
   the paper's Figure 4 example. *)

open Dyno_relational
open Dyno_view
open Dyno_core

let schema = Schema.of_list [ Attr.int "k" ]
let schema_b = Schema.of_list [ Attr.int "k2" ]

let view_q () =
  Query.make ~name:"V"
    ~select:[ Query.item "A.k"; Query.item "B.k2" ]
    ~from:[ Query.table ~alias:"A" "ds1" "A"; Query.table ~alias:"B" "ds2" "B" ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2" ]

let schemas () = [ ("A", schema); ("B", schema_b) ]

let du ~id ~source ~rel =
  Update_msg.make ~id ~commit_time:(float_of_int id) ~source_version:id
    (Update_msg.Du
       (Update.make ~source ~rel
          (Relation.of_list (if rel = "A" then schema else schema_b) [ [ Value.int id ] ])))

let sc_rename ~id ~source ~rel =
  Update_msg.make ~id ~commit_time:(float_of_int id) ~source_version:id
    (Update_msg.Sc
       (Schema_change.Rename_relation
          { source; old_name = rel; new_name = rel ^ "x" }))

let sc_add ~id ~source ~rel =
  Update_msg.make ~id ~commit_time:(float_of_int id) ~source_version:id
    (Update_msg.Sc
       (Schema_change.Add_attribute
          { source; rel; attr = Attr.int (Fmt.str "n%d" id); default = Value.int 0 }))

let singles msgs = List.map (fun m -> Umq.Single m) msgs

let build msgs = Dep_graph.build (view_q ()) (schemas ()) (singles msgs)

(* -- edge construction ------------------------------------------------ *)

let test_cd_edges () =
  (* one conflicting SC at position 2: everyone else depends on it *)
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A";
      du ~id:1 ~source:"ds2" ~rel:"B";
      sc_rename ~id:2 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  let cds =
    List.filter (fun (e : Dependency.edge) -> e.kind = Dependency.Concurrent)
      (Dep_graph.edges g)
  in
  Alcotest.(check int) "2 CD edges" 2 (List.length cds);
  List.iter
    (fun (e : Dependency.edge) ->
      Alcotest.(check int) "prerequisite is the SC" 2 e.Dependency.prerequisite)
    cds

let test_add_only_sc_no_cd () =
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A"; sc_add ~id:1 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  Alcotest.(check int) "add-only SC draws no CD edge" 0
    (List.length
       (List.filter (fun (e : Dependency.edge) -> e.kind = Dependency.Concurrent)
          (Dep_graph.edges g)))

let test_sc_on_foreign_source_no_cd () =
  let msgs = [ du ~id:0 ~source:"ds1" ~rel:"A"; sc_rename ~id:1 ~source:"ds9" ~rel:"Z" ] in
  let g = build msgs in
  Alcotest.(check int) "SC at unread source draws no CD" 0
    (List.length
       (List.filter (fun (e : Dependency.edge) -> e.kind = Dependency.Concurrent)
          (Dep_graph.edges g)))

let test_sd_edges_per_source () =
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A";
      du ~id:1 ~source:"ds2" ~rel:"B";
      du ~id:2 ~source:"ds1" ~rel:"A";
      du ~id:3 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  let sds =
    List.filter (fun (e : Dependency.edge) -> e.kind = Dependency.Semantic)
      (Dep_graph.edges g)
  in
  (* ds1 chain: 0→2→3 = 2 edges; ds2 singleton: none *)
  Alcotest.(check int) "chained per source" 2 (List.length sds);
  Alcotest.(check bool) "0 before 2" true
    (List.exists
       (fun (e : Dependency.edge) -> e.prerequisite = 0 && e.dependent = 2)
       sds);
  Alcotest.(check bool) "2 before 3" true
    (List.exists
       (fun (e : Dependency.edge) -> e.prerequisite = 2 && e.dependent = 3)
       sds)

(* -- safety (Definition 6) ------------------------------------------- *)

let test_safety_classification () =
  (* SD edges (earlier commits first, FIFO queue order) are safe; the CD
     edge from a later-queued SC is unsafe. *)
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A"; sc_rename ~id:1 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  let unsafe = Dep_graph.unsafe g in
  Alcotest.(check bool) "has unsafe" true (Dep_graph.has_unsafe g);
  List.iter
    (fun (e : Dependency.edge) ->
      Alcotest.(check bool) "unsafe edges point backwards" true
        (e.prerequisite > e.dependent))
    unsafe

(* -- correction -------------------------------------------------------- *)

let legal_order_check (g : Dep_graph.t) (c : Dep_graph.correction) =
  (* rebuild positions after correction: every dependency must be safe *)
  let pos_of_msg = Hashtbl.create 16 in
  List.iteri
    (fun i entry -> List.iter (fun m -> Hashtbl.replace pos_of_msg (Update_msg.id m) i)
        (Umq.entry_messages entry))
    c.Dep_graph.order;
  (* map original node -> its representative message ids *)
  let node_msgs = Array.of_list (List.map Umq.entry_messages (Dep_graph.nodes g)) in
  List.for_all
    (fun (e : Dependency.edge) ->
      let p = Hashtbl.find pos_of_msg (Update_msg.id (List.hd node_msgs.(e.prerequisite))) in
      let d = Hashtbl.find pos_of_msg (Update_msg.id (List.hd node_msgs.(e.dependent))) in
      p <= d)
    (Dep_graph.edges g)

let test_correction_reorders_sc_first () =
  let msgs =
    [ du ~id:0 ~source:"ds2" ~rel:"B"; du ~id:1 ~source:"ds2" ~rel:"B";
      sc_rename ~id:2 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  let c = Dep_graph.correct g in
  Alcotest.(check int) "no cycle here" 0 c.Dep_graph.merged_cycles;
  (match c.Dep_graph.order with
  | first :: _ ->
      Alcotest.(check (list int)) "SC first" [ 2 ] (Umq.entry_ids first)
  | [] -> Alcotest.fail "empty order");
  Alcotest.(check bool) "legal order" true (legal_order_check g c);
  (* stability: the two DUs keep their relative order *)
  let flat = List.concat_map Umq.entry_ids c.Dep_graph.order in
  Alcotest.(check (list int)) "stable among unconstrained" [ 2; 0; 1 ] flat

(* Detection charges its time on the simulated clock, so an update can
   be admitted after the graph was built: [Correct.apply] installs the
   corrected order of the graph's entries, then the newcomer. *)
let test_apply_keeps_admitted () =
  let q = Umq.create () in
  let enqueue m =
    ignore
      (Umq.enqueue q ~commit_time:(Update_msg.commit_time m)
         ~source_version:(Update_msg.source_version m) (Update_msg.payload m)
        : Update_msg.t)
  in
  List.iter enqueue
    [ du ~id:0 ~source:"ds2" ~rel:"B"; du ~id:1 ~source:"ds2" ~rel:"B";
      sc_rename ~id:2 ~source:"ds1" ~rel:"A" ];
  let g = Dep_graph.build (view_q ()) (schemas ()) (Umq.entries q) in
  enqueue (du ~id:3 ~source:"ds1" ~rel:"A");
  let r = Correct.apply q g in
  Alcotest.(check bool) "reordered" true r.Correct.reordered;
  Alcotest.(check int) "graph nodes" 3 r.Correct.nodes;
  Alcotest.(check (list int)) "corrected order, then the newcomer"
    [ 2; 0; 1; 3 ]
    (List.concat_map Umq.entry_ids (Umq.entries q))

let test_figure4_cycle_merge () =
  (* Figure 4: DU1 then SC1 (other source) then SC2 (same source as DU1):
     SD DU1→SC2, CD edges from SC1 and SC2 to everyone: the three nodes
     form one cycle and merge into a single batch. *)
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A" (* DU1 *);
      sc_rename ~id:1 ~source:"ds2" ~rel:"B" (* SC1 *);
      sc_rename ~id:2 ~source:"ds1" ~rel:"A" (* SC2 *) ]
  in
  let g = build msgs in
  let c = Dep_graph.correct g in
  Alcotest.(check int) "one cycle" 1 c.Dep_graph.merged_cycles;
  Alcotest.(check int) "three updates merged" 3 c.Dep_graph.merged_updates;
  (match c.Dep_graph.order with
  | [ Umq.Batch ms ] ->
      Alcotest.(check (list int)) "batch members in commit order" [ 0; 1; 2 ]
        (List.map Update_msg.id ms)
  | _ -> Alcotest.fail "expected a single batch");
  Alcotest.(check bool) "legal" true (legal_order_check g c)

let test_two_sc_cycle () =
  (* two conflicting SCs: mutual CD → 2-cycle (the Section 3.5 deadlock) *)
  let msgs =
    [ sc_rename ~id:0 ~source:"ds1" ~rel:"A"; sc_rename ~id:1 ~source:"ds2" ~rel:"B" ]
  in
  let c = Dep_graph.correct (build msgs) in
  Alcotest.(check int) "merged" 1 c.Dep_graph.merged_cycles;
  Alcotest.(check int) "both in" 2 c.Dep_graph.merged_updates

let test_independent_dus_untouched () =
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A"; du ~id:1 ~source:"ds2" ~rel:"B";
      du ~id:2 ~source:"ds1" ~rel:"A" ]
  in
  let g = build msgs in
  Alcotest.(check bool) "all safe in FIFO" false (Dep_graph.has_unsafe g);
  let c = Dep_graph.correct g in
  Alcotest.(check (list int)) "order unchanged" [ 0; 1; 2 ]
    (List.concat_map Umq.entry_ids c.Dep_graph.order)

let test_scc_on_crafted_graph () =
  (* craft a graph by hand: 0→1→2→0 cycle plus tail 3 *)
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A"; du ~id:1 ~source:"ds1" ~rel:"A";
      du ~id:2 ~source:"ds1" ~rel:"A"; du ~id:3 ~source:"ds1" ~rel:"A" ]
  in
  let g =
    Dep_graph.make ~nodes:(singles msgs)
      ~edges:
        [
          { Dependency.dependent = 1; prerequisite = 0; kind = Dependency.Semantic };
          { Dependency.dependent = 2; prerequisite = 1; kind = Dependency.Semantic };
          { Dependency.dependent = 0; prerequisite = 2; kind = Dependency.Concurrent };
          { Dependency.dependent = 3; prerequisite = 2; kind = Dependency.Semantic };
        ]
  in
  let comps = Dep_graph.scc g in
  let sizes = List.sort compare (List.map List.length comps) in
  Alcotest.(check (list int)) "one 3-cycle, one singleton" [ 1; 3 ] sizes

let test_batch_node_participates () =
  (* an already-merged batch entry is one node; a later SC still orders
     before it when dependencies demand *)
  let b = Umq.Batch [ du ~id:0 ~source:"ds1" ~rel:"A"; du ~id:1 ~source:"ds2" ~rel:"B" ] in
  let s = Umq.Single (sc_rename ~id:2 ~source:"ds1" ~rel:"A") in
  let g = Dep_graph.build (view_q ()) (schemas ()) [ b; s ] in
  (* SD: batch's ds1 msg (id 0) before SC (id 2) at same source → SC
     depends on batch; CD: batch depends on SC → cycle → merge *)
  let c = Dep_graph.correct g in
  Alcotest.(check int) "merged batch+sc" 3 c.Dep_graph.merged_updates

(* -- message-level helper (Dependency.message_edges) ------------------ *)

let test_message_edges () =
  let msgs =
    [ du ~id:0 ~source:"ds1" ~rel:"A"; sc_rename ~id:1 ~source:"ds1" ~rel:"A" ]
  in
  let edges = Dependency.message_edges (view_q ()) (schemas ()) msgs in
  Alcotest.(check bool) "has cd" true
    (List.exists (fun (e : Dependency.edge) -> e.kind = Dependency.Concurrent) edges);
  Alcotest.(check bool) "has sd" true
    (List.exists (fun (e : Dependency.edge) -> e.kind = Dependency.Semantic) edges);
  let unsafe = Dependency.unsafe_edges edges in
  Alcotest.(check int) "one unsafe (the cd)" 1 (List.length unsafe)

let test_sc_conflict_tests () =
  let q = view_q () in
  let s = schemas () in
  Alcotest.(check bool) "literal test: rename of view relation" true
    (Dependency.sc_mentioned_in_view q s
       (Schema_change.Rename_relation { source = "ds1"; old_name = "A"; new_name = "Z" }));
  Alcotest.(check bool) "literal test misses chained rename" false
    (Dependency.sc_mentioned_in_view q s
       (Schema_change.Rename_relation { source = "ds1"; old_name = "A_old"; new_name = "Q" }));
  Alcotest.(check bool) "conservative test catches it" true
    (Dependency.sc_conflicts_with_view q s
       (Schema_change.Rename_relation { source = "ds1"; old_name = "A_old"; new_name = "Q" }));
  Alcotest.(check bool) "conservative ignores foreign sources" false
    (Dependency.sc_conflicts_with_view q s
       (Schema_change.Drop_relation { source = "ds9"; name = "A" }))

let () =
  Alcotest.run "dep-graph"
    [
      ( "edges",
        [
          Alcotest.test_case "concurrent dependencies" `Quick test_cd_edges;
          Alcotest.test_case "add-only SC draws none" `Quick test_add_only_sc_no_cd;
          Alcotest.test_case "foreign-source SC draws none" `Quick test_sc_on_foreign_source_no_cd;
          Alcotest.test_case "semantic chains per source" `Quick test_sd_edges_per_source;
          Alcotest.test_case "safety classification" `Quick test_safety_classification;
          Alcotest.test_case "message-level edges" `Quick test_message_edges;
          Alcotest.test_case "conflict tests (literal vs conservative)" `Quick
            test_sc_conflict_tests;
        ] );
      ( "correction",
        [
          Alcotest.test_case "SC jumps the queue" `Quick test_correction_reorders_sc_first;
          Alcotest.test_case "Figure 4 cycle merge" `Quick test_figure4_cycle_merge;
          Alcotest.test_case "two-SC deadlock merges" `Quick test_two_sc_cycle;
          Alcotest.test_case "independent DUs untouched" `Quick test_independent_dus_untouched;
          Alcotest.test_case "Tarjan SCC" `Quick test_scc_on_crafted_graph;
          Alcotest.test_case "batch entries as nodes" `Quick test_batch_node_participates;
          Alcotest.test_case "entry admitted after the graph stays queued" `Quick
            test_apply_keeps_admitted;
        ] );
    ]
