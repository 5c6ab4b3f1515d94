(* Unit tests for the document store and the XML-to-relational wrapper:
   extraction under both of the paper's mappings, document diffs becoming
   data updates, and mapping retuning becoming the Example 1.b schema
   changes — then the whole thing driven end to end under Dyno. *)

open Dyno_relational
open Dyno_source

let docs () =
  [
    Xml_wrapper.store_doc ~name:"Amazon"
      ~books:
        [
          ("Database Systems", "Ullman", 79.99);
          ("Transaction Processing", "Gray", 120.5);
        ];
    Xml_wrapper.store_doc ~name:"Powells" ~books:[ ("Database Systems", "Ullman", 72.0) ];
  ]

let test_document_select () =
  let roots = docs () in
  Alcotest.(check int) "two stores" 2
    (List.length (Document.select [ "Store" ] roots));
  Alcotest.(check int) "three books" 3
    (List.length (Document.select [ "Store"; "Book" ] roots));
  Alcotest.(check int) "titles" 3
    (List.length (Document.select [ "Store"; "Book"; "Title" ] roots));
  Alcotest.(check int) "no match" 0
    (List.length (Document.select [ "Nope" ] roots));
  (* contexts carry ancestors *)
  let with_ctx = Document.select_with_context [ "Store"; "Book" ] roots in
  List.iter
    (fun (ctx, n) ->
      Alcotest.(check string) "row is a book" "Book" (Document.tag n);
      Alcotest.(check int) "one ancestor" 1 (List.length ctx);
      Alcotest.(check string) "ancestor is the store" "Store"
        (Document.tag (List.hd ctx)))
    with_ctx

let test_extract_two_tables () =
  let rels = Xml_wrapper.extract Xml_wrapper.retailer_two_tables (docs ()) in
  let store = List.assoc "Store" rels in
  let item = List.assoc "Item" rels in
  Alcotest.(check int) "two store rows" 2 (Relation.cardinality store);
  Alcotest.(check int) "three item rows" 3 (Relation.cardinality item);
  (* synthetic SIDs are consistent between the two tables *)
  Alcotest.(check int) "store 1 = Amazon" 1
    (Relation.count store
       (Tuple.of_list [ Value.int 1; Value.string "Amazon" ]));
  Alcotest.(check int) "Powells book has SID 2" 1
    (Relation.count item
       (Tuple.of_list
          [ Value.int 2; Value.string "Database Systems"; Value.string "Ullman";
            Value.float 72.0 ]))

let test_extract_single_table () =
  let rels = Xml_wrapper.extract Xml_wrapper.retailer_single_table (docs ()) in
  let si = List.assoc "StoreItems" rels in
  Alcotest.(check int) "three rows" 3 (Relation.cardinality si);
  Alcotest.(check int) "store name denormalized" 1
    (Relation.count si
       (Tuple.of_list
          [ Value.string "Powells"; Value.string "Database Systems";
            Value.string "Ullman"; Value.float 72.0 ]))

let test_extraction_errors () =
  let bad_doc = Document.elem "Store" [ Document.leaf "Name" "X";
                                        Document.elem "Book" [ Document.leaf "Title" "T" ] ] in
  Alcotest.(check bool) "missing column raises" true
    (match Xml_wrapper.extract Xml_wrapper.retailer_two_tables [ bad_doc ] with
    | _ -> false
    | exception Xml_wrapper.Extraction_error _ -> true);
  let bad_price =
    Xml_wrapper.store_doc ~name:"X" ~books:[ ("T", "A", 1.0) ]
  in
  (* corrupt the price text *)
  ignore bad_price;
  ()

let test_diff_events () =
  let old_roots = docs () in
  let new_roots =
    Xml_wrapper.store_doc ~name:"Amazon"
      ~books:
        [
          ("Database Systems", "Ullman", 79.99);
          ("Transaction Processing", "Gray", 120.5);
          ("Data Integration Guide", "Adams", 35.99);
        ]
    :: List.tl old_roots
  in
  let events =
    Xml_wrapper.diff_events ~source:"Retailer" Xml_wrapper.retailer_two_tables
      ~old_roots ~new_roots ~time:1.0
  in
  (* only Item changes: one inserted book *)
  Alcotest.(check int) "one DU event" 1 (List.length events);
  match events with
  | [ (_, Dyno_sim.Timeline.Du u) ] ->
      Alcotest.(check string) "on Item" "Item" (Update.rel u);
      Alcotest.(check int) "one insert" 1 (Relation.cardinality (Update.delta u))
  | _ -> Alcotest.fail "expected one DU"

let test_remap_events () =
  let events =
    Xml_wrapper.remap_events ~source:"Retailer"
      ~old_mapping:Xml_wrapper.retailer_two_tables
      ~new_mapping:Xml_wrapper.retailer_single_table ~roots:(docs ()) ~time:0.0
  in
  (* add StoreItems + populate + drop Store + drop Item *)
  Alcotest.(check int) "four events" 4 (List.length events);
  let kinds =
    List.map
      (fun (_, e) ->
        match e with
        | Dyno_sim.Timeline.Sc (Schema_change.Add_relation { name; _ }) ->
            "add:" ^ name
        | Dyno_sim.Timeline.Sc (Schema_change.Drop_relation { name; _ }) ->
            "drop:" ^ name
        | Dyno_sim.Timeline.Du u -> "du:" ^ Update.rel u
        | _ -> "other")
      events
  in
  Alcotest.(check (list string)) "sequence"
    [ "add:StoreItems"; "du:StoreItems"; "drop:Store"; "drop:Item" ]
    kinds

(* End to end: a BookInfo world whose Retailer is document-backed; the
   designer retunes the mapping mid-stream and Dyno corrects the broken
   maintenance, rewriting the view onto StoreItems (Query (3)). *)
let test_end_to_end_retuning () =
  let open Dyno_view in
  let roots = docs () in
  (* Retailer: relational facade installed by the wrapper. *)
  let retailer = Data_source.create "Retailer" in
  Xml_wrapper.install Xml_wrapper.retailer_two_tables retailer roots;
  (* Library: an ordinary relational source. *)
  let catalog_schema =
    Schema.of_list
      [ Attr.string "Title"; Attr.string "Publisher"; Attr.string "Review" ]
  in
  let library = Data_source.create "Library" in
  Data_source.add_relation library "Catalog" catalog_schema;
  Data_source.load library "Catalog"
    [
      [ Value.string "Database Systems"; Value.string "PH"; Value.string "classic" ];
      [ Value.string "Transaction Processing"; Value.string "MK"; Value.string "definitive" ];
    ];
  let registry = Registry.create () in
  Registry.register registry retailer;
  Registry.register registry library;
  let mk = Meta_knowledge.create () in
  Meta_knowledge.add_rel_replacement mk ~source:"Retailer" ~rel:"Store"
    {
      Meta_knowledge.repl_source = "Retailer";
      repl_rel = "StoreItems";
      covers =
        [
          ("Store", [ ("Store", "Store") ]);
          ("Item", [ ("Book", "Book"); ("Author", "Author"); ("Price", "Price") ]);
        ];
    };
  let view =
    Query.make ~name:"BookInfo"
      ~select:
        [ Query.item "Store"; Query.item "Book"; Query.item "I.Author";
          Query.item "Price"; Query.item "Publisher"; Query.item "Review" ]
      ~from:
        [
          Query.table ~alias:"S" "Retailer" "Store";
          Query.table ~alias:"I" "Retailer" "Item";
          Query.table ~alias:"C" "Library" "Catalog";
        ]
      ~where:
        [ Predicate.eq_attr "S.SID" "I.SID"; Predicate.eq_attr "I.Book" "C.Title" ]
  in
  let schemas =
    [
      ("S", Catalog.schema_of (Data_source.catalog retailer) "Store");
      ("I", Catalog.schema_of (Data_source.catalog retailer) "Item");
      ("C", catalog_schema);
    ]
  in
  let umq = Umq.create () in
  let timeline = Dyno_sim.Timeline.create () in
  let engine =
    Query_engine.create
      ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  let vd = View_def.create ~schemas view in
  let mv = Mat_view.create ~track_snapshots:true vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) =
    Data_source.relation (Registry.find registry tr.source) tr.rel
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env view);
  Alcotest.(check int) "initial extent" 3
    (Relation.cardinality (Mat_view.extent mv));
  (* A catalog insert is committed, and right after it the designer
     retunes the mapping. *)
  Dyno_sim.Timeline.schedule timeline ~time:0.0
    (Dyno_sim.Timeline.Du
       (Update.insert ~source:"Library" ~rel:"Catalog" catalog_schema
          [ Value.string "Data Integration Guide"; Value.string "P";
            Value.string "thorough" ]));
  List.iter
    (fun (time, ev) -> Dyno_sim.Timeline.schedule timeline ~time ev)
    (Xml_wrapper.remap_events ~source:"Retailer"
       ~old_mapping:Xml_wrapper.retailer_two_tables
       ~new_mapping:Xml_wrapper.retailer_single_table ~roots ~time:0.01);
  let stats = Dyno_core.Scheduler.run engine mv mk in
  Alcotest.(check bool) "no view death" false stats.Dyno_core.Stats.view_undefined;
  let final = View_def.peek (Mat_view.def mv) in
  Alcotest.(check bool) "view rewritten onto StoreItems" true
    (Query.mentions_relation final ~source:"Retailer" ~rel:"StoreItems");
  match Dyno_core.Consistency.convergent engine mv with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "did not converge"
  | Error e -> Alcotest.failf "not checkable: %s" e

let () =
  Alcotest.run "wrapper"
    [
      ( "document store",
        [
          Alcotest.test_case "path selection" `Quick test_document_select;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "two-table mapping (Figure 1)" `Quick test_extract_two_tables;
          Alcotest.test_case "single-table mapping (Figure 2)" `Quick test_extract_single_table;
          Alcotest.test_case "extraction errors" `Quick test_extraction_errors;
        ] );
      ( "event translation",
        [
          Alcotest.test_case "document diff -> DUs" `Quick test_diff_events;
          Alcotest.test_case "mapping retune -> Example 1.b SCs" `Quick test_remap_events;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "retuning under Dyno (Query 3)" `Quick
            test_end_to_end_retuning;
        ] );
    ]
