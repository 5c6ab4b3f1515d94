(* The Retailer of the paper's Figure 1, document-backed: XML store
   documents are mapped to relational tables by a wrapper; the designer
   then retunes the mapping to the single-table design of Figure 2 while
   updates are in flight — the broken-query anomaly of Example 1.b — and
   Dyno corrects it, rewriting the view onto StoreItems.

     dune exec examples/xml_retailer.exe *)

open Dyno_relational
open Dyno_source
open Dyno_view

let docs =
  [
    Xml_wrapper.store_doc ~name:"Amazon"
      ~books:
        [
          ("Database Systems", "Ullman", 79.99);
          ("Transaction Processing", "Gray", 120.5);
        ];
    Xml_wrapper.store_doc ~name:"Powells"
      ~books:[ ("Database Systems", "Ullman", 72.0) ];
  ]

let () =
  Bookinfo.section "The Retailer's native documents";
  List.iter (fun d -> Fmt.pr "%a@." Document.pp d) docs;

  Bookinfo.section "Mapping A (Figure 1): Store + Item";
  List.iter
    (fun (rel, r) -> Fmt.pr "%s:@.%a@." rel Sql.pp_relation_table r)
    (Xml_wrapper.extract Xml_wrapper.retailer_two_tables docs);

  Bookinfo.section "Mapping B (Figure 2): StoreItems";
  List.iter
    (fun (rel, r) -> Fmt.pr "%s:@.%a@." rel Sql.pp_relation_table r)
    (Xml_wrapper.extract Xml_wrapper.retailer_single_table docs);

  Bookinfo.section "A live world on mapping A";
  let retailer = Data_source.create "Retailer" in
  Xml_wrapper.install Xml_wrapper.retailer_two_tables retailer docs;
  let catalog_schema =
    Schema.of_list
      [ Attr.string "Title"; Attr.string "Publisher"; Attr.string "Review" ]
  in
  let library = Data_source.create "Library" in
  Data_source.add_relation library "Catalog" catalog_schema;
  Data_source.load library "Catalog"
    [
      [ Value.string "Database Systems"; Value.string "Prentice Hall";
        Value.string "classic" ];
      [ Value.string "Transaction Processing"; Value.string "Morgan Kaufmann";
        Value.string "definitive" ];
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
        [
          Query.item "Store"; Query.item "Book"; Query.item "I.Author";
          Query.item "Price"; Query.item "Publisher"; Query.item "Review";
        ]
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
      ("S", Relation.schema (Data_source.relation retailer "Store"));
      ("I", Relation.schema (Data_source.relation retailer "Item"));
      ("C", catalog_schema);
    ]
  in
  let umq = Umq.create () in
  let timeline = Dyno_sim.Timeline.create () in
  let trace = Dyno_sim.Trace.create () in
  let engine =
    Query_engine.create ~trace
      ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  let vd = View_def.create ~schemas view in
  let mv = Mat_view.create vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) =
    Data_source.relation (Registry.find registry tr.source) tr.rel
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env view);
  Fmt.pr "%a@.%a@." Sql.pp_view view Sql.pp_relation_table (Mat_view.extent mv);

  Bookinfo.section "Documents change + the mapping is retuned mid-flight";
  (* a new book appears in the Amazon document… *)
  let docs' =
    Xml_wrapper.store_doc ~name:"Amazon"
      ~books:
        [
          ("Database Systems", "Ullman", 79.99);
          ("Transaction Processing", "Gray", 120.5);
          ("Data Integration Guide", "Adams", 35.99);
        ]
    :: List.tl docs
  in
  List.iter
    (fun (time, ev) -> Dyno_sim.Timeline.schedule timeline ~time ev)
    (Xml_wrapper.diff_events ~source:"Retailer" Xml_wrapper.retailer_two_tables
       ~old_roots:docs ~new_roots:docs' ~time:0.0);
  (* …and moments later the designer switches to mapping B *)
  List.iter
    (fun (time, ev) -> Dyno_sim.Timeline.schedule timeline ~time ev)
    (Xml_wrapper.remap_events ~source:"Retailer"
       ~old_mapping:Xml_wrapper.retailer_two_tables
       ~new_mapping:Xml_wrapper.retailer_single_table ~roots:docs' ~time:0.02);
  let stats = Dyno_core.Scheduler.run engine mv mk in
  Fmt.pr "%a@." Dyno_core.Stats.pp stats;
  List.iter
    (fun (e : Dyno_sim.Trace.entry) ->
      match e.kind with
      | Dyno_sim.Trace.Broken_query | Dyno_sim.Trace.Abort | Dyno_sim.Trace.Merge
      | Dyno_sim.Trace.Sync ->
          Fmt.pr "  trace: %a@." Dyno_sim.Trace.pp_entry e
      | _ -> ())
    (Dyno_sim.Trace.entries trace);

  Bookinfo.section "The view after Dyno's correction (Query (3))";
  Fmt.pr "%a@.%a@." Sql.pp_view
    (View_def.peek (Mat_view.def mv))
    Sql.pp_relation_table (Mat_view.extent mv);
  match Dyno_core.Consistency.convergent engine mv with
  | Ok b -> Fmt.pr "@.convergent: %b@." b
  | Error e -> Fmt.pr "@.not checkable: %s@." e
