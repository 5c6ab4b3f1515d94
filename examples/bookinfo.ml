(* The paper's running example (Section 1.2, Figures 1-2): book data
   integrated from a Retailer (XML mapped into the relational tables Store
   and Item by a wrapper) and a Library catalog, materialized as the
   BookInfo view:

     CREATE VIEW BookInfo AS
     SELECT Store, Book, I.Author, Price, Publisher, Category, Review
     FROM   Store S, Item I, Catalog C
     WHERE  S.SID = I.SID AND I.Book = C.Title          -- Query (1)

   Shared by the runnable examples.  Also registers the meta knowledge the
   paper's rewritings rely on: StoreItems can replace Store & Item (the
   alternative XML-to-relational mapping of Figure 2), and
   ReaderDigest.Comments can replace Catalog.Review (Query (4)). *)

open Dyno_relational
open Dyno_view

let retailer = "Retailer"
let library = "Library"
let digest = "Digest"

let store_schema = Schema.of_list [ Attr.int "SID"; Attr.string "Store" ]

let item_schema =
  Schema.of_list
    [ Attr.int "SID"; Attr.string "Book"; Attr.string "Author"; Attr.float "Price" ]

let catalog_schema =
  Schema.of_list
    [
      Attr.string "Title";
      Attr.string "Author";
      Attr.string "Category";
      Attr.string "Publisher";
      Attr.int "Year";
      Attr.string "Review";
    ]

let storeitems_schema =
  Schema.of_list
    [ Attr.string "Store"; Attr.string "Book"; Attr.string "Author"; Attr.float "Price" ]

let readerdigest_schema =
  Schema.of_list [ Attr.string "Article"; Attr.string "Comments" ]

let v = Value.string
let i = Value.int
let f = Value.float

(* Initial contents. *)
let stores = [ [ i 10; v "Amazon" ]; [ i 20; v "Powell's" ] ]

let items =
  [
    [ i 10; v "Database Systems"; v "Ullman"; f 79.99 ];
    [ i 10; v "Transaction Processing"; v "Gray"; f 120.50 ];
    [ i 20; v "Database Systems"; v "Ullman"; f 72.00 ];
  ]

let catalog =
  [
    [ v "Database Systems"; v "Ullman"; v "CS"; v "Prentice Hall"; i 2001; v "classic" ];
    [ v "Transaction Processing"; v "Gray"; v "CS"; v "Morgan Kaufmann"; i 1992; v "definitive" ];
  ]

let readerdigest =
  [
    [ v "Database Systems"; v "a must-read" ];
    [ v "Transaction Processing"; v "encyclopedic" ];
    [ v "Data Integration Guide"; v "promising" ];
  ]

let view_query () : Query.t =
  Query.make ~name:"BookInfo"
    ~select:
      [
        Query.item "Store";
        Query.item "Book";
        Query.item "I.Author";
        Query.item "Price";
        Query.item "Publisher";
        Query.item "Category";
        Query.item "Review";
      ]
    ~from:
      [
        Query.table ~alias:"S" retailer "Store";
        Query.table ~alias:"I" retailer "Item";
        Query.table ~alias:"C" library "Catalog";
      ]
    ~where:[ Predicate.eq_attr "S.SID" "I.SID"; Predicate.eq_attr "I.Book" "C.Title" ]

let view_schemas () =
  [ ("S", store_schema); ("I", item_schema); ("C", catalog_schema) ]

type world = {
  registry : Dyno_source.Registry.t;
  mk : Dyno_source.Meta_knowledge.t;
  umq : Umq.t;
  timeline : Dyno_sim.Timeline.t;
  engine : Query_engine.t;
  mv : Mat_view.t;
  trace : Dyno_sim.Trace.t;
}

(* The current contents of Store ⋈ Item, as the alternative XML mapping
   would materialize them into the single StoreItems table. *)
let storeitems_rows registry =
  let r = Dyno_source.Registry.find registry retailer in
  let q =
    Query.make ~name:"remap"
      ~select:
        [ Query.item "Store"; Query.item "Book"; Query.item "I.Author"; Query.item "Price" ]
      ~from:[ Query.table ~alias:"S" retailer "Store"; Query.table ~alias:"I" retailer "Item" ]
      ~where:[ Predicate.eq_attr "S.SID" "I.SID" ]
  in
  let env (tr : Query.table_ref) = Dyno_source.Data_source.relation r tr.rel in
  Relation.fold
    (fun t c acc ->
      if c > 0 then List.init c (fun _ -> Array.to_list t) @ acc else acc)
    (Eval.run ~catalog:env q) []

(** Build the whole world: three sources loaded, meta knowledge, view
    materialized, engine wired to [timeline]. *)
let make ?(cost = Dyno_sim.Cost_model.free) ?(trace_enabled = true)
    ?(track_snapshots = true) ?timeline () : world =
  let timeline =
    match timeline with Some t -> t | None -> Dyno_sim.Timeline.create ()
  in
  let registry = Dyno_source.Registry.create () in
  let mk = Dyno_source.Meta_knowledge.create () in
  let add_source id rels =
    let s = Dyno_source.Data_source.create id in
    List.iter
      (fun (name, schema, rows) ->
        Dyno_source.Data_source.add_relation s name schema;
        Dyno_source.Data_source.load s name rows)
      rels;
    Dyno_source.Registry.register registry s
  in
  add_source retailer
    [ ("Store", store_schema, stores); ("Item", item_schema, items) ];
  add_source library [ ("Catalog", catalog_schema, catalog) ];
  add_source digest [ ("ReaderDigest", readerdigest_schema, readerdigest) ];
  (* Meta knowledge of Figure 2 / Query (4):
     - StoreItems subsumes Store (Store→Store) and Item (Book, Author,
       Price map through; SID is internalized by the new mapping);
     - Catalog.Review is replaceable by ReaderDigest.Comments joining
       Title = Article. *)
  Dyno_source.Meta_knowledge.add_rel_replacement mk ~source:retailer
    ~rel:"Store"
    {
      Dyno_source.Meta_knowledge.repl_source = retailer;
      repl_rel = "StoreItems";
      covers =
        [
          ("Store", [ ("Store", "Store") ]);
          ("Item", [ ("Book", "Book"); ("Author", "Author"); ("Price", "Price") ]);
        ];
    };
  Dyno_source.Meta_knowledge.add_attr_replacement mk ~source:library
    ~rel:"Catalog" ~attr:"Review"
    {
      Dyno_source.Meta_knowledge.new_source = digest;
      new_rel = "ReaderDigest";
      new_attr = "Comments";
      join_on = [ ("Title", "Article") ];
      via_alias = Some "R";
    };
  let umq = Umq.create () in
  let trace = Dyno_sim.Trace.create ~enabled:trace_enabled () in
  let engine = Query_engine.create ~trace ~cost ~registry ~timeline ~umq () in
  let vd = View_def.create ~schemas:(view_schemas ()) (view_query ()) in
  let mv = Mat_view.create ~track_snapshots vd (Relation.create Schema.empty) in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find registry tr.source)
      tr.rel
  in
  Mat_view.replace mv ~at:0.0 ~maintained:[] (Eval.run ~catalog:env (view_query ()));
  { registry; mk; umq; timeline; engine; mv; trace }

(* The schema changes of Example 1.b / Figure 2: the designer retunes the
   XML-to-relational mapping — StoreItems appears (populated with the
   joined contents), then Store and Item disappear. *)
let remapping_events w at =
  let rows = storeitems_rows w.registry in
  [
    ( at,
      Dyno_sim.Timeline.Sc
        (Schema_change.Add_relation
           { source = retailer; name = "StoreItems"; schema = storeitems_schema }) );
    ( at,
      Dyno_sim.Timeline.Du
        (Update.make ~source:retailer ~rel:"StoreItems"
           (Relation.of_list storeitems_schema rows)) );
    ( at,
      Dyno_sim.Timeline.Sc
        (Schema_change.Drop_relation { source = retailer; name = "Store" }) );
    ( at,
      Dyno_sim.Timeline.Sc
        (Schema_change.Drop_relation { source = retailer; name = "Item" }) );
  ]

let drop_review_event at =
  ( at,
    Dyno_sim.Timeline.Sc
      (Schema_change.Drop_attribute
         { source = library; rel = "Catalog"; attr = "Review" }) )

let schedule w events =
  List.iter (fun (time, ev) -> Dyno_sim.Timeline.schedule w.timeline ~time ev) events

let run ?(strategy = Dyno_core.Strategy.Pessimistic) ?(compensate = true) w =
  Dyno_core.Scheduler.run
    ~config:
      {
        Dyno_core.Scheduler.strategy;
        max_steps = 100_000;
        compensate;
        vm_mode = Dyno_core.Scheduler.Incremental;
        du_group = 1;
        parallel = 1;
        self_maint = false;
      }
    w.engine w.mv w.mk

let print_view w =
  Fmt.pr "%a@.%a@." Sql.pp_view
    (View_def.peek (Mat_view.def w.mv))
    Sql.pp_relation_table (Mat_view.extent w.mv)

let section title = Fmt.pr "@.=== %s ===@." title
