(* Quickstart: build the BookInfo world of the paper's Example 1, commit a
   few autonomous source updates, and let the Dyno scheduler maintain the
   materialized view.

     dune exec examples/quickstart.exe *)

open Dyno_relational

let () =
  Bookinfo.section "BookInfo: initial materialization";
  let w = Bookinfo.make () in
  Bookinfo.print_view w;

  Bookinfo.section "Autonomous source updates arrive";
  (* A new book enters the Library catalog (the ΔC of Example 1)… *)
  let dc =
    Update.insert ~source:Bookinfo.library ~rel:"Catalog"
      Bookinfo.catalog_schema
      Value.
        [
          string "Data Integration Guide";
          string "Adams";
          string "Engineering";
          string "Princeton";
          int 2003;
          string "thorough";
        ]
  in
  (* …a matching item appears at the retailer (the ΔI)… *)
  let di =
    Update.insert ~source:Bookinfo.retailer ~rel:"Item" Bookinfo.item_schema
      Value.[ int 10; string "Data Integration Guide"; string "Adams"; float 35.99 ]
  in
  (* …and one book is taken off the shelves. *)
  let del =
    Update.delete ~source:Bookinfo.retailer ~rel:"Item" Bookinfo.item_schema
      Value.[ int 20; string "Database Systems"; string "Ullman"; float 72.00 ]
  in
  List.iter (fun u -> Fmt.pr "%a@." Sql.pp_update u) [ dc; di; del ];
  Bookinfo.schedule w
    [
      (0.0, Dyno_sim.Timeline.Du dc);
      (0.0, Dyno_sim.Timeline.Du di);
      (0.0, Dyno_sim.Timeline.Du del);
    ];

  Bookinfo.section "Dyno maintains the view";
  let stats = Bookinfo.run w in
  Fmt.pr "%a@." Dyno_core.Stats.pp stats;
  Bookinfo.print_view w;

  Bookinfo.section "Consistency";
  (match Dyno_core.Consistency.convergent w.Bookinfo.engine w.Bookinfo.mv with
  | Ok true -> Fmt.pr "view converged to a full recompute: OK@."
  | Ok false -> Fmt.pr "view DIVERGED from a full recompute!@."
  | Error e -> Fmt.pr "cannot check: %s@." e);
  Fmt.pr "strong consistency: %a@." Dyno_core.Consistency.pp_report
    (Dyno_core.Consistency.check_strong w.Bookinfo.engine w.Bookinfo.mv)
