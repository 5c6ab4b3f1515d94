(* Self-maintenance tier: auxiliary key/FK projections answer fully
   covered maintenance sweeps locally, skipping probe round trips.  The
   tier is an optimization, never a semantic change: that [--self-maint]
   is observationally the probing baseline for every workload, fault mix,
   strategy, shard count and width is the end-to-end matrix's
   (matrix.ml).  Here: derivation, the store, and the local path. *)

open Dyno_relational
open Dyno_workload

(* -- derivation -------------------------------------------------------- *)

(* One projection per alias of the view query, each with the alias's
   needed probe attributes (join keys + selected columns). *)
let test_derive () =
  let t = Spec.build { Fixture.base with seed = 1; dus = 0; scs = 0 } in
  let defs = Dyno_selfmaint.Aux_plan.derive t.Scenario.mv in
  let q = Dyno_view.View_def.peek (Dyno_view.Mat_view.def t.Scenario.mv) in
  Alcotest.(check int)
    "one projection per alias"
    (List.length (Query.from q))
    (List.length defs);
  List.iter
    (fun (d : Dyno_selfmaint.Aux_plan.aux_def) ->
      Alcotest.(check bool)
        (Fmt.str "%s has attributes" d.alias)
        true (d.attrs <> []);
      let src =
        Dyno_view.Query_engine.source_relation t.Scenario.engine
          ~source:d.source ~rel:d.rel
      in
      match src with
      | None -> Alcotest.failf "%s: source relation %s missing" d.alias d.rel
      | Some r ->
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Fmt.str "%s.%s exists at the source" d.alias a)
                true
                (Schema.mem (Relation.schema r) a))
            d.attrs)
    defs;
  let aliases = List.map (fun (d : Dyno_selfmaint.Aux_plan.aux_def) -> d.alias) defs in
  Alcotest.(check int)
    "aliases distinct"
    (List.length aliases)
    (List.length (List.sort_uniq String.compare aliases))

(* -- the store --------------------------------------------------------- *)

let test_store_refresh_and_invalidate () =
  let t = Spec.build { Fixture.base with seed = 2; dus = 0; scs = 0 } in
  let w = t.Scenario.engine in
  let store = Dyno_core.Scheduler.aux_store w t.Scenario.mv in
  Alcotest.(check (float 1e-9))
    "full coverage after seeding" 1.0
    (Dyno_selfmaint.Aux_store.coverage store);
  (* Seeded projections = the projection of the source relation at the
     delivered frontier (nothing delivered yet = initial load). *)
  let defs = Dyno_selfmaint.Aux_plan.derive t.Scenario.mv in
  List.iter
    (fun (d : Dyno_selfmaint.Aux_plan.aux_def) ->
      match Dyno_selfmaint.Aux_store.aux store d.alias with
      | None -> Alcotest.failf "%s: no auxiliary data" d.alias
      | Some r ->
          let src =
            Option.get
              (Dyno_view.Query_engine.source_relation w ~source:d.source
                 ~rel:d.rel)
          in
          Alcotest.(check bool)
            (Fmt.str "%s seeded = projected source" d.alias)
            true
            (Relation.equal r (Relation.project src d.attrs)))
    defs;
  (* A delivered DU refreshes the matching projection incrementally. *)
  let d1 =
    List.find
      (fun (d : Dyno_selfmaint.Aux_plan.aux_def) -> String.equal d.rel "R1")
      defs
  in
  let before =
    Relation.mass (Option.get (Dyno_selfmaint.Aux_store.aux store d1.alias))
  in
  let u =
    Update.insert
      ~source:(Paper_schema.source_of_rel 1)
      ~rel:(Paper_schema.rel_name 1)
      (Paper_schema.schema_of_rel 1)
      (Paper_schema.tuple_for ~salt:77 1 0)
  in
  Dyno_selfmaint.Aux_store.on_message store
    (Dyno_view.Update_msg.make ~id:990 ~commit_time:0.5 ~source_version:11
       (Dyno_view.Update_msg.Du u));
  let after =
    Relation.mass (Option.get (Dyno_selfmaint.Aux_store.aux store d1.alias))
  in
  Alcotest.(check int) "insert refreshed the projection" (before + 1) after;
  (* A schema change invalidates every projection of its source. *)
  Dyno_selfmaint.Aux_store.on_message store
    (Dyno_view.Update_msg.make ~id:991 ~commit_time:0.6 ~source_version:12
       (Dyno_view.Update_msg.Sc
          (Schema_change.Drop_attribute
             { source = "DS1"; rel = "R2"; attr = "B2" })));
  Alcotest.(check bool)
    "invalidations counted" true
    (Dyno_selfmaint.Aux_store.invalidations store > 0);
  Alcotest.(check bool)
    "coverage dropped" true
    (Dyno_selfmaint.Aux_store.coverage store < 1.0);
  List.iter
    (fun (d : Dyno_selfmaint.Aux_plan.aux_def) ->
      if String.equal d.source "DS1" then
        Alcotest.(check bool)
          (Fmt.str "%s invalid after DS1 schema change" d.alias)
          true
          (Dyno_selfmaint.Aux_store.aux store d.alias = None))
    defs

(* -- the local path actually fires ------------------------------------- *)

let test_local_fires () =
  let run ~self_maint =
    Spec.run
      {
        Fixture.base with
        seed = 3;
        dus = 20;
        scs = 0;
        run = Dyno_core.Run_config.(default |> with_self_maint self_maint);
      }
  in
  let tb, _ = run ~self_maint:false in
  let ts, stats = run ~self_maint:true in
  Alcotest.(check bool)
    "sweeps answered locally" true
    (stats.Dyno_core.Stats.probes_avoided > 0);
  Alcotest.(check int)
    "no probe was needed (full coverage, no SCs)" 0
    stats.Dyno_core.Stats.probes;
  Alcotest.(check bool)
    "wire bytes saved" true
    (stats.Dyno_core.Stats.bytes_saved > 0);
  Alcotest.(check bool)
    "extent identical to baseline" true
    (Relation.equal
       (Dyno_view.Mat_view.extent tb.Scenario.mv)
       (Dyno_view.Mat_view.extent ts.Scenario.mv));
  match Scenario.check_convergent ts with
  | Ok b -> Alcotest.(check bool) "convergent" true b
  | Error e -> Alcotest.failf "not checkable: %s" e

let () =
  Alcotest.run "selfmaint"
    [
      ("derive", [ Alcotest.test_case "aux plan" `Quick test_derive ]);
      ( "store",
        [
          Alcotest.test_case "seed / refresh / invalidate" `Quick
            test_store_refresh_and_invalidate;
        ] );
      ( "local path",
        [ Alcotest.test_case "covered sweeps skip probes" `Quick
            test_local_fires ] );
    ]
