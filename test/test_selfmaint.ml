(* Self-maintenance tier: auxiliary key/FK projections answer fully
   covered maintenance sweeps locally, skipping probe round trips.  The
   tier is an optimization, never a semantic change, so the golden
   property is observational equivalence: for every workload, fault mix,
   strategy, shard count and width, [--self-maint] reaches the same final
   extent, the same convergence and strong-consistency verdicts and the
   same per-source applied sets as the probing baseline. *)

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

(* -- the golden property ----------------------------------------------- *)

let arb_selfmaint_workload =
  QCheck.make
    QCheck.Gen.(
      let f01 lo hi = map (fun x -> float_of_int x /. 100.0) (int_range lo hi) in
      pair
        (quad (int_range 1 10000) (int_range 1 12) (int_range 0 2)
           (int_range 0 2))
        (quad (f01 0 25) (f01 0 25)
           (triple (f01 0 25) (int_range 0 2) (int_range 1 3))
           (int_range 0 1000)))
    ~print:
      (fun ( (seed, dus, scs, strat),
             (loss, dup, (reorder, sh, width), net_seed) ) ->
      Fmt.str
        "seed=%d dus=%d scs=%d strategy=%d loss=%.2f dup=%.2f reorder=%.2f \
         shards=%d parallel=%d net_seed=%d"
        seed dus scs strat loss dup reorder
        (match sh with 0 -> 1 | 1 -> 2 | _ -> 4)
        width net_seed)

let prop_selfmaint_equals_baseline =
  QCheck.Test.make
    ~name:
      "self-maintenance is observationally the probing baseline (faults, \
       SCs, shards included)"
    ~count:300 arb_selfmaint_workload
    (fun ( (seed, n_dus, n_scs, strat),
           (loss, dup, (reorder, sh, width), net_seed) ) ->
      let strategy = List.nth Dyno_core.Strategy.all strat in
      let shards = match sh with 0 -> 1 | 1 -> 2 | _ -> 4 in
      let spec =
        Fixture.faulty ~loss ~dup ~reorder ~net_seed
          {
            Fixture.base with
            seed;
            dus = n_dus;
            scs = n_scs;
            world = Scenario.Config.with_shards shards Fixture.base.world;
          }
      in
      (* Both runs at the same width: self-maintenance is the only
         difference. *)
      let run ~self_maint =
        Spec.run
          {
            spec with
            run =
              Dyno_core.Run_config.(
                of_strategy strategy |> with_parallel width
                |> with_self_maint self_maint);
          }
      in
      let tb, stats_b = run ~self_maint:false in
      let ts, stats_s = run ~self_maint:true in
      let same_extent =
        Relation.equal
          (Dyno_view.Mat_view.extent tb.Scenario.mv)
          (Dyno_view.Mat_view.extent ts.Scenario.mv)
      in
      let convergent =
        match Scenario.check_convergent ts with
        | Ok b -> b
        | Error _ -> false
      in
      let same_strong =
        Bool.equal
          (Dyno_core.Consistency.ok (Scenario.check_strong tb))
          (Dyno_core.Consistency.ok (Scenario.check_strong ts))
      in
      let same_applied =
        Fixture.applied_per_source tb = Fixture.applied_per_source ts
      in
      let no_undefined =
        stats_b.Dyno_core.Stats.view_undefined
        = stats_s.Dyno_core.Stats.view_undefined
      in
      same_extent && convergent && same_strong && same_applied && no_undefined)

let to_alcotest = QCheck_alcotest.to_alcotest

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
      ( "equivalence",
        List.map to_alcotest [ prop_selfmaint_equals_baseline ] );
    ]
