(* Unit tests for the workload layer: the paper's experimental schema, the
   generator's validity guarantees (every generated event applies cleanly
   at its source even across schema evolution), and scenario assembly. *)

open Dyno_relational
open Dyno_workload

let test_paper_schema_shape () =
  Alcotest.(check int) "six relations" 6 Paper_schema.n_relations;
  Alcotest.(check (list string)) "three sources" [ "DS1"; "DS2"; "DS3" ]
    Paper_schema.sources;
  Alcotest.(check string) "R1,R2 at DS1" "DS1" (Paper_schema.source_of_rel 2);
  Alcotest.(check string) "R3 at DS2" "DS2" (Paper_schema.source_of_rel 3);
  Alcotest.(check string) "R6 at DS3" "DS3" (Paper_schema.source_of_rel 6);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Fmt.str "R%d has 4 attributes" i)
        4
        (Schema.arity (Paper_schema.schema_of_rel i)))
    [ 1; 2; 3; 4; 5; 6 ];
  let q = Paper_schema.view_query () in
  Alcotest.(check int) "view selects all 24 attributes" 24
    (List.length (Query.select q));
  Alcotest.(check int) "chain of 5 join conditions" 5 (List.length (Query.where q))

let test_initial_view_is_one_to_one () =
  let rows = 20 in
  let registry = Paper_schema.build_sources ~rows in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation
      (Dyno_source.Registry.find registry tr.source)
      tr.rel
  in
  let extent = Eval.run ~catalog:env (Paper_schema.view_query ()) in
  Alcotest.(check int) "one view row per key" rows (Relation.cardinality extent)

(* The generator's central guarantee: every event on the timeline commits
   cleanly, in order, against fresh sources — across renames, drops and
   adds. *)
let test_generated_timeline_always_applies () =
  List.iter
    (fun seed ->
      let rows = 15 in
      let timeline =
        Generator.mixed ~rows ~seed ~n_dus:60 ~du_interval:0.5 ~sc_start:1.0
          ~sc_interval:3.0
          ~sc_kinds:
            [
              Generator.Drop_attr; Generator.Rename_rel; Generator.Rename_attr;
              Generator.Add_attr; Generator.Rename_rel; Generator.Drop_attr;
              Generator.Rename_rel; Generator.Rename_attr;
            ]
          ()
      in
      let registry = Paper_schema.build_sources ~rows in
      List.iter
        (fun (e : Dyno_sim.Timeline.entry) ->
          match Dyno_source.Registry.commit registry ~time:e.time e.event with
          | _ -> ()
          | exception exn ->
              Alcotest.failf "seed %d: event %a failed: %s" seed
                Dyno_sim.Timeline.pp_event e.event (Printexc.to_string exn))
        (Dyno_sim.Timeline.pop_until timeline ~time:infinity))
    [ 1; 2; 3; 4; 5 ]

let test_generator_counts () =
  let timeline =
    Generator.mixed ~rows:10 ~seed:7 ~n_dus:25 ~du_interval:1.0 ~sc_interval:5.0
      ~sc_kinds:(Generator.drop_then_renames 4)
      ()
  in
  let events = Dyno_sim.Timeline.peek_all timeline in
  let dus, scs =
    List.partition
      (fun (e : Dyno_sim.Timeline.entry) ->
        match e.event with Dyno_sim.Timeline.Du _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "25 DUs" 25 (List.length dus);
  Alcotest.(check int) "4 SCs" 4 (List.length scs);
  (* drop_then_renames shape *)
  (match List.map (fun (e : Dyno_sim.Timeline.entry) -> e.event) scs with
  | Dyno_sim.Timeline.Sc (Schema_change.Drop_attribute _) :: rest ->
      Alcotest.(check bool) "renames after" true
        (List.for_all
           (function
             | Dyno_sim.Timeline.Sc (Schema_change.Rename_relation _) -> true
             | _ -> false)
           rest)
  | _ -> Alcotest.fail "expected drop first");
  (* SC spacing honoured *)
  match scs with
  | a :: b :: _ ->
      Alcotest.(check (float 1e-9)) "interval" 5.0 (b.Dyno_sim.Timeline.time -. a.Dyno_sim.Timeline.time)
  | _ -> Alcotest.fail "two SCs expected"

let test_generator_determinism () =
  let mk () =
    Generator.mixed ~rows:10 ~seed:123 ~n_dus:15 ~du_interval:0.5
      ~sc_interval:2.0 ~sc_kinds:(Generator.drop_then_renames 3) ()
  in
  let dump t =
    List.map
      (fun (e : Dyno_sim.Timeline.entry) ->
        Fmt.str "%.3f %a" e.time Dyno_sim.Timeline.pp_event e.event)
      (Dyno_sim.Timeline.peek_all t)
  in
  Alcotest.(check (list string)) "same seed, same timeline" (dump (mk ())) (dump (mk ()))

(* A spec that asks for no schema change gets none: its timeline is the
   DUs alone. *)
let test_spec_without_scs () =
  let events =
    Dyno_sim.Timeline.peek_all
      (Spec.timeline { Spec.default with dus = 5; scs = 0 })
  in
  Alcotest.(check int) "5 events" 5 (List.length events);
  List.iter
    (fun (e : Dyno_sim.Timeline.entry) ->
      match e.event with
      | Dyno_sim.Timeline.Du _ -> ()
      | Dyno_sim.Timeline.Sc _ ->
          Alcotest.failf "scs = 0 scheduled %a" Dyno_sim.Timeline.pp_event
            e.event)
    events;
  Alcotest.(check int) "no SC kinds" 0
    (List.length (Generator.drop_then_renames 0))

(* The walk the generator's array mirror replaced: every extent a
   newest-first list, a delete drawing a list position and filtering out
   the first equal tuple, every generated name and payload through
   [Fmt].  [Generator.build] must schedule exactly what it does. *)
module Reference = struct
  open Dyno_sim

  let source_of_rel i = Fmt.str "DS%d" (((i - 1) / 2) + 1)
  let rel_name i = Fmt.str "R%d" i
  let key_attr i = Fmt.str "K%d" i

  let schema_of_rel i =
    Schema.of_list
      [
        Attr.int (key_attr i);
        Attr.int (Fmt.str "A%d" i);
        Attr.string (Fmt.str "B%d" i);
        Attr.float (Fmt.str "C%d" i);
      ]

  let tuple_for ?(salt = 0) i k =
    [
      Value.int k;
      Value.int ((k * 7) + i + (salt * 1000003));
      Value.string (Fmt.str "r%d-%d-%d" i k salt);
      Value.float (float_of_int ((k * i) + salt) /. 8.0);
    ]

  type mirror_rel = {
    mutable name : string;
    mutable schema : Schema.t;
    mutable tuples : Tuple.t list;
    mutable next_salt : int;
  }

  let make_mirror ~rows =
    Array.init Paper_schema.n_relations (fun i ->
        let i = i + 1 in
        {
          name = rel_name i;
          schema = schema_of_rel i;
          tuples = List.init rows (fun k -> Tuple.of_list (tuple_for i k));
          next_salt = 1;
        })

  let gen_du m ~rows rng i =
    let r = m.(i) in
    let source = source_of_rel (i + 1) in
    let insert () =
      let k = Rng.int rng rows in
      let salt = r.next_salt in
      r.next_salt <- r.next_salt + 1;
      let base = tuple_for ~salt (i + 1) k in
      let arity = Schema.arity r.schema in
      let values =
        List.filteri (fun j _ -> j < arity) base
        @ List.init (max 0 (arity - List.length base)) (fun _ -> Value.null)
      in
      let values =
        List.map2
          (fun a v ->
            if Value.has_type v (Attr.ty a) then v
            else
              match Value.coerce_to (Attr.ty a) v with
              | Some v' -> v'
              | None -> Value.null)
          (Schema.attrs r.schema) values
      in
      let tup = Tuple.of_list values in
      r.tuples <- tup :: r.tuples;
      Update.insert ~source ~rel:r.name r.schema (Tuple.to_list tup)
    in
    match r.tuples with
    | [] -> insert ()
    | tuples ->
        if Rng.bool rng then insert ()
        else begin
          let victim = List.nth tuples (Rng.int rng (List.length tuples)) in
          let removed = ref false in
          r.tuples <-
            List.filter
              (fun t ->
                if (not !removed) && Tuple.equal t victim then begin
                  removed := true;
                  false
                end
                else true)
              tuples;
          Update.delete ~source ~rel:r.name r.schema (Tuple.to_list victim)
        end

  let gen_sc m rng i (kind : Generator.sc_kind) =
    let r = m.(i) in
    let source = source_of_rel (i + 1) in
    let non_key_attrs =
      List.filter
        (fun a -> not (String.equal (Attr.name a) (key_attr (i + 1))))
        (Schema.attrs r.schema)
    in
    match kind with
    | Drop_attr -> (
        match non_key_attrs with
        | [] -> None
        | attrs ->
            let a = Rng.pick rng attrs in
            let pos = Schema.index_of r.schema (Attr.name a) in
            r.schema <- Schema.drop r.schema (Attr.name a);
            r.tuples <- List.map (fun t -> Tuple.drop_at t pos) r.tuples;
            Some
              (Schema_change.Drop_attribute
                 { source; rel = r.name; attr = Attr.name a }))
    | Rename_rel ->
        let new_name = Fmt.str "%s_r%d" r.name r.next_salt in
        r.next_salt <- r.next_salt + 1;
        let sc =
          Schema_change.Rename_relation { source; old_name = r.name; new_name }
        in
        r.name <- new_name;
        Some sc
    | Rename_attr -> (
        match non_key_attrs with
        | [] -> None
        | attrs ->
            let a = Rng.pick rng attrs in
            let new_name = Fmt.str "%s_n%d" (Attr.name a) r.next_salt in
            r.next_salt <- r.next_salt + 1;
            let sc =
              Schema_change.Rename_attribute
                { source; rel = r.name; old_name = Attr.name a; new_name }
            in
            r.schema <- Schema.rename r.schema ~old_name:(Attr.name a) ~new_name;
            Some sc)
    | Add_attr ->
        let name = Fmt.str "X%d_%d" (i + 1) r.next_salt in
        r.next_salt <- r.next_salt + 1;
        let attr = Attr.int name in
        let default = Value.int 0 in
        r.schema <- Schema.add r.schema attr;
        r.tuples <- List.map (fun t -> Tuple.append t default) r.tuples;
        Some (Schema_change.Add_attribute { source; rel = r.name; attr; default })

  let build ~rows ~seed requests =
    let rng = Rng.make seed in
    let m = make_mirror ~rows in
    let timeline = Timeline.create () in
    let time_of = function Generator.At_du t | Generator.At_sc (t, _) -> t in
    List.iter
      (fun req ->
        match req with
        | Generator.At_du time ->
            let i = Rng.int rng Paper_schema.n_relations in
            Timeline.schedule timeline ~time (Timeline.Du (gen_du m ~rows rng i))
        | Generator.At_sc (time, kind) ->
            let rec try_rel attempts =
              if attempts > 0 then
                let i = Rng.int rng Paper_schema.n_relations in
                match gen_sc m rng i kind with
                | Some sc -> Timeline.schedule timeline ~time (Timeline.Sc sc)
                | None -> try_rel (attempts - 1)
            in
            try_rel 12)
      (List.stable_sort
         (fun a b -> Float.compare (time_of a) (time_of b))
         requests);
    timeline
end

let dump timeline =
  List.map
    (fun (e : Dyno_sim.Timeline.entry) ->
      Fmt.str "%h %a" e.time Dyno_sim.Timeline.pp_event e.event)
    (Dyno_sim.Timeline.peek_all timeline)

(* 1–8 rows, so deletes empty extents and drops collapse tuples into
   duplicates; up to 80 requests on 21 distinct times, so ties keep
   request order; drop-attribute weighted up. *)
let gen_walk =
  QCheck.Gen.(
    let kind =
      frequency
        [
          (3, return Generator.Drop_attr); (1, return Generator.Rename_rel);
          (1, return Generator.Rename_attr); (1, return Generator.Add_attr);
        ]
    in
    let request =
      int_bound 20 >>= fun t ->
      let t = float_of_int t in
      frequency
        [
          (3, return (Generator.At_du t));
          (1, map (fun k -> Generator.At_sc (t, k)) kind);
        ]
    in
    triple (int_range 1 8) (int_bound 1_000_000)
      (list_size (int_bound 80) request))

let print_walk (rows, seed, requests) =
  Fmt.str "rows %d, seed %d, %d requests" rows seed (List.length requests)

let rec first_difference got want =
  match (got, want) with
  | [], [] -> None
  | g :: gs, w :: ws ->
      if String.equal g w then first_difference gs ws else Some (g, w)
  | g :: _, [] -> Some (g, "(no event)")
  | [], w :: _ -> Some ("(no event)", w)

let prop_build_matches_reference =
  QCheck.Test.make ~name:"build = the newest-first list walk" ~count:300
    (QCheck.make gen_walk ~print:print_walk)
    (fun (rows, seed, requests) ->
      match
        first_difference
          (dump (Generator.build ~rows ~seed requests))
          (dump (Reference.build ~rows ~seed requests))
      with
      | None -> true
      | Some (got, want) ->
          QCheck.Test.fail_reportf "build:     %s@.reference: %s" got want)

(* Words [f] allocates, exactly: [Gc.quick_stat] counts the minor heap
   only at a collection, so one is forced before each read. *)
let words f =
  let total (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  total (Gc.quick_stat ()) -. total g0

(* Set-up costs what it builds.  The list mirror and per-row [Fmt] the
   generator and the paper schema had before read 1,920 words per DU
   for the timeline below and 1,349k words for the world; the array
   mirror and concatenated names read 162 and 306k. *)
let test_setup_allocation () =
  let requests =
    List.init 2_000 (fun k -> Generator.At_du (0.3 *. float_of_int k))
  in
  let per_du = words (fun () -> Generator.build ~rows:500 ~seed:24 requests) /. 2_000.0 in
  if per_du > 400.0 then
    Alcotest.failf "a 2,000-DU timeline over 500 rows: %.0f words per DU > 400" per_du;
  let world =
    words (fun () ->
        Scenario.make
          Scenario.Config.(default |> with_rows 500)
          ~timeline:(Dyno_sim.Timeline.create ()))
  in
  if world > 500_000.0 then
    Alcotest.failf "the 500-row paper world: %.0f words > 500k" world

let test_scenario_smoke () =
  let timeline =
    Generator.mixed ~rows:10 ~seed:5 ~n_dus:8 ~du_interval:0.0 ~sc_interval:0.0
      ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 10 |> with_cost Dyno_sim.Cost_model.free)
      ~timeline
  in
  Alcotest.(check int) "view materialized" 10
    (Relation.cardinality (Dyno_view.Mat_view.extent t.Scenario.mv));
  let stats =
    Scenario.run t
      ~config:(Dyno_core.Run_config.of_strategy Dyno_core.Strategy.Pessimistic)
  in
  Alcotest.(check int) "all maintained" 8
    (stats.Dyno_core.Stats.du_maintained + stats.Dyno_core.Stats.irrelevant);
  Alcotest.(check bool) "extent equals oracle" true
    (Relation.equal (Scenario.recompute_extent t)
       (Dyno_view.Mat_view.extent t.Scenario.mv))

let () =
  Alcotest.run "workload"
    [
      ( "workload",
        [
          Alcotest.test_case "paper schema shape" `Quick test_paper_schema_shape;
          Alcotest.test_case "initial one-to-one view" `Quick test_initial_view_is_one_to_one;
          Alcotest.test_case "generated timelines always apply" `Quick
            test_generated_timeline_always_applies;
          Alcotest.test_case "generator counts & spacing" `Quick test_generator_counts;
          Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
          Alcotest.test_case "scenario smoke" `Quick test_scenario_smoke;
          Alcotest.test_case "a spec with scs = 0 has no schema change" `Quick
            test_spec_without_scs;
          QCheck_alcotest.to_alcotest prop_build_matches_reference;
          Alcotest.test_case "set-up allocation budget" `Quick
            test_setup_allocation;
        ] );
    ]
