(* The end-to-end matrix: one generator draws a whole run over every axis
   and one oracle checks the paper's guarantees against a reference run
   of the same timeline.

   Axes.  A timeline is a seed (0-10,000), 0-18 DUs, 0-3 SCs (the
   [drop_then_renames] train), a strategy, one view or the view set
   {V, V2} ([Paper_schema.view2_query]), in the world of [Fixture.base]
   (10 rows, DUs 0.2 s apart, SCs from 0.1 s, 1.5 s apart) or the small
   one (8 rows, 0.15 s, 1.0 s).  A variant of it draws no faults (one
   variant in five), light loss 0-0.35 (two in five) or heavy loss
   0.50-0.90 (two in five), with dup 0-0.30 and reorder 0-0.30 in both
   loss bands, on net seed 0-1,000 through [Fixture.faulty], shards
   {1, 2, 4}, width 1-6, self-maintenance on or off, a DU group of 1, 2,
   4 or 8 (1 in two variants of five) and recompute mode (one variant in
   three), and runs twice:
   observability off, and on (spans, metrics, lineage, the sampler at
   0.25 s).  A case is one such run; a group of [per_group] variants
   shares a timeline and so one reference run.

   The reference run is the timeline on a reliable channel, one shard,
   width 1, probing, per-update incremental maintenance, observability
   off.  Shards and view sets ignore the DU group, and a view set
   ignores recompute mode ({!Dyno_core.Run_config}): the oracle checks
   that ignoring them is harmless.  The oracle asks:
   - of the reference: every view strongly consistent, 0 commits skipped;
     every valid view convergent;
   - of a variant, per view: the reference's validity; strong
     consistency with 0 skipped, undefined views included; if valid,
     convergence, the reference's extent and per-source applied sets, and
     every admitted id integrated by exactly one commit.  Its
     [Stats.view_undefined] is the reference's;
   - of a variant with observability on: every admitted lineage record
     has one terminal event, no negative segment, and segments summing to
     commit -> terminal; Σ Maintain spans = [Stats.busy]; no freshness
     monotonicity violation; every staleness sample >= 0 and the last 0;
     and its run with observability off printed the same
     [Stats.to_json_string] and left the same extents.
   Not compared: commit counts, since merges depend on timing (correct
   runs gave 3 vs 4, 6 vs 4 and 8 vs 9 commits), and the extents of views
   that became undefined.

   The properties this one replaced, as regions of its domain:
   - test_net's fair-lossy convergence: shards 1, width 1, one view;
   - test_parallel's parallel = serial: shards 1, width 2-6;
   - test_shard's sharded = serial: shards 2 or 4, width 1 (and x
     parallel: width 3);
   - test_selfmaint's self-maintenance = probing: self-maintenance on;
   - test_props' end-to-end: no faults, shards 1, width 1;
   - test_props' multi-view: the view set in the small world, no faults;
   - test_obs's lineage and staleness: observability on, loss only, one
     view on 1, 2 or 4 shards at width 1 or 2, or the view set.

   The shrinker drops DUs and SCs, then sets axes back to the
   reference's.  [regressions] replays each counterexample found so far.
   [coverage] fails unless every pair of non-default axis values occurs
   in at least 50 cases.  To add an axis: a field in [axes] (or
   [timeline]), its reference value, its draw in [gen], its use in [spec]
   or [run], a reset in [shrink], a flag in [flags] and a name in [names]. *)

open Dyno_workload
module Core = Dyno_core
module Mv = Dyno_view.Mat_view

type timeline =
  { small : bool; seed : int; dus : int; scs : int; strategy : Core.Strategy.t;
    two_views : bool }

type axes =
  { loss : float; dup : float; reorder : float; net_seed : int; shards : int;
    width : int; self_maint : bool; du_group : int; recompute : bool }

let reference =
  { loss = 0.; dup = 0.; reorder = 0.; net_seed = 0; shards = 1; width = 1;
    self_maint = false; du_group = 1; recompute = false }

let pp_case ppf (tl, axes) =
  Fmt.pf ppf "%s world, seed %d, %d DUs, %d SCs, %a, %s"
    (if tl.small then "small" else "base")
    tl.seed tl.dus tl.scs Core.Strategy.pp tl.strategy
    (if tl.two_views then "views {V, V2}" else "view V");
  List.iter
    (fun a ->
      Fmt.pf ppf "@\n  loss %.2f dup %.2f reorder %.2f net seed %d, %d shard(s), \
                  width %d%s, DU group %d%s" a.loss a.dup a.reorder a.net_seed
        a.shards a.width
        (if a.self_maint then ", self-maint" else "")
        a.du_group
        (if a.recompute then ", recompute" else ""))
    axes

let spec tl (a : axes) obs : Spec.t =
  let base =
    if tl.small then
      { Fixture.base with du_interval = 0.15; sc_interval = 1.0;
        world = Scenario.Config.with_rows 8 Fixture.base.world }
    else Fixture.base
  in
  let s =
    { base with seed = tl.seed; dus = tl.dus; scs = tl.scs;
      world = Scenario.Config.(base.world |> with_shards a.shards |> with_obs obs);
      run = Core.Run_config.(of_strategy tl.strategy |> with_parallel a.width
                             |> with_self_maint a.self_maint
                             |> with_du_group a.du_group
                             |> with_vm_mode (if a.recompute then Recompute
                                              else Incremental)) }
  in
  if a.loss +. a.dup +. a.reorder = 0. then s
  else Fixture.faulty ~loss:a.loss ~dup:a.dup ~reorder:a.reorder ~net_seed:a.net_seed s

type run = { t : Scenario.t; views : Mv.t list; stats : Core.Stats.t; o : Dyno_obs.Obs.t }

let run ~obs tl a =
  let o =
    if obs then Dyno_obs.Obs.create ~sample_interval:0.25 () else Dyno_obs.Obs.disabled
  in
  let s = spec tl a o in
  let t = Spec.build s in
  let views =
    t.mv :: (if tl.two_views then [ Scenario.add_view t (Paper_schema.view2_query ()) ]
             else [])
  in
  let stats = Core.Scheduler.dispatch ~config:s.run t.engine views t.mk in
  { t; views; stats; o }

let fail = QCheck.Test.fail_reportf
let valid mv = Dyno_view.View_def.is_valid (Mv.def mv)
let extent_eq a b = Dyno_relational.Relation.equal (Mv.extent a) (Mv.extent b)

let strong_and_convergent who r mv =
  let rep = Core.Consistency.check_strong r.t.engine mv in
  if not (Core.Consistency.ok rep) then fail "%s: %a" who Core.Consistency.pp_report rep;
  if valid mv && Core.Consistency.convergent r.t.engine mv <> Ok true then
    fail "%s: not convergent" who

let integrated_once who r mv =
  let n = Hashtbl.create 64 in
  let count id = Option.value ~default:0 (Hashtbl.find_opt n id) in
  List.iter (fun (c : Mv.commit) ->
      List.iter (fun id -> Hashtbl.replace n id (count id + 1)) c.maintained)
    (Mv.commits mv);
  List.iter
    (fun (id, _) ->
      if count id <> 1 then fail "%s: msg #%d integrated by %d commits" who id (count id))
    (Scenario.msg_index r.t)

let check_variant reference v =
  List.iteri
    (fun i (rv, vv) ->
      let who = Fmt.str "view %d" i in
      if valid rv <> valid vv then fail "%s: validity differs from the reference" who;
      strong_and_convergent who v vv;
      if valid vv then begin
        if not (extent_eq rv vv) then fail "%s: extent differs from the reference" who;
        if Fixture.applied_per_source reference.t rv <> Fixture.applied_per_source v.t vv
        then fail "%s: per-source applied sets differ from the reference" who;
        integrated_once who v vv
      end)
    (List.combine reference.views v.views);
  if reference.stats.view_undefined <> v.stats.view_undefined then
    fail "Stats.view_undefined differs from the reference"

let terminal_kinds = Dyno_obs.Lineage.[ Applied; Irrelevant; Dropped_undefined ]

let check_obs v ~off =
  let open Dyno_obs in
  List.iter
    (fun (r : Lineage.record) ->
      let who = Fmt.str "lineage of msg %d (%s#%d)" r.msg_id r.source r.seq in
      let terminals =
        List.filter (fun (e : Lineage.event) ->
            List.exists (fun k -> e.kind = Lineage.terminal_name k) terminal_kinds)
          (Lineage.events r)
      in
      if r.msg_id >= 0 && List.length terminals <> 1 then
        fail "%s: %d terminal events" who (List.length terminals);
      List.iter
        (fun s ->
          if Lineage.segment_value r s < 0. then
            fail "%s: negative %s" who (Lineage.segment_name s))
        Lineage.all_segments;
      let sum = Lineage.segment_sum r and elapsed = Lineage.elapsed r in
      if r.term <> None && Float.abs (sum -. elapsed) > 1e-6 then
        fail "%s: segments sum to %.6f, commit -> terminal is %.6f" who sum elapsed)
    (Lineage.records (Obs.lineage v.o));
  let maintain = Span.total_duration (Obs.spans v.o) Span.Maintain in
  if Float.abs (maintain -. v.stats.busy) > 1e-6 then
    fail "Σ Maintain spans %.6f <> Stats.busy %.6f" maintain v.stats.busy;
  if Metrics.counter_value (Obs.metrics v.o) "freshness.monotonicity_violations" <> 0
  then fail "a view's applied frontier regressed";
  let stale (s : Timeseries.sample) = List.assoc "staleness_s" s.values in
  let samples = Timeseries.samples (Obs.series v.o) in
  List.iter (fun s -> if stale s < 0. then fail "staleness %g at %g" (stale s) s.at) samples;
  (match List.rev samples with
  | last :: _ when stale last = 0. -> ()
  | _ -> fail "staleness is not 0 at quiescence");
  if Core.Stats.to_json_string off.stats <> Core.Stats.to_json_string v.stats then
    fail "observability changed the stats";
  if not (List.for_all2 extent_eq off.views v.views) then
    fail "observability changed an extent"

let check (tl, axes) =
  let reference = run ~obs:false tl reference in
  List.iteri (fun i -> strong_and_convergent (Fmt.str "reference view %d" i) reference)
    reference.views;
  List.iter
    (fun a ->
      let off = run ~obs:false tl a and on = run ~obs:true tl a in
      check_variant reference off;
      check_variant reference on;
      check_obs on ~off)
    axes;
  true

(* The non-default axis values whose pairs [coverage] counts, by [names]. *)
let flags tl a ~obs =
  [ a.loss +. a.dup +. a.reorder > 0.; a.loss >= 0.5; a.shards > 1; a.width > 1;
    a.self_maint; tl.two_views; obs; tl.strategy <> Core.Strategy.Pessimistic;
    a.du_group > 1; a.recompute ]

let names =
  [| "faults"; "heavy loss"; "shards"; "width"; "self-maint"; "two views"; "obs";
     "strategy"; "DU group"; "recompute" |]
let n_flags = Array.length names
let pairs = Array.make_matrix n_flags n_flags 0

let note (tl, axes) =
  List.iter (fun (a, obs) ->
      let f = Array.of_list (flags tl a ~obs) in
      Array.iteri (fun i x ->
          Array.iteri (fun j y -> if x && y then pairs.(i).(j) <- pairs.(i).(j) + 1) f) f)
    (List.concat_map (fun a -> [ (a, false); (a, true) ]) axes)

let coverage () =
  for i = 0 to n_flags - 1 do
    for j = i + 1 to n_flags - 1 do
      if pairs.(i).(j) < 50 then
        Alcotest.failf "%s and %s met in only %d cases" names.(i) names.(j) pairs.(i).(j)
    done
  done

let per_group = 2

let gen ~small =
  let open QCheck.Gen in
  let rate lo hi = map (fun n -> float_of_int n /. 100.) (int_range lo hi) in
  let axes =
    let* loss, dup, reorder =
      frequency
        [ (1, return (0., 0., 0.)); (2, triple (rate 0 35) (rate 0 30) (rate 0 30));
          (2, triple (rate 50 90) (rate 0 30) (rate 0 30)) ]
    in
    let* net_seed = int_range 0 1000 and* shards = oneofl [ 1; 2; 4 ]
    and* width = int_range 1 6 and* self_maint = bool
    and* du_group = oneofl [ 1; 1; 2; 4; 8 ]
    and* recompute = map (( = ) 0) (int_range 0 2) in
    return
      { loss; dup; reorder; net_seed; shards; width; self_maint; du_group; recompute }
  in
  let* seed = int_range 0 10_000 and* dus = int_range 0 18 and* scs = int_range 0 3
  and* strategy = oneofl Core.Strategy.all and* two_views = bool in
  pair (return { small; seed; dus; scs; strategy; two_views }) (list_repeat per_group axes)

let shrink (tl, axes) yield =
  QCheck.Shrink.int tl.dus (fun dus -> yield ({ tl with dus }, axes));
  QCheck.Shrink.int tl.scs (fun scs -> yield ({ tl with scs }, axes));
  if List.length axes > 1 then List.iter (fun a -> yield (tl, [ a ])) axes;
  List.iteri
    (fun i a ->
      let with_ a' = List.mapi (fun j b -> if i = j then a' else b) axes in
      List.iter
        (fun a' -> if a' <> a then yield (tl, with_ a'))
        [ { a with loss = 0.; dup = 0.; reorder = 0. }; { a with loss = 0. };
          { a with dup = 0. }; { a with reorder = 0. }; { a with shards = 1 };
          { a with width = 1 }; { a with self_maint = false };
          { a with du_group = 1 }; { a with recompute = false } ])
    axes

(* Counterexamples found so far, replayed on every run. *)
let regressions =
  let case small seed dus scs strategy two_views (loss, dup, reorder, net_seed)
      (shards, width, self_maint) =
    ( { small; seed; dus; scs; strategy; two_views },
      [ { loss; dup; reorder; net_seed; shards; width; self_maint; du_group = 1;
          recompute = false } ] )
  in
  Core.Strategy.
    [ case false 7205 11 2 Pessimistic false (0.23, 0.02, 0.09, 801) (2, 2, false);
      case false 5756 12 2 Merge_all false (0.28, 0.30, 0.25, 541) (1, 5, false);
      case false 6056 3 1 Merge_all true (0.11, 0., 0.24, 905) (2, 6, false);
      case false 3195 4 2 Optimistic false (0.06, 0., 0.09, 308) (4, 1, true);
      case true 2247 2 0 Merge_all true (0.26, 0.01, 0.09, 916) (1, 1, false) ]

let print = Fmt.str "%a" pp_case

(* The matrix over one world: [groups] drawn groups of [per_group]
   variants, two cases each, then the coverage check, and the
   regressions in that world. *)
let tests ~small ~groups =
  let _, _, matrix =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:groups ~name:"matrix"
         (QCheck.make ~print ~shrink (gen ~small))
         (fun case -> note case; check case))
  in
  Alcotest.test_case
    (Fmt.str "%d cases, every axis pair in >= 50" (groups * per_group * 2))
    `Quick (fun () -> matrix (); coverage ())
  :: List.filter_map
       (fun ((tl, _) as case) ->
         if tl.small <> small then None
         else
           Some
             (QCheck_alcotest.to_alcotest
                (QCheck.Test.make ~count:1 ~name:(Fmt.str "regression: seed %d" tl.seed)
                   (QCheck.make ~print (QCheck.Gen.return case)) check)))
       regressions
