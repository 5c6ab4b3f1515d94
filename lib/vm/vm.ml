(** View Maintenance (VM): the maintenance process of Definition 1(1).

    [M(DU) = r(VD) r(DS_1) … r(DS_n) w(MV) c(MV)]: read the view
    definition, probe each source through {!Sweep} (with compensation for
    concurrent data updates), then refresh and commit the materialized
    view.  A probe hitting a concurrent schema change aborts the process —
    the broken-query anomaly the Dyno scheduler corrects. *)

open Dyno_relational
open Dyno_view

type outcome =
  | Refreshed of { delta_tuples : int; stats : Sweep.stats }
      (** maintenance succeeded; MV refreshed and committed *)
  | Irrelevant
      (** the update does not touch any relation of the view; a commit
          record is still made so consistency bookkeeping sees it *)
  | Aborted of Dyno_source.Data_source.broken
      (** a maintenance query broke (in-exec detection fired) *)
  | Unreachable of Dyno_net.Retry.unreachable
      (** a probe exhausted its transport retry budget — transient; the
          scheduler waits for recovery and retries the step, no abort *)

exception Invalid_view of string

(* One sweep, preferring the self-maintenance path when the scheduler
   installed local hooks and coverage holds.  Local answering is sound
   only in compensated mode: the auxiliary data reflects every delivered
   commit, and the local path removes pending unmaintained updates by
   construction — with compensation off the baseline deliberately keeps
   them in, so it must keep probing. *)
let sweep_delta ?local ~compensate w sw ~delta ~exclude =
  match local with
  | Some l when compensate -> (
      match Sweep.delta_view_local w sw ~delta ~exclude ~local:l with
      | Some ok -> Ok ok
      | None -> Sweep.delta_view ~compensate w sw ~delta ~exclude)
  | _ -> Sweep.delta_view ~compensate w sw ~delta ~exclude

(** The sweep half of {!maintain}, without the refresh/commit: what a
    concurrent maintenance task runs.  The refresh must mutate the view
    and charge the clock serially, so the parallel scheduler calls
    {!commit_swept} for each successful sweep at the round barrier, in
    corrected queue order. *)
type swept =
  | Swept of Relation.t * Sweep.stats  (** view delta, refresh pending *)
  | Swept_irrelevant  (** commit record pending *)
  | Swept_aborted of Dyno_source.Data_source.broken
  | Swept_unreachable of Dyno_net.Retry.unreachable

(* The r(VD) prelude every entry point shares: the view must be defined,
   and the update's relation must occur in it exactly once, as the pivot.
   The delta must be expressed against the schema the view believes; a
   mismatch means a schema change at that source overtook the view
   definition — a conflict VM cannot handle (Dyno will reorder).  [Ok]
   carries the pivot's compiled sweep; [Error] an outcome decided
   without one. *)
let prelude (mv : Mat_view.t) (du : Update.t) :
    (Maint_query.sweep, swept) result =
  let vd = Mat_view.def mv in
  if not (View_def.is_valid vd) then raise (Invalid_view (View_def.name vd));
  let q, _version = View_def.read vd in
  let pivots =
    List.filter
      (fun (tr : Query.table_ref) ->
        String.equal tr.source (Update.source du)
        && String.equal tr.rel (Update.rel du))
      (Query.from q)
  in
  match pivots with
  | [] ->
      (* The update's relation is not in the view (e.g. it was replaced by
         synchronization); the view trivially reflects it. *)
      Error Swept_irrelevant
  | _ :: _ :: _ ->
      raise
        (Maint_query.Unsupported
           (Fmt.str "relation %s@%s occurs more than once in view %s"
              (Update.rel du) (Update.source du) (Query.name q)))
  | [ pivot ] -> (
      let abort reason =
        Error
          (Swept_aborted
             {
               Dyno_source.Data_source.source = Update.source du;
               query_name = Query.name q;
               reason;
             })
      in
      let actual = Relation.schema (Update.delta du) in
      match View_def.schema_of_alias vd pivot.Query.alias with
      | Some s when not (Schema.equal s actual) ->
          abort
            (Fmt.str "delta schema %a of %s diverges from believed schema %a"
               Schema.pp actual (Update.rel du) Schema.pp s)
      | None ->
          abort (Fmt.str "no believed schema for alias %s" pivot.Query.alias)
      | Some _ -> Ok (Maint_query.sweep_for vd pivot))

(** [maintain_sweep w mv msg du ~exclude_extra] — probe + compensate for
    [du] without touching the view.  [exclude_extra] carries the message
    ids of antichain members dispatched earlier in the same round: their
    deltas are being maintained concurrently, so compensation must not
    subtract them (their exclusion set is fixed at dispatch). *)
let maintain_sweep ?(compensate = true) ?(applied = []) ?(exclude_extra = [])
    ?local (w : Query_engine.t) (mv : Mat_view.t) (msg : Update_msg.t)
    (du : Update.t) : swept =
  match prelude mv du with
  | Error settled -> settled
  | Ok sw -> (
      match
        sweep_delta ?local ~compensate w sw ~delta:(Update.delta du)
          ~exclude:((Update_msg.id msg :: applied) @ exclude_extra)
      with
      | Error (Query_engine.Broken b) -> Swept_aborted b
      | Error (Query_engine.Unreachable u) -> Swept_unreachable u
      | Ok (dv, stats) -> Swept (dv, stats))

(* The w(MV) c(MV) of a maintenance process: charge the refresh, refresh
   and commit the view, and record it — for one update, or for a group of
   [ids] maintained together ([grouped]). *)
let refresh_view (w : Query_engine.t) (mv : Mat_view.t) ~(ids : int list)
    ~(grouped : bool) (dv : Relation.t) =
  let q = View_def.peek (Mat_view.def mv) in
  let delta_tuples = Relation.mass dv in
  let obs = Query_engine.obs w in
  Dyno_obs.Span.with_span (Dyno_obs.Obs.spans obs)
    ~now:(fun () -> Query_engine.now w)
    Dyno_obs.Span.Refresh (Query.name q)
    (fun _ ->
      Query_engine.advance w
        (Dyno_sim.Cost_model.refresh (Query_engine.cost w) ~delta_tuples);
      Mat_view.refresh mv ~at:(Query_engine.now w) ~maintained:ids dv);
  Dyno_obs.Metrics.incr (Dyno_obs.Obs.metrics obs) "vm.refreshes";
  let trace = Query_engine.trace w and now = Query_engine.now w in
  if grouped then
    Dyno_sim.Trace.recordf trace ~time:now Dyno_sim.Trace.Refresh
      "view %s += %d tuple(s) for group of %d" (Query.name q) delta_tuples
      (List.length ids)
  else
    Dyno_sim.Trace.recordf trace ~time:now Dyno_sim.Trace.Refresh
      "view %s += %d tuple(s) for #%d" (Query.name q) delta_tuples
      (List.hd ids);
  let lin = Dyno_obs.Obs.lineage obs in
  if Dyno_obs.Lineage.enabled lin then
    Dyno_obs.Lineage.note lin ~ids ~time:now ~kind:"refresh"
      ~detail:
        (Fmt.str "view %s += %d tuple(s)%s" (Query.name q) delta_tuples
           (if grouped then " (grouped)" else ""))

(** [commit_swept w mv msg dv stats] — the refresh half of {!maintain}
    for a delta computed by {!maintain_sweep}: charge the refresh cost,
    refresh and commit the view.  Serial code — called at the round
    barrier, never inside a task. *)
let commit_swept (w : Query_engine.t) (mv : Mat_view.t)
    (msg : Update_msg.t) (dv : Relation.t) (stats : Sweep.stats) : outcome =
  refresh_view w mv ~ids:[ Update_msg.id msg ] ~grouped:false dv;
  Refreshed { delta_tuples = Relation.mass dv; stats }

(** [maintain w mv msg du] runs one full VM process for data update [du]
    carried by message [msg]: {!maintain_sweep}, then {!commit_swept} (or
    a bare commit record when the update is irrelevant to the view).
    [local] (from the self-maintenance tier) lets covered sweeps be
    answered without probing. *)
let maintain ?compensate ?applied ?local (w : Query_engine.t)
    (mv : Mat_view.t) (msg : Update_msg.t) (du : Update.t) : outcome =
  match maintain_sweep ?compensate ?applied ?local w mv msg du with
  | Swept (dv, stats) -> commit_swept w mv msg dv stats
  | Swept_irrelevant ->
      Mat_view.record_commit mv ~at:(Query_engine.now w)
        ~maintained:[ Update_msg.id msg ];
      Irrelevant
  | Swept_aborted b -> Aborted b
  | Swept_unreachable u -> Unreachable u

(** [maintain_group w mv msgs] — deferred/grouped maintenance of a queue
    prefix of data updates (no schema changes): updates are merged into
    one delta per relation and each merged delta is swept once, with the
    already-processed deltas excluded from compensation (so they count as
    maintained) — the probe-level telescoping of Equation 6.  The view is
    refreshed and committed {e once} for the whole group, so the claimed
    source-state vector stays valid and strong consistency is preserved;
    the view simply skips the intermediate states.

    With [overlap] (and outside any executor task), the per-(source,rel)
    sweeps — independent by construction until the final delta sum — run
    as concurrent tasks whose probe round trips overlap; each sweep's
    compensation exclusion set is fixed at dispatch to exactly what the
    serial left-to-right pass would use, so the frontiers stay exact. *)
let maintain_group ?(compensate = true) ?(overlap = false) ?local
    (w : Query_engine.t) (mv : Mat_view.t) (msgs : Update_msg.t list) :
    outcome =
  let vd = Mat_view.def mv in
  if not (View_def.is_valid vd) then raise (Invalid_view (View_def.name vd));
  let q, _ = View_def.read vd in
  let schemas = View_def.schemas vd in
  let all_ids = List.map Update_msg.id msgs in
  (* Merge per (source, rel), preserving first-occurrence order. *)
  let groups : (string * string, Relation.t * int list) Hashtbl.t =
    Hashtbl.create 8
  in
  let order = ref [] in
  List.iter
    (fun m ->
      match Update_msg.as_du m with
      | None -> invalid_arg "maintain_group: schema change in a DU group"
      | Some u ->
          let key = (Update.source u, Update.rel u) in
          (match Hashtbl.find_opt groups key with
          | Some (d, ids) ->
              (* [d] is the group's private copy: add in place. *)
              Relation.sum_in_place d (Update.delta u);
              Hashtbl.replace groups key (d, Update_msg.id m :: ids)
          | None ->
              order := key :: !order;
              Hashtbl.replace groups key
                (Relation.copy (Update.delta u), [ Update_msg.id m ])))
    msgs;
  let order = List.rev !order in
  let exception Abort of Dyno_source.Data_source.broken in
  let exception Stall of Dyno_net.Retry.unreachable in
  try
    let total = ref None in
    let processed = ref [] in
    let add_delta dv =
      match !total with
      | None -> total := Some dv
      | Some acc -> Relation.sum_in_place acc dv
    in
    let pivot_of (source, rel) =
      List.find_opt
        (fun (tr : Query.table_ref) ->
          String.equal tr.source source && String.equal tr.rel rel)
        (Query.from q)
    in
    let check_schema (pivot : Query.table_ref) delta rel =
      match List.assoc_opt pivot.Query.alias schemas with
      | Some s when Schema.equal s (Relation.schema delta) -> ()
      | _ ->
          raise
            (Abort
               {
                 Dyno_source.Data_source.source = pivot.Query.source;
                 query_name = Query.name q;
                 reason = Fmt.str "group delta schema diverges on %s" rel;
               })
    in
    let exec = Query_engine.executor w in
    let use_tasks =
      overlap
      && (not (Dyno_sim.Executor.in_task exec))
      && List.length order > 1
    in
    if use_tasks then begin
      (* Concurrent sweeps.  Irrelevant keys are settled first (their ids
         never occur in any probed relation's pending set, so excluding
         them is a no-op either way); schema checks are free of clock
         cost, so running them all up front preserves the serial
         outcome.  Each sweep's exclusion set — its own ids plus those of
         groups the serial pass would have processed before it — is
         frozen at dispatch.  Failures resolve in group order: the first
         failing group wins, later sweeps are discarded (their updates
         stay queued and are re-swept on retry). *)
      let relevant =
        List.filter_map
          (fun key ->
            let delta, ids = Hashtbl.find groups key in
            match pivot_of key with
            | None ->
                processed := ids @ !processed;
                None
            | Some pivot -> Some (key, pivot, delta, ids))
          order
      in
      List.iter
        (fun ((_, rel), pivot, delta, _) -> check_schema pivot delta rel)
        relevant;
      let results = Array.make (List.length relevant) None in
      let thunks =
        let before = ref !processed in
        List.mapi
          (fun i (_, pivot, delta, ids) ->
            let exclude = ids @ !before in
            before := ids @ !before;
            let sw = Maint_query.sweep_for vd pivot in
            fun () ->
              results.(i) <-
                Some (sweep_delta ?local ~compensate w sw ~delta ~exclude))
          relevant
      in
      Dyno_sim.Executor.run_all exec thunks;
      List.iteri
        (fun i (_, _, _, ids) ->
          match results.(i) with
          | Some (Ok (dv, _)) ->
              processed := ids @ !processed;
              add_delta dv
          | Some (Error (Query_engine.Broken b)) -> raise (Abort b)
          | Some (Error (Query_engine.Unreachable u)) -> raise (Stall u)
          | None -> assert false)
        relevant
    end
    else
      List.iter
        (fun key ->
          let delta, ids = Hashtbl.find groups key in
          let _, rel = key in
          match pivot_of key with
          | None -> processed := ids @ !processed (* irrelevant to the view *)
          | Some pivot -> (
              check_schema pivot delta rel;
              match
                sweep_delta ?local ~compensate w
                  (Maint_query.sweep_for vd pivot)
                  ~delta ~exclude:(ids @ !processed)
              with
              | Error (Query_engine.Broken b) -> raise (Abort b)
              | Error (Query_engine.Unreachable u) -> raise (Stall u)
              | Ok (dv, _) ->
                  processed := ids @ !processed;
                  add_delta dv))
        order;
    (match !total with
    | None ->
        Mat_view.record_commit mv ~at:(Query_engine.now w) ~maintained:all_ids
    | Some dv -> refresh_view w mv ~ids:all_ids ~grouped:true dv);
    Refreshed { delta_tuples = 0; stats = Sweep.no_stats }
  with
  | Abort b -> Aborted b
  | Stall u -> Unreachable u

(** [initialize w mv] fully (re)materializes the view from the sources'
    current states — used at system start.  Charged as one big adaptation. *)
let initialize (w : Query_engine.t) (mv : Mat_view.t) : unit =
  let vd = Mat_view.def mv in
  let q = View_def.peek vd in
  let scanned = ref 0 in
  let env (tr : Query.table_ref) =
    match Query_engine.source_relation w ~source:tr.source ~rel:tr.rel with
    | Some r ->
        scanned := !scanned + Relation.support r;
        r
    | None -> raise (Eval.Error (Fmt.str "missing relation %s@%s" tr.rel tr.source))
  in
  let extent = Eval.run ~planner:(Query_engine.planner w) ~catalog:env q in
  Query_engine.advance w
    (Dyno_sim.Cost_model.adapt (Query_engine.cost w) ~scanned:!scanned
       ~written:(Relation.support extent));
  Mat_view.replace mv ~at:(Query_engine.now w) ~maintained:[] extent
