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
      (** never built; kept for perfbench's copied loop (see vm.mli) *)

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
  | Swept_unreachable of Dyno_net.Retry.unreachable  (** never built *)

(* A maintenance query of view [q] broke at [source]. *)
let broken q ~source reason =
  { Dyno_source.Data_source.source; query_name = Query.name q; reason }

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
        Error (Swept_aborted (broken q ~source:(Update.source du) reason))
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
      | Error b -> Swept_aborted b
      | Ok (dv, stats) -> Swept (dv, stats))

(* The w(MV) c(MV) of a maintenance process: charge the refresh, refresh
   and commit the view, and record it — for one update, or for a group of
   [ids] maintained together ([grouped]).  Returns the delta's mass. *)
let refresh_view (w : Query_engine.t) (mv : Mat_view.t) ~(ids : int list)
    ~(grouped : bool) (dv : Relation.t) =
  let view = Query.name (View_def.peek (Mat_view.def mv)) in
  let delta_tuples = Relation.mass dv in
  let obs = Query_engine.obs w in
  Dyno_obs.Span.with_span (Dyno_obs.Obs.spans obs)
    ~now:(fun () -> Query_engine.now w)
    Dyno_obs.Span.Refresh (Lazy.from_val view)
    (fun _ ->
      Query_engine.advance w
        (Dyno_sim.Cost_model.refresh (Query_engine.cost w) ~delta_tuples);
      Mat_view.refresh mv ~at:(Query_engine.now w) ~maintained:ids dv);
  Dyno_obs.Metrics.incr (Dyno_obs.Obs.metrics obs) "vm.refreshes";
  let trace = Query_engine.trace w and now = Query_engine.now w in
  Dyno_sim.Trace.record trace ~time:now Dyno_sim.Trace.Refresh
    (lazy
      (if grouped then
         Fmt.str "view %s += %d tuple(s) for group of %d" view delta_tuples
           (List.length ids)
       else
         Fmt.str "view %s += %d tuple(s) for #%d" view delta_tuples
           (List.hd ids)));
  Dyno_obs.Lineage.note (Dyno_obs.Obs.lineage obs) ~ids ~time:now
    ~kind:"refresh"
    ~detail:
      (lazy
        (Fmt.str "view %s += %d tuple(s)%s" view delta_tuples
           (if grouped then " (grouped)" else "")));
  delta_tuples

(** [commit_swept w mv msg dv stats] — the refresh half of {!maintain}
    for a delta computed by {!maintain_sweep}: charge the refresh cost,
    refresh and commit the view.  Serial code — called at the round
    barrier, never inside a task. *)
let commit_swept (w : Query_engine.t) (mv : Mat_view.t)
    (msg : Update_msg.t) (dv : Relation.t) (stats : Sweep.stats) : outcome =
  let ids = [ Update_msg.id msg ] in
  Refreshed { delta_tuples = refresh_view w mv ~ids ~grouped:false dv; stats }

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
  | Swept_unreachable u -> Dyno_net.Retry.absurd u

(** [maintain_group w mv msgs] — deferred/grouped maintenance of a queue
    prefix of data updates (no schema changes): updates are merged into
    one delta per relation and each merged delta is swept once, with the
    already-processed deltas excluded from compensation (so they count as
    maintained) — the probe-level telescoping of Equation 6.  The view is
    refreshed and committed {e once} for the whole group, so the claimed
    source-state vector stays valid and strong consistency is preserved;
    the view simply skips the intermediate states.  A refresh carries the
    sweeps' summed statistics; a group none of whose relations is in the
    view is [Irrelevant].  Returned with the outcome: the ids of the
    members whose relation the view does not read. *)
let maintain_group ?(compensate = true) ?local
    (w : Query_engine.t) (mv : Mat_view.t) (msgs : Update_msg.t list) :
    outcome * int list =
  let vd = Mat_view.def mv in
  if not (View_def.is_valid vd) then raise (Invalid_view (View_def.name vd));
  let q, _ = View_def.read vd in
  let schemas = View_def.schemas vd in
  let all_ids = List.map Update_msg.id msgs in
  (* Merge per (source, rel), latest key first; each merged delta is the
     group's private copy, added to in place. *)
  let groups = ref [] in
  List.iter
    (fun m ->
      match Update_msg.as_du m with
      | None -> invalid_arg "maintain_group: schema change in a DU group"
      | Some u -> (
          let key = (Update.source u, Update.rel u) in
          match List.assoc_opt key !groups with
          | Some (d, ids) ->
              Relation.sum_in_place d (Update.delta u);
              ids := Update_msg.id m :: !ids
          | None ->
              let d = Relation.copy (Update.delta u) in
              groups := (key, (d, ref [ Update_msg.id m ])) :: !groups))
    msgs;
  let exception Failed of outcome in
  (* Sweep one merged delta, with the deltas already processed excluded
     from compensation; a relation not in the view counts as processed,
     and its updates as off the view. *)
  let sweep (total, (stats : Sweep.stats), processed, off) (key, (delta, ids)) =
    let ids = !ids in
    match
      List.find_opt
        (fun (tr : Query.table_ref) ->
          String.equal tr.source (fst key) && String.equal tr.rel (snd key))
        (Query.from q)
    with
    | None -> (total, stats, ids @ processed, ids @ off)
    | Some pivot -> (
        (match List.assoc_opt pivot.Query.alias schemas with
        | Some s when Schema.equal s (Relation.schema delta) -> ()
        | _ ->
            let b =
              broken q ~source:pivot.Query.source
                (Fmt.str "group delta schema diverges on %s" (snd key))
            in
            raise (Failed (Aborted b)));
        match
          sweep_delta ?local ~compensate w
            (Maint_query.sweep_for vd pivot)
            ~delta ~exclude:(ids @ processed)
        with
        | Error b -> raise (Failed (Aborted b))
        | Ok (dv, s) ->
            ( (match total with
              | None -> Some dv
              | Some acc ->
                  Relation.sum_in_place acc dv;
                  total),
              {
                Sweep.probes = stats.probes + s.probes;
                compensations = stats.compensations + s.compensations;
                comp_tuples = stats.comp_tuples + s.comp_tuples;
                probes_avoided = stats.probes_avoided + s.probes_avoided;
                bytes_saved = stats.bytes_saved + s.bytes_saved;
              },
              ids @ processed,
              off ))
  in
  match
    List.fold_left sweep (None, Sweep.no_stats, [], []) (List.rev !groups)
  with
  | None, _, _, off ->
      Mat_view.record_commit mv ~at:(Query_engine.now w) ~maintained:all_ids;
      (Irrelevant, off)
  | Some dv, stats, _, off ->
      let delta_tuples = refresh_view w mv ~ids:all_ids ~grouped:true dv in
      (Refreshed { delta_tuples; stats }, off)
  | exception Failed o -> (o, [])
