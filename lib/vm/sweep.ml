(** The SWEEP compensation algorithm (Agrawal et al., SIGMOD'97), adapted
    to the Dyno framework.

    Maintenance of a data update [Δ] at view alias [A] computes the view
    delta [ΔV = R_1 ⋈ … ⋈ Δ ⋈ … ⋈ R_n] by sweeping outwards from [A]:
    the partial result is shipped with a probe query to each remaining
    relation's source in turn.  Because sources answer against their
    {e current} state, a probe's answer may include the effects of data
    updates committed after [Δ] but not yet maintained (the duplication
    anomaly, type (1)/(2)).  SWEEP removes those effects {e locally} at the
    view manager: for every pending unmaintained DU [δ] on the probed
    relation, it subtracts [δ ⋈ partial] (computed with the same probe
    query) from the answer.  No locking, no extra round trips.

    A probe that fails due to a concurrent schema change surfaces as
    [Error (Broken _)] — the in-exec detection signal consumed by the Dyno
    scheduler; compensation cannot help there (Section 3.2).  A probe that
    exhausts its transport retry budget surfaces as
    [Error (Unreachable _)] — a transient stall, retried by the scheduler
    without aborting. *)

open Dyno_relational
open Dyno_view

type stats = {
  probes : int;  (** maintenance queries sent *)
  compensations : int;  (** probe answers that needed compensation *)
  comp_tuples : int;  (** tuples removed/added by compensation *)
  probes_avoided : int;
      (** probes answered locally from auxiliary views (self-maintenance) *)
  bytes_saved : int;
      (** estimated wire bytes those avoided probes would have shipped *)
}

let no_stats =
  {
    probes = 0;
    compensations = 0;
    comp_tuples = 0;
    probes_avoided = 0;
    bytes_saved = 0;
  }

(** The hooks the self-maintenance tier ({!Dyno_selfmaint.Aux_store})
    hands down: per-alias current auxiliary data plus avoided-probe
    accounting.  Kept as a closure record so this library stays free of a
    dependency on the store. *)
type local = {
  aux : string -> Relation.t option;
      (** current auxiliary data for a view alias — [None] when the alias
          is uncovered or its projection is invalidated/stale *)
  note_avoided : probes:int -> bytes:int -> unit;
      (** accounting callback, called once per successful local sweep *)
}

(** [delta_view w sw ~delta ~exclude] computes the view delta for update
    [delta] through the compiled sweep [sw] (its pivot, probe plans and
    projections).  [exclude] is the id of the update message being
    maintained (it must not compensate against itself).

    Returns [Ok (delta_view, stats)], or [Error _] when any probe hits a
    schema conflict or exhausts its transport retry budget. *)
let delta_view ?(compensate = true) (w : Query_engine.t)
    (sw : Maint_query.sweep) ~(delta : Relation.t) ~(exclude : int list) :
    (Relation.t * stats, Query_engine.failure) result =
  let partial = ref (Maint_query.start sw delta) in
  let stats = ref no_stats in
  let trace = Query_engine.trace w in
  let exception Failed of Query_engine.failure in
  try
    if Relation.is_empty !partial then
      (* The delta is filtered out locally; nothing joins, no probes needed. *)
      Ok (Relation.create (Maint_query.output_schema sw), !stats)
    else begin
      List.iter
        (fun ({ Maint_query.table = tr; query = probe; plan; _ } :
               Maint_query.probe) ->
          let answer, answered_at =
            match
              Query_engine.execute_timed w ~plan probe
                ~bound:[ (Maint_query.partial_alias, !partial) ]
                ~target:tr.Query.source
            with
            | Ok (a, at) -> (a.Dyno_source.Data_source.rows, at)
            | Error f -> raise (Failed f)
          in
          stats := { !stats with probes = !stats.probes + 1 };
          (* Compensation: remove the contribution of every pending,
             unmaintained DU on the probed relation, summed per delta
             schema by the UMQ and evaluated with the probe's own plan.
             The frontier is the instant the source computed the answer:
             under concurrent maintenance other tasks may have delivered
             commits while this task parked on the result transfer, and
             those later updates are not in the answer, so they must not
             be compensated away.  (Serially the frontier leaves nothing
             out: every pending update arrived — hence committed — before
             the answer.)  The sums are live; nothing below parks. *)
          let pending =
            if not compensate then []
            else
              Query_engine.pending_sums w ~after:(answered_at +. 1e-12)
                ~source:tr.Query.source ~rel:tr.Query.rel ~exclude
          in
          let compensated =
            List.fold_left
              (fun acc { Umq.sum; count; _ } ->
                match
                  Eval.execute ~planner:(Query_engine.planner w) plan
                    [ sum; !partial ]
                with
                | contribution ->
                    if Relation.is_empty contribution then acc
                    else begin
                      stats :=
                        {
                          !stats with
                          compensations = !stats.compensations + 1;
                          comp_tuples =
                            !stats.comp_tuples + Relation.mass contribution;
                        };
                      Dyno_sim.Trace.recordf trace
                        ~time:(Query_engine.now w) Dyno_sim.Trace.Compensate
                        "removed %d tuple(s) of %d pending update(s) from \
                         probe %s"
                        (Relation.mass contribution)
                        count (Query.name probe);
                      (* Compensation is local view-manager work, not
                         charged on the clock: a zero-duration span marks
                         where it happened inside the enclosing probe. *)
                      let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
                      let sid =
                        Dyno_obs.Span.begin_span sp
                          ~time:(Query_engine.now w)
                          Dyno_obs.Span.Compensate (Query.name probe)
                      in
                      Dyno_obs.Span.set_attr sp sid "tuples"
                        (string_of_int (Relation.mass contribution));
                      Dyno_obs.Span.end_span sp ~time:(Query_engine.now w)
                        sid;
                      Dyno_obs.Metrics.incr
                        (Dyno_obs.Obs.metrics (Query_engine.obs w))
                        ~by:(Relation.mass contribution)
                        "sweep.comp_tuples";
                      Relation.diff acc contribution
                    end
                | exception Eval.Error reason ->
                    (* The pending updates are expressed against a schema
                       the probe cannot see — a schema conflict is in
                       flight; treat the probe as broken (conservative,
                       sound). *)
                    raise
                      (Failed
                         (Query_engine.Broken
                            {
                              Dyno_source.Data_source.source =
                                tr.Query.source;
                              query_name = Query.name probe;
                              reason =
                                Fmt.str "compensation impossible: %s" reason;
                            })))
              answer pending
          in
          partial := compensated)
        sw.Maint_query.probes;
      Ok (Maint_query.finish sw !partial, !stats)
    end
  with Failed f -> Error f

(* [delta_view_local w sw ~delta ~exclude ~local] — the self-maintenance
    path: the same sweep as {!delta_view}, but every probe is answered by
    its local plan over the auxiliary projection of the probed alias
    instead of a round trip through {!Query_engine.execute_timed}.
    Returns [None] whenever any swept alias lacks current auxiliary data
    covering its needed attributes, or any local evaluation fails (e.g.
    pending deltas straddling a schema drift) — the caller then falls
    back to the probed path unchanged.

    Correctness: a valid projection holds the relation at the source's
    delivered frontier (initial state + every delivered DU), which is
    exactly what a probe answer looks like {e after} compensation.  So
    compensation here subtracts {e all} pending unmaintained updates on
    the probed relation — no answer-time cutoff: the local join happens
    "now", after every delivered commit.  The local path never parks, so
    no delivery can interleave mid-sweep even under parallel rounds.

    The work is local view-manager computation and is not charged on the
    simulated clock (same bargain as compensation); a {!Dyno_obs.Span.Local}
    span marks it so reports can split local vs probed cost. *)
(** The local sweep is split into a {e prepare} phase (coordinator-only:
    reads the engine's auxiliary data and pending queues) and a pure
    {e compute} phase over the captured snapshot.  The inline simulated
    path composes them back to back; the multicore runtime prepares every
    round member on the coordinator, ships the captured inputs to worker
    domains, and replays the bookkeeping ({!record_local}) when the
    results come home.  The split is sound because the local path never
    parks: between prepare and compute no delivery, commit or clock
    movement can change what the sweep would read. *)
type local_input = {
  in_sweep : Maint_query.sweep;
  in_planner : Eval.plan;
  in_partial0 : Relation.t;  (** initial partial (pivot ⋈ delta, filtered) *)
  in_auxes : (Maint_query.probe * Relation.t * Relation.t list) list;
      (** per swept alias: (probe, auxiliary data, the UMQ's pending-DU
          sums per delta schema, exclusion set already left out).  Sums
          with nothing left out are the queue's live ones: safe to ship,
          because nothing is delivered or dequeued while a pool batch
          computes. *)
}

let prepare_local (w : Query_engine.t) (sw : Maint_query.sweep)
    ~(delta : Relation.t) ~(exclude : int list) ~(local : local) :
    local_input option =
  try
    (* Coverage check up front: every non-pivot alias must have current
       auxiliary data carrying all the attributes its probe needs (the
       projection may legitimately carry more — counts sum out). *)
    let auxes =
      List.map
        (fun (p : Maint_query.probe) ->
          let tr = p.Maint_query.table in
          match local.aux tr.Query.alias with
          | None -> raise Exit
          | Some r ->
              let s = Relation.schema r in
              if
                not (List.for_all (Schema.mem s) p.Maint_query.needed)
              then raise Exit;
              (* Pending unmaintained DUs on the probed relation — all of
                 them, no answer-time cutoff: the auxiliary data already
                 reflects every delivered commit. *)
              ( p,
                r,
                List.map
                  (fun (g : Umq.pending_sum) -> g.sum)
                  (Query_engine.pending_sums w ~source:tr.Query.source
                     ~rel:tr.Query.rel ~exclude) ))
        sw.Maint_query.probes
    in
    Some
      {
        in_sweep = sw;
        in_planner = Query_engine.planner w;
        in_partial0 = Maint_query.start sw delta;
        in_auxes = auxes;
      }
  with Exit -> None

let compute_local (i : local_input) : (Relation.t * stats) option =
  try
    let partial = ref i.in_partial0 in
    if Relation.is_empty !partial then
      (* Filtered out locally — the probed path sends no probes either. *)
      Some (Relation.create (Maint_query.output_schema i.in_sweep), no_stats)
    else begin
      let stats = ref no_stats in
      List.iter
        (fun ((p : Maint_query.probe), aux_data, combineds) ->
          let answer =
            Eval.execute ~planner:i.in_planner p.Maint_query.local_plan
              [ aux_data; !partial ]
          in
          (* Wire-cost estimate for the round trip this replaced: the
             partial shipped out plus the answer shipped back, 8 bytes a
             field. *)
          let est r =
            8 * Relation.support r
            * List.length (Schema.attrs (Relation.schema r))
          in
          stats :=
            {
              !stats with
              probes_avoided = !stats.probes_avoided + 1;
              bytes_saved = !stats.bytes_saved + est !partial + est answer;
            };
          let compensated =
            List.fold_left
              (fun acc combined ->
                let contribution =
                  Eval.execute ~planner:i.in_planner p.Maint_query.plan
                    [ combined; !partial ]
                in
                if Relation.is_empty contribution then acc
                else begin
                  stats :=
                    {
                      !stats with
                      compensations = !stats.compensations + 1;
                      comp_tuples =
                        !stats.comp_tuples + Relation.mass contribution;
                    };
                  Relation.diff acc contribution
                end)
              answer combineds
          in
          partial := compensated)
        i.in_auxes;
      Some (Maint_query.finish i.in_sweep !partial, !stats)
    end
  with Eval.Error _ ->
    (* A local evaluation the probed path might survive (or surface as
       Broken, triggering correction) — fall back rather than guess. *)
    None

(* The span name of a local sweep; formatted only when spans record. *)
let local_span_name sp (sw : Maint_query.sweep) =
  if Dyno_obs.Span.enabled sp then
    Fmt.str "local:%s:%s" sw.Maint_query.view sw.Maint_query.pivot.Query.alias
  else ""

let record_local (w : Query_engine.t) ~(local : local) (i : local_input)
    ((_, st) : Relation.t * stats) : unit =
  let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
  let id =
    Dyno_obs.Span.begin_span sp ~time:(Query_engine.now w)
      Dyno_obs.Span.Local
      (local_span_name sp i.in_sweep)
  in
  Dyno_obs.Span.set_attr sp id "probes_avoided"
    (string_of_int st.probes_avoided);
  Dyno_obs.Span.end_span sp ~time:(Query_engine.now w) id;
  local.note_avoided ~probes:st.probes_avoided ~bytes:st.bytes_saved;
  let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
  if Dyno_obs.Lineage.enabled lin then
    Dyno_obs.Lineage.note_scope lin ~time:(Query_engine.now w)
      ~kind:"local-answer"
      ~detail:
        (Fmt.str
           "self-maintenance tier answered locally: %d probe(s) avoided, \
            %d byte(s) saved"
           st.probes_avoided st.bytes_saved)

let delta_view_local (w : Query_engine.t) (sw : Maint_query.sweep)
    ~(delta : Relation.t) ~(exclude : int list) ~(local : local) :
    (Relation.t * stats) option =
  match prepare_local w sw ~delta ~exclude ~local with
  | None -> None
  | Some input ->
      if Relation.is_empty input.in_partial0 then
        (* Filtered out locally — no span, matching the probed path which
           sends no probes either. *)
        Some (Relation.create (Maint_query.output_schema sw), no_stats)
      else begin
        match compute_local input with
        | Some ok ->
            record_local w ~local input ok;
            Some ok
        | None ->
            let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
            let sid =
              Dyno_obs.Span.begin_span sp ~time:(Query_engine.now w)
                Dyno_obs.Span.Local (local_span_name sp sw)
            in
            Dyno_obs.Span.set_attr sp sid "fallback" "true";
            Dyno_obs.Span.end_span sp ~time:(Query_engine.now w) sid;
            None
      end
