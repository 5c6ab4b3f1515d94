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
    if Rows.is_empty !partial then
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
             the answer.)  The sums are live; nothing below parks.  The
             answer is this sweep's own ({!Eval.execute_rows}'s
             contract); a non-empty contribution is subtracted from it,
             which consolidates it (hashed, in place once hashed). *)
          let pending =
            if not compensate then []
            else
              Query_engine.pending_sums w ~after:(answered_at +. 1e-12)
                ~source:tr.Query.source ~rel:tr.Query.rel ~exclude
          in
          let answer =
            List.fold_left
              (fun answer { Umq.sum; count; _ } ->
                match
                  Eval.execute_rows ~planner:(Query_engine.planner w) plan
                    [ Rows.of_relation sum; !partial ]
                with
                | contribution ->
                    if Rows.is_empty contribution then answer
                    else begin
                      let mass = Rows.mass contribution in
                      stats :=
                        {
                          !stats with
                          compensations = !stats.compensations + 1;
                          comp_tuples = !stats.comp_tuples + mass;
                        };
                      Dyno_sim.Trace.record trace
                        ~time:(Query_engine.now w) Dyno_sim.Trace.Compensate
                        (lazy
                          (Fmt.str
                             "removed %d tuple(s) of %d pending update(s) \
                              from probe %s"
                             mass count (Query.name probe)));
                      (* Compensation is local view-manager work, not
                         charged on the clock: a zero-duration span marks
                         where it happened inside the enclosing probe. *)
                      let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
                      let sid =
                        Dyno_obs.Span.begin_span sp
                          ~time:(Query_engine.now w)
                          Dyno_obs.Span.Compensate
                          (Lazy.from_val (Query.name probe))
                      in
                      Dyno_obs.Span.set_attr sp sid "tuples"
                        (string_of_int mass);
                      Dyno_obs.Span.end_span sp ~time:(Query_engine.now w)
                        sid;
                      Dyno_obs.Metrics.incr
                        (Dyno_obs.Obs.metrics (Query_engine.obs w))
                        ~by:mass "sweep.comp_tuples";
                      Rows.subtract answer contribution
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
          partial := answer)
        sw.Maint_query.probes;
      Ok (Maint_query.finish sw !partial, !stats)
    end
  with Failed f -> Error f

(** [delta_view_local w sw ~delta ~exclude ~local] — the self-maintenance
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
    no delivery can interleave mid-sweep even under parallel rounds, and
    the UMQ's live sums stay valid for the whole sweep.

    The work is local view-manager computation and is not charged on the
    simulated clock (same bargain as compensation); a {!Dyno_obs.Span.Local}
    span marks it so reports can split local vs probed cost. *)
let delta_view_local (w : Query_engine.t) (sw : Maint_query.sweep)
    ~(delta : Relation.t) ~(exclude : int list) ~(local : local) :
    (Relation.t * stats) option =
  (* Coverage check up front: every non-pivot alias must have current
     auxiliary data carrying all the attributes its probe needs (the
     projection may legitimately carry more — counts sum out).  Each
     covered alias comes with the pending unmaintained DUs on the probed
     relation — all of them, no answer-time cutoff: the auxiliary data
     already reflects every delivered commit. *)
  let rec cover acc = function
    | [] -> Some (List.rev acc)
    | (p : Maint_query.probe) :: rest -> (
        let tr = p.Maint_query.table in
        match local.aux tr.Query.alias with
        | Some r
          when List.for_all (Schema.mem (Relation.schema r)) p.Maint_query.needed
          ->
            let pending =
              Query_engine.pending_sums w ~source:tr.Query.source
                ~rel:tr.Query.rel ~exclude
            in
            cover ((p, r, pending) :: acc) rest
        | _ -> None)
  in
  match cover [] sw.Maint_query.probes with
  | None -> None
  | Some auxes ->
      let partial0 = Maint_query.start sw delta in
      if Rows.is_empty partial0 then
        (* Filtered out locally — no span, matching the probed path which
           sends no probes either. *)
        Some (Relation.create (Maint_query.output_schema sw), no_stats)
      else begin
        let planner = Query_engine.planner w in
        (* Wire-cost estimate for a round trip replaced: the partial
           shipped out plus the answer shipped back, 8 bytes a field. *)
        let est r =
          8 * Rows.support r * List.length (Schema.attrs (Rows.schema r))
        in
        let sweep () =
          let partial, st =
            List.fold_left
              (fun (partial, st) ((p : Maint_query.probe), aux_data, pending) ->
                let answer =
                  Eval.execute_rows ~planner
                    (Lazy.force p.Maint_query.local_plan)
                    [ Rows.of_relation aux_data; partial ]
                in
                let st =
                  {
                    st with
                    probes_avoided = st.probes_avoided + 1;
                    bytes_saved = st.bytes_saved + est partial + est answer;
                  }
                in
                (* The answer is ours: a non-empty contribution is
                   subtracted from it, which consolidates it. *)
                List.fold_left
                  (fun (answer, st) { Umq.sum; _ } ->
                    let contribution =
                      Eval.execute_rows ~planner p.Maint_query.plan
                        [ Rows.of_relation sum; partial ]
                    in
                    if Rows.is_empty contribution then (answer, st)
                    else
                      ( Rows.subtract answer contribution,
                        {
                          st with
                          compensations = st.compensations + 1;
                          comp_tuples = st.comp_tuples + Rows.mass contribution;
                        } ))
                  (answer, st) pending)
              (partial0, no_stats) auxes
          in
          (Maint_query.finish sw partial, st)
        in
        let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
        let mark key value =
          let id =
            Dyno_obs.Span.begin_span sp ~time:(Query_engine.now w)
              Dyno_obs.Span.Local sw.Maint_query.local_name
          in
          Dyno_obs.Span.set_attr sp id key value;
          Dyno_obs.Span.end_span sp ~time:(Query_engine.now w) id
        in
        match sweep () with
        | (_, st) as ok ->
            let probes = st.probes_avoided and bytes = st.bytes_saved in
            mark "probes_avoided" (string_of_int probes);
            local.note_avoided ~probes ~bytes;
            Dyno_obs.Lineage.note_scope
              (Dyno_obs.Obs.lineage (Query_engine.obs w))
              ~time:(Query_engine.now w) ~kind:"local-answer"
              ~detail:
                (lazy
                  (Fmt.str
                     "self-maintenance tier answered locally: %d probe(s) \
                      avoided, %d byte(s) saved"
                     probes bytes));
            Some ok
        | exception Eval.Error _ ->
            (* A local evaluation the probed path might survive (or
               surface as Broken, triggering correction) — fall back
               rather than guess. *)
            mark "fallback" "true";
            None
      end
