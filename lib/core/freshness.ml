(** Per-view freshness/staleness tracking.

    The question the paper's consistency levels do not answer is {e how
    far behind} the view runs while Dyno reorders, aborts and corrects.
    This tracker measures it, per view, against the sources' commit
    frontiers:

    - {b versions lag} — Σ over sources of (source commit version −
      applied version): how many committed updates the view has not yet
      integrated;
    - {b seconds staleness} at time [t] — [t − min over sources τ_s]
      where [τ_s] is the commit time of the {e oldest unapplied} commit
      of source [s] (and [t] itself when the view is caught up with
      [s]).  Equivalently: how long ago did the view stop being a
      faithful image of the source state?  Exactly 0 at quiescence.

    Both are monotone under maintenance: applying an update can only
    raise an applied frontier, which can only lower (never raise) the
    staleness read at a fixed instant.  {!note_applied} re-derives the
    lag before and after each frontier advance at the same [now] and
    counts any violation in the [freshness.monotonicity_violations]
    counter — the qcheck property in [test/test_obs.ml] pins it at 0.

    Every {!note_applied} also records the {e age} of the update being
    applied ([now − commit_time]) into the [view.<name>.staleness_s] and
    aggregate [staleness_s] histograms (versions lag likewise into
    [*.staleness_versions]), so [dyno report] can print p50/p90/p99
    staleness even without the sampler; the {!register_probes} gauges
    feed the {!Dyno_obs.Timeseries} sampler for staleness-over-time.

    The tracker is pure bookkeeping: it never touches the simulated
    clock, the trace or the spans, so it cannot perturb a run.  Its
    per-view metric keys are built once, in {!create}; with the registry
    disabled {!note_applied} only advances the frontier. *)

open Dyno_view

type src = {
  ds : Dyno_source.Data_source.t;
  mutable applied : int;  (** highest source version the view reflects *)
}

type t = {
  metrics : Dyno_obs.Metrics.t;
  view : string;
  staleness_key : string;  (** [view.<name>.staleness_s] *)
  versions_key : string;  (** [view.<name>.staleness_versions] *)
  sources : (string * src) list;  (** sorted by source id *)
}

(* The view's applied baseline for a source: everything committed before
   the run start is part of the initial materialization — except commits
   whose messages are already sitting in the UMQ unmaintained, which are
   exactly the queue's business.  (Messages still on the wire surface
   later through [note_applied]'s max semantics.) *)
let baseline ds queued =
  let id = Dyno_source.Data_source.id ds in
  let min_queued =
    List.fold_left
      (fun acc m ->
        if String.equal (Update_msg.source m) id then
          match acc with
          | None -> Some (Update_msg.source_version m)
          | Some s -> Some (min s (Update_msg.source_version m))
        else acc)
      None queued
  in
  match min_queued with
  | Some s -> s - 1
  | None -> Dyno_source.Data_source.version ds

(** [create ~metrics ~mv ~registry ~queued ()] — [queued] is the list of
    messages already admitted to the UMQ at tracker creation (their
    versions count as unapplied; everything older is the initial
    materialization's baseline). *)
let create ~metrics ~mv ~registry ~queued () =
  let view = View_def.name (Mat_view.def mv) in
  let sources =
    Dyno_source.Registry.sources registry
    |> List.map (fun ds ->
           (Dyno_source.Data_source.id ds, { ds; applied = baseline ds queued }))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    metrics;
    view;
    staleness_key = Fmt.str "view.%s.staleness_s" view;
    versions_key = Fmt.str "view.%s.staleness_versions" view;
    sources;
  }

(** Committed-but-unapplied updates, summed over sources. *)
let lag_versions t =
  List.fold_left
    (fun acc (_, s) ->
      acc + max 0 (Dyno_source.Data_source.version s.ds - s.applied))
    0 t.sources

(** Seconds since the view last was a faithful image of every source
    (0 when caught up). *)
let staleness_seconds t ~now =
  let tau =
    List.fold_left
      (fun acc (_, s) ->
        if Dyno_source.Data_source.version s.ds > s.applied then
          match
            Dyno_source.Data_source.commit_time_of_version s.ds (s.applied + 1)
          with
          | Some ct -> Float.min acc ct
          | None -> acc
        else acc)
      now t.sources
  in
  now -. tau

(** [note_applied t ~now ~source ~version ~commit_time] — the view now
    reflects [source] up to [version] (committed at [commit_time]).
    Called by the schedulers at every path that integrates a message:
    refresh, irrelevant-commit, batch adaptation, view-undefined drop. *)
let note_applied t ~now ~source ~version ~commit_time =
  match List.assoc source t.sources with
  | exception Not_found -> ()
  | s when not (Dyno_obs.Metrics.enabled t.metrics) ->
      if version > s.applied then s.applied <- version
  | s ->
      let before_s = staleness_seconds t ~now in
      let before_v = lag_versions t in
      if version > s.applied then s.applied <- version;
      let after_s = staleness_seconds t ~now in
      if after_s > before_s +. 1e-9 then
        Dyno_obs.Metrics.incr t.metrics "freshness.monotonicity_violations";
      let age = Float.max 0.0 (now -. commit_time) in
      Dyno_obs.Metrics.observe t.metrics t.staleness_key age;
      Dyno_obs.Metrics.observe t.metrics "staleness_s" age;
      Dyno_obs.Metrics.observe t.metrics t.versions_key (float_of_int before_v);
      Dyno_obs.Metrics.observe t.metrics "staleness_versions"
        (float_of_int before_v)

(** [note_entry t ~now msgs] — {!note_applied} for every message of a
    maintained queue entry. *)
let note_entry t ~now msgs =
  List.iter
    (fun m ->
      note_applied t ~now ~source:(Update_msg.source m)
        ~version:(Update_msg.source_version m)
        ~commit_time:(Update_msg.commit_time m))
    msgs

(** [register_probes t series] — per-view staleness gauges plus
    per-source commit/applied frontiers for the time-series sampler.
    Frontier probes are [`Counter]-kinded, so the sampler derives
    per-source commit and apply rates for free. *)
let register_probes t series =
  let open Dyno_obs in
  Timeseries.probe series t.staleness_key (fun now ->
      staleness_seconds t ~now);
  Timeseries.probe series t.versions_key (fun _ ->
      float_of_int (lag_versions t));
  List.iter
    (fun (id, s) ->
      Timeseries.probe series ~kind:`Counter (Fmt.str "src.%s.version" id)
        (fun _ -> float_of_int (Dyno_source.Data_source.version s.ds));
      Timeseries.probe series ~kind:`Counter
        (Fmt.str "view.%s.applied.%s" t.view id)
        (fun _ -> float_of_int s.applied))
    t.sources
