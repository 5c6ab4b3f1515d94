(** Dyno: the dynamic reordering scheduler (Figure 6) — one dispatch core
    over the queues, the views and the round width (see scheduler.mli).

    The main loop processes the queue heads forever:

    + pre-exec detection: (pessimistic only) if the schema-change flag is
      set, build the dependency graph and correct the queue into a legal
      order (merging cycles);
    + maintain the head entry: VM for a data update, VS+VA for a schema
      change, batch adaptation for a merged node;
    + if the maintenance aborted on a broken query (in-exec detection),
      leave the entry queued and correct: the pessimistic strategy picks
      the conflict up via the schema-change flag on the next iteration,
      the optimistic strategy runs detection+correction right now, and the
      merge-all strawman collapses the whole queue;
    + otherwise remove the head and continue.

    The loop runs until both the queues and the timeline of future source
    commits are drained (a real deployment runs forever; experiments have
    finite workloads).

    The core runs over three inputs: the queues (the engine's routes —
    one, or one per shard), the views (one, or several for multi-view),
    and the round width [config.parallel].  Several shard
    queues cannot be rewritten by a correction, so they detect and correct
    at a cross-shard barrier instead — for every strategy, since a
    schema change's dependencies may reach other shards' queues. *)

open Dyno_view
open Dyno_sim

exception Step_limit_exceeded of int

type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

(* What one maintenance step did to the views: [account] counts it and
   [terminal] ends the updates' lineage with it. *)
type result =
  | Refreshed of Dyno_vm.Sweep.stats  (** a data update swept and refreshed *)
  | Rematerialized  (** a data update, the view recomputed *)
  | Irrelevant of int  (** one data update, or a group of [n], off the view *)
  | Adapted_sc  (** a schema change, VS + VA *)
  | Adapted_batch of int  (** a merged batch of [n], adapted atomically *)
  | Grouped of int * int list * Dyno_vm.Sweep.stats
      (** [n] data updates swept as one, the listed ones off the view *)
  | Undefined  (** a schema change left the view undefined *)
  | Dropped of int  (** the view is undefined: [n] updates acknowledged *)
  | Integrated of int  (** each of a view set's [n] views has the entry *)
  | Aborted of Dyno_source.Data_source.broken
  | Unreachable of Dyno_net.Retry.unreachable

let outcome = function
  | Aborted b -> AbortedStep b
  | Unreachable u -> UnreachableStep u
  | _ -> Done

(* The one place a maintained step reaches the per-update counters.  A
   view set's entry was counted view by view. *)
let account (stats : Stats.t) (r : result) : unit =
  (match r with
  | Refreshed s | Grouped (_, _, s) ->
      stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
      stats.Stats.compensations <-
        stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
      stats.Stats.probes_avoided <-
        stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
      stats.Stats.bytes_saved <-
        stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved
  | _ -> ());
  match r with
  | Refreshed _ | Rematerialized ->
      stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
      stats.Stats.view_commits <- stats.Stats.view_commits + 1
  | Adapted_sc ->
      stats.Stats.sc_maintained <- stats.Stats.sc_maintained + 1;
      stats.Stats.view_commits <- stats.Stats.view_commits + 1
  | Adapted_batch n ->
      stats.Stats.batches <- stats.Stats.batches + 1;
      stats.Stats.batch_updates <- stats.Stats.batch_updates + n;
      stats.Stats.view_commits <- stats.Stats.view_commits + 1
  | Grouped (n, off, _) ->
      let off = List.length off in
      stats.Stats.batches <- stats.Stats.batches + 1;
      stats.Stats.batch_updates <- stats.Stats.batch_updates + n - off;
      stats.Stats.irrelevant <- stats.Stats.irrelevant + off;
      stats.Stats.view_commits <- stats.Stats.view_commits + 1
  | Irrelevant n | Dropped n ->
      stats.Stats.irrelevant <- stats.Stats.irrelevant + n
  | Undefined -> stats.Stats.view_undefined <- true
  | Integrated _ | Aborted _ | Unreachable _ -> ()

let finish w ~ids state detail =
  Dyno_obs.Lineage.finish (Dyno_obs.Obs.lineage (Query_engine.obs w)) ~ids
    ~time:(Query_engine.now w) ~state ~detail

(* The one place a maintained step ends its updates' lineage: [r] in
   words.  [how] places a refresh (a round's). *)
let terminal (w : Query_engine.t) ~(ids : int list) ~(how : string)
    (r : result) : unit =
  let applied = Dyno_obs.Lineage.Applied
  and irrelevant = Dyno_obs.Lineage.Irrelevant in
  if Dyno_obs.Lineage.enabled (Dyno_obs.Obs.lineage (Query_engine.obs w)) then
    match r with
    | Refreshed s ->
        let probes = s.Dyno_vm.Sweep.probes
        and comps = s.Dyno_vm.Sweep.compensations in
        finish w ~ids applied
          (lazy
            (Fmt.str "view refreshed%s (%d probe(s), %d compensation(s))" how
               probes comps))
    | Rematerialized -> finish w ~ids applied (lazy "view re-materialized")
    | Irrelevant 1 -> finish w ~ids irrelevant (lazy "no pivot row in the view")
    | Irrelevant _ ->
        finish w ~ids irrelevant
          (lazy "grouped sweep: no pivot rows in the view")
    | Adapted_sc -> finish w ~ids applied (lazy "view adapted (VS + VA)")
    | Adapted_batch n ->
        finish w ~ids applied
          (lazy (Fmt.str "batch of %d adapted atomically" n))
    | Grouped (n, [], _) ->
        finish w ~ids applied
          (lazy (Fmt.str "grouped sweep of %d applied atomically" n))
    | Grouped (n, off, _) ->
        finish w
          ~ids:(List.filter (fun id -> not (List.mem id off)) ids)
          applied
          (lazy (Fmt.str "grouped sweep of %d applied atomically" n));
        finish w ~ids:off irrelevant
          (lazy "grouped sweep: no relation of the view")
    | Undefined ->
        finish w ~ids applied (lazy "schema change left the view undefined")
    | Dropped _ ->
        finish w ~ids Dyno_obs.Lineage.Dropped_undefined
          (lazy "view undefined; update acknowledged and dropped")
    | Integrated n ->
        finish w ~ids applied (lazy (Fmt.str "integrated by all %d view(s)" n))
    | Aborted _ | Unreachable _ -> ()

(* VS + VA for a schema change, or batch adaptation for a merged node. *)
let adapt ?applied w mv mk (msgs : Update_msg.t list) : result =
  match (Dyno_va.Batch.maintain ?applied w mv mk msgs, msgs) with
  | Dyno_va.Batch.Adapted, [ _ ] -> Adapted_sc
  | Dyno_va.Batch.Adapted, _ -> Adapted_batch (List.length msgs)
  | Dyno_va.Batch.Aborted b, _ -> Aborted b
  | Dyno_va.Batch.Unreachable u, _ -> Unreachable u
  | Dyno_va.Batch.View_undefined _, _ -> Undefined

(* The one-view maintainer: maintain [entry] against [mv] and say what it
   did.  [local] is the self-maintenance hook; [applied] (a view set's)
   lists the messages this view already integrated, skipped here and kept
   in by compensation. *)
let maintain_view ?applied ?local ~(compensate : bool)
    ~(vm_mode : Run_config.vm_mode) (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) (entry : Umq.entry) : result =
  let msgs =
    match applied with
    | None -> Umq.entry_messages entry
    | Some a ->
        List.filter
          (fun m -> not (List.mem (Update_msg.id m) a))
          (Umq.entry_messages entry)
  in
  if not (View_def.is_valid (Mat_view.def mv)) then begin
    Trace.record (Query_engine.trace w) ~time:(Query_engine.now w) Trace.Info
      (lazy (Fmt.str "view undefined; dropping %a" Umq.pp_entry entry));
    Dropped (List.length msgs)
  end
  else
    match msgs with
    | [ m ] -> (
        match Update_msg.payload m with
        | Update_msg.Du _ when vm_mode = Run_config.Recompute -> (
            match
              Dyno_va.Adapt.replace_extent w mv
                ~maintained:[ Update_msg.id m ]
                ~exclude:[ Update_msg.id m ]
            with
            | Ok () -> Rematerialized
            | Error (Query_engine.Broken b) -> Aborted b
            | Error (Query_engine.Unreachable u) -> Unreachable u)
        | Update_msg.Du u -> (
            match Dyno_vm.Vm.maintain ~compensate ?applied ?local w mv m u with
            | Dyno_vm.Vm.Refreshed { stats; _ } -> Refreshed stats
            | Dyno_vm.Vm.Irrelevant -> Irrelevant 1
            | Dyno_vm.Vm.Aborted b -> Aborted b
            | Dyno_vm.Vm.Unreachable u -> Unreachable u)
        | Update_msg.Sc _ -> adapt ?applied w mv mk msgs)
    | _ -> adapt ?applied w mv mk msgs

(* Trace the start of [entry]'s maintenance and charge the probes it
   issues to its updates (the ambient lineage scope). *)
let start_entry (w : Query_engine.t) ~(ids : int list) (entry : Umq.entry) =
  Dyno_obs.Lineage.set_scope (Dyno_obs.Obs.lineage (Query_engine.obs w)) ids;
  Trace.record (Query_engine.trace w) ~time:(Query_engine.now w)
    Trace.Maint_start (lazy (Fmt.str "%a" Umq.pp_entry entry))

(* One entry against one view, counted and ended: the dispatch core's
   head step, as a public call. *)
let maintain_entry ?local ~compensate ~vm_mode w mv mk (stats : Stats.t) entry
    : step_outcome =
  let ids = Umq.entry_ids entry in
  start_entry w ~ids entry;
  let r = maintain_view ?local ~compensate ~vm_mode w mv mk entry in
  account stats r;
  terminal w ~ids ~how:"" r;
  outcome r

(* A maintenance step stalled on an unreachable source: charge the sunk
   work as busy (it is NOT thrown away — the entry stays queued and is
   re-run), wait for recovery, and let the loop retry.  Unlike an abort,
   no correction runs: the queue order is not the problem. *)
let stall_and_wait (w : Query_engine.t) (stats : Stats.t) ~(t0 : float)
    (u : Dyno_net.Retry.unreachable) : unit =
  let trace = Query_engine.trace w in
  let dt = Query_engine.now w -. t0 in
  stats.Stats.busy <- stats.Stats.busy +. dt;
  stats.Stats.net_stalls <- stats.Stats.net_stalls + 1;
  Trace.record trace ~time:(Query_engine.now w) Trace.Outage
    (lazy
      (Fmt.str "maintenance stalled: %a; waiting for recovery"
         Dyno_net.Retry.pp_unreachable u));
  Dyno_obs.Metrics.incr
    (Dyno_obs.Obs.metrics (Query_engine.obs w))
    "net.stalls";
  let waited =
    Dyno_obs.Span.with_span
      (Dyno_obs.Obs.spans (Query_engine.obs w))
      ~now:(fun () -> Query_engine.now w)
      Dyno_obs.Span.Stall
      (lazy (Fmt.str "stall on %s" u.Dyno_net.Retry.source))
      (fun _ -> Query_engine.await_recovery w ~source:u.Dyno_net.Retry.source)
  in
  stats.Stats.busy <- stats.Stats.busy +. waited

(* Name the schema change behind a broken query: in-exec detection only
   diagnoses the query, so the lineage narrative looks up the queued SC
   from the broken source — the conflict the correction will resolve.
   The live queue is searched now; the detail captures only the found
   message. *)
let abort_provenance (umq : Umq.t) (b : Dyno_source.Data_source.broken) :
    string Lazy.t =
  let sc =
    List.find_opt
      (fun m ->
        Update_msg.is_sc m
        && String.equal (Update_msg.source m) b.Dyno_source.Data_source.source)
      (Umq.messages umq)
  in
  lazy
    (match sc with
    | Some m ->
        Fmt.str "broken query %s (%s); aborting SC #%d at %s"
          b.Dyno_source.Data_source.query_name
          b.Dyno_source.Data_source.reason (Update_msg.id m)
          b.Dyno_source.Data_source.source
    | None ->
        Fmt.str "broken query %s at %s: %s"
          b.Dyno_source.Data_source.query_name
          b.Dyno_source.Data_source.source b.Dyno_source.Data_source.reason)

(* ---- Self-maintenance tier wiring ---- *)

(* Build a view's auxiliary store against this engine: projections are
   seeded (and re-seeded after schema-change invalidation) from each
   source's forward replica at the per-source delivered frontier — the
   exact historical state, never the live one, which may hold committed
   but undelivered updates neither maintenance path is allowed to see.
   The frontier never decreases, so the replica only rolls forward. *)
let aux_store (w : Query_engine.t) (mv : Mat_view.t) :
    Dyno_selfmaint.Aux_store.t =
  let registry = Query_engine.registry w in
  let lookup ~source ~rel ~version =
    match Dyno_source.Registry.find_opt registry source with
    | None -> None
    | Some ds -> (
        try Some (Dyno_source.Data_source.relation_at ds ~version rel)
        with _ -> None)
  in
  let history = List.concat_map Umq.history (Query_engine.umqs w) in
  let frontier source =
    List.fold_left
      (fun acc m ->
        if String.equal (Update_msg.source m) source then
          max acc (Update_msg.source_version m)
        else acc)
      0 history
  in
  let refresh_cost ~delta_tuples =
    Cost_model.refresh (Query_engine.cost w) ~delta_tuples
  in
  Dyno_selfmaint.Aux_store.create
    ~obs:(Query_engine.obs w)
    ~lookup ~frontier ~refresh_cost mv

(* ---- End-of-run bookkeeping ---- *)

(* Copy the engine- and queue-level transport counters into the run's
   statistics (absolute values: one engine drives one run). *)
let record_net_stats (w : Query_engine.t) (stats : Stats.t) : unit =
  stats.Stats.retries <- Query_engine.net_retries w;
  stats.Stats.timeouts <- Query_engine.net_timeouts w;
  stats.Stats.net_wait <- Query_engine.net_wait w;
  stats.Stats.msgs_lost <- Query_engine.net_msgs_lost w;
  stats.Stats.msgs_duplicated <- Query_engine.net_msgs_duplicated w;
  stats.Stats.dups_dropped <- Query_engine.umq_dups_dropped w;
  stats.Stats.reorders_healed <- Query_engine.umq_reorders_healed w

(* Mirror the run's final statistics into the metrics registry, so the
   exported metrics JSON is self-contained.  Live counters ([net.*],
   [umq.*], [vm.*]) are incremented where they happen; this adds the
   scheduler-level totals under [sched.*]. *)
let mirror_stats (obs : Dyno_obs.Obs.t) (stats : Stats.t) : unit =
  let mx = Dyno_obs.Obs.metrics obs in
  if Dyno_obs.Metrics.enabled mx then begin
    Dyno_obs.Metrics.set_gauge mx "sched.busy_s" stats.Stats.busy;
    Dyno_obs.Metrics.set_gauge mx "sched.abort_cost_s" stats.Stats.abort_cost;
    Dyno_obs.Metrics.set_gauge mx "sched.idle_s" stats.Stats.idle;
    Dyno_obs.Metrics.set_gauge mx "sched.end_time_s" stats.Stats.end_time;
    Dyno_obs.Metrics.set_gauge mx "sched.net_wait_s" stats.Stats.net_wait;
    Dyno_obs.Metrics.set_gauge mx "sched.stall_ratio"
      (if stats.Stats.end_time > 0.0 then
         stats.Stats.net_wait /. stats.Stats.end_time
       else 0.0);
    Dyno_obs.Metrics.set_counter mx "sched.du_maintained"
      stats.Stats.du_maintained;
    Dyno_obs.Metrics.set_counter mx "sched.sc_maintained"
      stats.Stats.sc_maintained;
    Dyno_obs.Metrics.set_counter mx "sched.batches" stats.Stats.batches;
    Dyno_obs.Metrics.set_counter mx "sched.irrelevant" stats.Stats.irrelevant;
    Dyno_obs.Metrics.set_counter mx "sched.aborts" stats.Stats.aborts;
    Dyno_obs.Metrics.set_counter mx "sched.broken_queries"
      stats.Stats.broken_queries;
    Dyno_obs.Metrics.set_counter mx "sched.detections" stats.Stats.detections;
    Dyno_obs.Metrics.set_counter mx "sched.corrections"
      stats.Stats.corrections;
    Dyno_obs.Metrics.set_counter mx "sched.merges" stats.Stats.merges;
    Dyno_obs.Metrics.set_counter mx "sched.probes" stats.Stats.probes;
    Dyno_obs.Metrics.set_counter mx "sched.compensations"
      stats.Stats.compensations;
    Dyno_obs.Metrics.set_counter mx "sched.view_commits"
      stats.Stats.view_commits;
    (* Self-maintenance totals: only when the tier actually fired, so
       baseline metric exports keep their historical key set. *)
    if stats.Stats.probes_avoided > 0 then begin
      Dyno_obs.Metrics.set_counter mx "sched.probes_avoided"
        stats.Stats.probes_avoided;
      Dyno_obs.Metrics.set_counter mx "sched.bytes_saved"
        stats.Stats.bytes_saved
    end
  end

(* ---- The dispatch core ---- *)

(* One view of the run.  [applied] is used by view sets only: the queued
   message ids this view already integrated while a later view broke, so
   a retry (possibly inside a larger merged batch) redoes only what is
   missing. *)
type view = {
  mv : Mat_view.t;
  mutable applied : int list;
  store : Dyno_selfmaint.Aux_store.t option;
  local : Dyno_vm.Sweep.local option;
  fresh : Freshness.t;
}

(* A round's texts depend only on its size and on each member's shard
   (several queues) or slot (one queue), so they are built once per size
   and rendered when read. *)
type round_texts = {
  round_name : string Lazy.t;  (** the round's Maintain span name *)
  dispatched : string Lazy.t array;
      (** each member's lineage dispatch detail, by shard or by slot *)
}

type core = {
  config : Run_config.t;
  w : Query_engine.t;
  mk : Dyno_source.Meta_knowledge.t;
  stats : Stats.t;
  umqs : Umq.t array;  (** one queue, or one per shard *)
  owner : string -> int;  (** index of the queue a source's updates ride *)
  shard_busy : string array;  (** per-queue [shard.<i>.busy_s] metric keys *)
  rounds : (int, round_texts) Hashtbl.t;  (** by round size *)
  views : view list;
  sp : Dyno_obs.Span.recorder;
  mx : Dyno_obs.Metrics.t;
  lin : Dyno_obs.Lineage.t;
  mutable steps : int;
  mutable aborted : float;
      (** abort time charged in the current iteration (a barrier may
          settle several aborted steps under one Maintain span) *)
  mutable force_barrier : bool;
      (** several queues: an abort waits for the next cross-shard barrier *)
}

let now c = Query_engine.now c.w
let sharded c = Array.length c.umqs > 1
let queue_of c src = c.umqs.(c.owner src)
let clear_broken c = Array.iter Umq.clear_broken_query_flag c.umqs

let tick c =
  c.steps <- c.steps + 1;
  if c.steps > c.config.max_steps then raise (Step_limit_exceeded c.steps)

(* Global arrival order: message ids are drawn from one shared counter
   across every shard's queue (Umq.create ~ids), so the minimum id of an
   entry totally orders the union of the queues; the source name breaks
   ties defensively for worlds built without a shared counter. *)
let entry_min_id e =
  match Umq.entry_ids e with
  | [] -> max_int
  | ids -> List.fold_left min max_int ids

let entry_source e =
  match Umq.entry_messages e with [] -> "" | m :: _ -> Update_msg.source m

let compare_arrival a b =
  match compare (entry_min_id a) (entry_min_id b) with
  | 0 -> String.compare (entry_source a) (entry_source b)
  | c -> c

(* The union of per-queue lists in global arrival order.  Shard queues
   are never rewritten, so each is already in arrival order and a merge
   orders the union; one queue keeps its own (corrected) order. *)
let merge_queues c cmp f =
  Array.fold_left (fun acc q -> List.merge cmp acc (f q)) [] c.umqs

(* Every view integrated these messages: advance the freshness
   frontiers. *)
let note_fresh c msgs =
  let now = now c in
  List.iter (fun v -> Freshness.note_entry v.fresh ~now msgs) c.views

(* -- detection and correction -- *)

(* Build the dependency graph over [entries] against every valid view — a
   schema change induces concurrent dependencies as soon as it conflicts
   with any of them, so the corrected order is legal for all — and charge
   the pass. *)
let detect c (entries : Umq.entry list) : Dep_graph.t =
  let specs =
    List.filter_map
      (fun v ->
        let vd = Mat_view.def v.mv in
        if View_def.is_valid vd then Some (View_def.peek vd, View_def.schemas vd)
        else None)
      c.views
  in
  let g =
    Dyno_obs.Span.with_span c.sp
      ~now:(fun () -> now c)
      Dyno_obs.Span.Detect
      (lazy (Fmt.str "detect %d node(s)" (List.length entries)))
      (fun _ ->
        let td = now c in
        let g = Dep_graph.build_many specs entries in
        let m =
          List.length
            (List.filter Update_msg.is_sc
               (List.concat_map Umq.entry_messages entries))
        in
        Query_engine.advance c.w
          (Cost_model.detect (Query_engine.cost c.w)
             ~n:(Dep_graph.size g * max 1 (List.length specs))
             ~m);
        Dyno_obs.Metrics.observe c.mx "detect.pass_s" (now c -. td);
        g)
  in
  c.stats.Stats.detections <- c.stats.Stats.detections + 1;
  Trace.record (Query_engine.trace c.w) ~time:(now c) Trace.Detect
    (lazy
      (Fmt.str "graph: %d node(s), %d edge(s), %d unsafe" (Dep_graph.size g)
         (List.length (Dep_graph.edges g))
         (Dep_graph.unsafe_count g)));
  g

(* Record and charge the correction of [g] that reported [r]; [note] is
   the Correct trace entry for a changed order.  Every unsafe edge (the
   ones forcing the reorder) lands on the dependent updates' lineage
   records before the merges. *)
let correct c ~(note : string Lazy.t) (g : Dep_graph.t) (r : Correct.report) :
    unit =
  let trace = Query_engine.trace c.w in
  Dyno_obs.Span.with_span c.sp
    ~now:(fun () -> now c)
    Dyno_obs.Span.Correct (lazy "correct")
    (fun cid ->
      let tc = now c in
      List.iter
        (fun e ->
          Dyno_obs.Lineage.edge c.lin
            ~dep_ids:(Dep_graph.edge_dependent_ids g e)
            ~time:tc ~detail:(Dep_graph.describe_edge g e))
        (Dep_graph.unsafe g);
      List.iter
        (fun ids ->
          Dyno_obs.Lineage.merged c.lin ~ids ~time:tc
            ~detail:
              (lazy
                (Fmt.str "dependency cycle merged: %d update(s) now one batch"
                   (List.length ids))))
        r.Correct.merged_members;
      Query_engine.advance c.w
        (Cost_model.correct (Query_engine.cost c.w) ~nodes:r.Correct.nodes
           ~edges:r.Correct.edges);
      Dyno_obs.Metrics.observe c.mx "correct.pass_s" (now c -. tc);
      Dyno_obs.Span.set_attr c.sp cid "reordered"
        (string_of_bool r.Correct.reordered);
      if r.Correct.reordered then begin
        c.stats.Stats.corrections <- c.stats.Stats.corrections + 1;
        Trace.record trace ~time:(now c) Trace.Correct note
      end;
      if r.Correct.merged_cycles > 0 then begin
        c.stats.Stats.merges <- c.stats.Stats.merges + r.Correct.merged_cycles;
        Trace.record trace ~time:(now c) Trace.Merge
          (lazy
            (Fmt.str "%d cycle(s) merged (%d update(s))"
               r.Correct.merged_cycles r.Correct.merged_updates))
      end)

(* Merge-all provenance: one Merge entry per collapse, and the members
   gain a parent link to the batch's oldest update (a causal rebirth). *)
let note_merge_all c (r : Correct.report) : unit =
  if r.Correct.reordered then begin
    c.stats.Stats.corrections <- c.stats.Stats.corrections + 1;
    c.stats.Stats.merges <- c.stats.Stats.merges + 1;
    Trace.record (Query_engine.trace c.w) ~time:(now c) Trace.Merge
      (lazy
        (Fmt.str "merge-all: %d update(s) collapsed" r.Correct.merged_updates));
    List.iter
      (fun ids ->
        Dyno_obs.Lineage.merged c.lin ~ids ~time:(now c)
          ~detail:
            (lazy
              (Fmt.str "merge-all: %d update(s) collapsed into one batch"
                 (List.length ids))))
      r.Correct.merged_members
  end

(* One queue's detection + correction, rewriting the queue in place: the
   pessimistic pre-exec pass (Test_If_True_Set_False of Figure 6, line 1 —
   O(1) while the schema-change flag is clear) or, with [force], the
   in-exec correction after a broken query, which consumes the flag too. *)
let detect_and_correct c ~(force : bool) : unit =
  let umq = c.umqs.(0) in
  let t0 = now c in
  if Umq.test_and_clear_schema_change_flag umq || force then
    let g = detect c (Umq.entries umq) in
    correct c ~note:(lazy "queue reordered into a legal order") g
      (Correct.apply umq g)
  else
    (* Flag fast path: no span — it would swamp the trace with one flag
       check per iteration. *)
    Query_engine.advance c.w (Query_engine.cost c.w).Cost_model.detect_flag;
  c.stats.Stats.busy <- c.stats.Stats.busy +. (now c -. t0)

(* -- outcomes -- *)

(* Charge one dispatched step's outcome — the one place Done, stalled and
   aborted steps are accounted.  Done adds the step to busy time and
   counts it as an episode of [kind] when it [changed] a view.  A stall
   charges the sunk work and waits out the outage; the entry stays queued
   and its retry is the episode.  An abort is an episode: it charges the
   wasted work as abort cost, names the conflicting schema change, and
   runs the strategy's correction: with one queue it rewrites the queue,
   with several the next iteration is a cross-shard barrier.  [mid] is the
   iteration's Maintain span: it carries the last step's outcome and the
   iteration's total abort time. *)
let settle c ~mid ~(t0 : float) ~(what : string) ~(ids : int list)
    ~(kind : Stats.episode_kind) ~(changed : bool) (outcome : step_outcome) :
    unit =
  let stats = c.stats in
  match outcome with
  | Done ->
      let dt = now c -. t0 in
      Dyno_obs.Span.set_attr c.sp mid "outcome" "done";
      stats.Stats.busy <- stats.Stats.busy +. dt;
      if changed then Stats.note_episode stats kind ~aborted:false dt
  | UnreachableStep u ->
      Dyno_obs.Span.set_attr c.sp mid "outcome" "stalled";
      stall_and_wait c.w stats ~t0 u;
      Dyno_obs.Lineage.stall c.lin ~ids ~time:(now c)
        ~detail:(lazy (Fmt.str "%a" Dyno_net.Retry.pp_unreachable u))
  | AbortedStep b -> (
      let dt = now c -. t0 in
      stats.Stats.busy <- stats.Stats.busy +. dt;
      stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
      stats.Stats.aborts <- stats.Stats.aborts + 1;
      stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
      Stats.note_episode stats kind ~aborted:true dt;
      c.aborted <- c.aborted +. dt;
      Dyno_obs.Span.set_attr c.sp mid "outcome" "aborted";
      Dyno_obs.Span.set_attr c.sp mid "abort_s" (Fmt.str "%.17g" c.aborted);
      Trace.record (Query_engine.trace c.w) ~time:(now c) Trace.Abort
        (lazy
          (Fmt.str "%s aborted after %.3f s: %a" what dt
             Dyno_source.Data_source.pp_broken b));
      Dyno_obs.Lineage.abort c.lin ~ids ~time:(now c)
        ~detail:
          (abort_provenance (queue_of c b.Dyno_source.Data_source.source) b);
      if sharded c then c.force_barrier <- true
      else
        match c.config.strategy with
        | Strategy.Pessimistic ->
            (* The SC that broke us set the schema-change flag when it was
               enqueued; the next iteration's pre-exec pass will correct
               the queue (Figure 6: "corrected in the next loop").
               Defensive: if the flag is somehow already consumed, force a
               correction now rather than retry the same doomed head
               forever. *)
            if not (Umq.peek_schema_change_flag c.umqs.(0)) then
              detect_and_correct c ~force:true
        | Strategy.Optimistic ->
            (* In-exec detection is the only mechanism: correct now. *)
            detect_and_correct c ~force:true
        | Strategy.Merge_all -> note_merge_all c (Correct.merge_all c.umqs.(0)))

(* -- rounds -- *)

(* One round member: a data update swept against one view. *)
type member = {
  view : view;
  msg : Update_msg.t;
  du : Dyno_relational.Update.t;
  exclude : int list;  (** exclusion set frozen at dispatch *)
  thread : string;  (** span thread of the member's sweep task *)
}

(* One concurrent round — an antichain of one view's data updates, one
   data update across the views of a set, or every shard's prefix.  The
   sweeps, probe round trips included, run as cooperative executor tasks
   and overlap on the wire.  Refreshes then commit serially at the
   barrier, in member order, stopping at the first failed member; each
   commit is counted, then [commit] runs.  Later members' results
   are discarded: exclusion sets were fixed at dispatch, so a re-sweep
   compensates correctly.  Returns how many members committed and the
   first failure ([Done] when every member committed). *)
let round c ~(commit : member -> result -> unit)
    (members : member list) : int * step_outcome =
  let members = Array.of_list members in
  let k = Array.length members in
  Dyno_obs.Metrics.set_gauge c.mx "sched.inflight" (float_of_int k);
  Dyno_obs.Metrics.observe c.mx "sched.antichain_size" (float_of_int k);
  let t0 = now c in
  let results = Array.make k None in
  let spent = Array.make k 0.0 in
  let thunks =
    List.mapi
      (fun i mb () ->
        Dyno_obs.Span.with_span c.sp
          ~now:(fun () -> now c)
          ~thread:mb.thread Dyno_obs.Span.Task
          (let id = Update_msg.id mb.msg in
           lazy (Fmt.str "maintain #%d" id))
          (fun _ ->
            (* Scope this task's context to its update so probe
               round-trips land on the right lineage record. *)
            Dyno_obs.Lineage.set_scope c.lin [ Update_msg.id mb.msg ];
            let ts = now c in
            results.(i) <-
              Some
                (Dyno_vm.Vm.maintain_sweep ~compensate:c.config.compensate
                   ~applied:mb.view.applied ~exclude_extra:mb.exclude
                   ?local:mb.view.local c.w mb.view.mv mb.msg mb.du);
            spent.(i) <- now c -. ts))
      (Array.to_list members)
  in
  Executor.run_all (Query_engine.executor c.w) thunks;
  if sharded c then
    Array.iteri
      (fun i mb ->
        Dyno_obs.Metrics.add_gauge c.mx
          c.shard_busy.(c.owner (Update_msg.source mb.msg))
          spent.(i))
      members;
  let rec commit_from i =
    if i = k then (k, Done)
    else
      let mb = members.(i) in
      let r =
        match results.(i) with
        | Some (Dyno_vm.Vm.Swept (dv, s)) ->
            ignore (Dyno_vm.Vm.commit_swept c.w mb.view.mv mb.msg dv s);
            Refreshed s
        | Some Dyno_vm.Vm.Swept_irrelevant ->
            Mat_view.record_commit mb.view.mv ~at:(now c)
              ~maintained:[ Update_msg.id mb.msg ];
            Irrelevant 1
        | Some (Dyno_vm.Vm.Swept_aborted b) -> Aborted b
        | Some (Dyno_vm.Vm.Swept_unreachable u) -> Unreachable u
        | None -> assert false
      in
      match outcome r with
      | Done ->
          account c.stats r;
          commit mb r;
          commit_from (i + 1)
      | failed -> (i, failed)
  in
  let committed = commit_from 0 in
  (* Overlap saved: the spread between the members' summed task lifetimes
     and the round's wall time — what back-to-back execution of the same
     intervals would have cost extra. *)
  Dyno_obs.Metrics.add_gauge c.mx "net.overlap_saved_s"
    (Float.max 0.0 (Array.fold_left ( +. ) 0.0 spent -. (now c -. t0)));
  Dyno_obs.Metrics.set_gauge c.mx "sched.inflight" 0.0;
  committed

(* Up to [width] single data updates from distinct sources off a queue's
   prefix, stopping at the first schema change or merged batch (those
   carry Concurrent edges to every other entry) and serializing
   same-source chains (Semantic edges keep per-source commit order) by
   deferring their later links to a later round. *)
let scan_prefix width q =
  let rec scan acc k seen = function
    | Umq.Single m :: rest when Update_msg.is_du m ->
        if k >= width then List.rev acc
        else
          let src = Update_msg.source m in
          if List.exists (String.equal src) seen then scan acc k seen rest
          else (
            match Update_msg.as_du m with
            | Some u -> scan ((m, u) :: acc) (k + 1) (src :: seen) rest
            | None -> List.rev acc)
    | _ -> List.rev acc
  in
  scan [] 0 [] (Umq.entries q)

(* Members of a round over one view's data updates: up to
   [config.parallel] per queue, in global arrival order across shards.
   One queue's head path already maintains a lone member, so a one-queue
   round needs two (width 1 never scans); a sharded round takes whatever
   the shards offer.  Recompute mode and an undefined view maintain
   serially. *)
let round_members c : member list =
  let width = max 1 c.config.parallel in
  let queues = Array.length c.umqs in
  let min_members = if queues > 1 then 1 else 2 in
  match c.views with
  | [ v ]
    when width * queues >= min_members
         && c.config.vm_mode = Run_config.Incremental
         && View_def.is_valid (Mat_view.def v.mv) ->
      let found =
        merge_queues c
          (fun (a, _) (b, _) -> compare_arrival (Umq.Single a) (Umq.Single b))
          (scan_prefix width)
      in
      if List.length found < min_members then []
      else
        (* Exclusion sets are fixed at dispatch: member [i] must not
           compensate against members earlier in the round — they are
           being maintained concurrently, exactly as if the serial pass
           had already processed them. *)
        let earlier = ref [] in
        List.map
          (fun (m, u) ->
            let exclude = !earlier in
            earlier := Update_msg.id m :: exclude;
            { view = v; msg = m; du = u; exclude; thread = Update_msg.source m })
          found
  | _ -> []

let round_texts c k =
  match Hashtbl.find_opt c.rounds k with
  | Some texts -> texts
  | None ->
      let texts =
        if sharded c then
          {
            round_name = lazy (Fmt.str "shard round of %d" k);
            dispatched =
              Array.init (Array.length c.umqs) (fun shard ->
                  lazy
                    (Fmt.str "dispatched into shard round of %d (shard %d)" k
                       shard));
          }
        else
          {
            round_name = lazy (Fmt.str "round of %d" k);
            dispatched =
              Array.init k (fun slot ->
                  lazy
                    (Fmt.str "dispatched into parallel round of %d (slot %d)" k
                       slot));
          }
      in
      Hashtbl.replace c.rounds k texts;
      texts

(* Dependency-parallel dispatch over one view: each member is its own
   entry, so it finishes and leaves its queue as it commits. *)
let view_round c mid (members : member list) : unit =
  let k = List.length members in
  let sharded = sharded c in
  let texts = round_texts c k in
  Dyno_obs.Span.set_name c.sp mid texts.round_name;
  clear_broken c;
  let t0 = now c in
  List.iteri
    (fun i mb ->
      Trace.record (Query_engine.trace c.w) ~time:t0 Trace.Maint_start
        (lazy (Fmt.str "%a" Umq.pp_entry (Umq.Single mb.msg)));
      Dyno_obs.Lineage.dispatch c.lin
        ~ids:[ Update_msg.id mb.msg ]
        ~time:t0
        ~detail:
          texts.dispatched.(if sharded then c.owner (Update_msg.source mb.msg)
                            else i)
        ())
    members;
  let committed, outcome =
    round c members ~commit:(fun mb r ->
        let m = mb.msg in
        note_fresh c [ m ];
        (match r with
        | Refreshed _ ->
            Stats.note_episode c.stats Stats.Du_maint ~aborted:false
              (now c -. t0)
        | _ -> ());
        terminal c.w
          ~ids:[ Update_msg.id m ]
          ~how:(if sharded then " in shard round" else " in parallel round")
          r;
        Umq.remove_entry (queue_of c (Update_msg.source m)) (Umq.Single m))
  in
  (* Later members' sweeps are discarded: the wasted work shows up as
     [Queue] time on re-dispatch, keeping segment sums exact. *)
  List.iteri
    (fun i mb ->
      if i > committed then
        Dyno_obs.Lineage.note c.lin
          ~ids:[ Update_msg.id mb.msg ]
          ~time:(now c) ~kind:"requeued"
          ~detail:
            (lazy "earlier round member failed; sweep discarded, requeued"))
    members;
  let ids =
    match List.nth_opt members committed with
    | Some mb -> [ Update_msg.id mb.msg ]
    | None -> []
  in
  (* Committed members were counted as they committed. *)
  settle c ~mid ~t0
    ~what:(if sharded then "sharded round" else "parallel round")
    ~ids ~kind:Stats.Du_maint ~changed:false outcome

(* -- per-entry paths -- *)

(* The head entry against every view of a view set.  With [parallel > 1]
   a single data update's sweeps run for up to [parallel] views at once
   — the views are independent (each has its own extent and commit log),
   so no exclusion set is needed — committing in view order; every
   remaining view, and every other entry shape, is maintained view by
   view and counted as it commits.  A view that is undefined, or already
   integrated the entry (its applied set), skips it, so a retry after a
   later view broke redoes only what is missing. *)
let maintain_views c ~(ids : int list) (entry : Umq.entry) : result =
  let todo v =
    if View_def.is_valid (Mat_view.def v.mv) then
      List.filter (fun id -> not (List.mem id v.applied)) ids
    else []
  in
  let per_view_round =
    match entry with
    | Umq.Single m when c.config.parallel > 1 -> (
        match
          (Update_msg.as_du m, List.filter (fun v -> todo v <> []) c.views)
        with
        | Some u, (_ :: _ :: _ as eligible) ->
            snd
              (round c
                 (List.filteri (fun i _ -> i < c.config.parallel) eligible
                 |> List.mapi (fun i v ->
                        {
                          view = v;
                          msg = m;
                          du = u;
                          exclude = [];
                          thread = Fmt.str "view-%d" i;
                        }))
                 ~commit:(fun mb _ ->
                   mb.view.applied <- Update_msg.id m :: mb.view.applied))
        | _ -> Done)
    | _ -> Done
  in
  let rec each = function
    | [] ->
        (* Integrated everywhere: its ids can never reappear. *)
        List.iter
          (fun v ->
            v.applied <-
              List.filter (fun id -> not (List.mem id ids)) v.applied)
          c.views;
        Integrated (List.length c.views)
    | v :: rest -> (
        match todo v with
        | [] -> each rest
        | todo -> (
            match
              maintain_view ~applied:v.applied ?local:v.local
                ~compensate:c.config.compensate
                ~vm_mode:Run_config.Incremental c.w v.mv c.mk entry
            with
            | (Aborted _ | Unreachable _) as failed -> failed
            | r ->
                account c.stats r;
                v.applied <- todo @ v.applied;
                each rest))
  in
  match per_view_round with
  | Done -> each c.views
  | AbortedStep b -> Aborted b
  | UnreachableStep u -> Unreachable u

(* Refreshes and replacements of the run's views so far. *)
let extent_changes c =
  List.fold_left (fun n v -> n + Mat_view.extent_changes v.mv) 0 c.views

let episode_kind = function
  | Umq.Single m when Update_msg.is_sc m -> Stats.Sc_maint
  | Umq.Single _ -> Stats.Du_maint
  | Umq.Batch _ -> Stats.Batch_maint

type at =
  | Head of int  (** dispatched at the head of queue [i] *)
  | Group  (** a grouped prefix of the one queue, as one transient batch *)
  | Drain  (** an entry of a cross-shard barrier's corrected order *)

(* The one dispatch path of a queue head, a grouped prefix and a
   barrier-drain entry: clear the broken-query flags, record the
   dispatch, maintain and count, settle with [changed] read from the
   views' extent changes, then end the lineage, advance freshness and
   dequeue.  A grouped prefix, like a round, advances freshness first:
   the recorders' call order fixes the metrics registry's key order. *)
let dispatch_entry c mid (at : at) (entry : Umq.entry) : step_outcome =
  clear_broken c;
  let t0 = now c in
  let ids = Umq.entry_ids entry and msgs = Umq.entry_messages entry in
  Dyno_obs.Lineage.dispatch c.lin ~ids ~time:t0
    ?seg:(match at with Drain -> Some Dyno_obs.Lineage.Barrier | _ -> None)
    ~detail:
      (match at with
      | Head qi when sharded c ->
          lazy (Fmt.str "dispatched at shard %d queue head" qi)
      | Head _ -> lazy "dispatched at queue head"
      | Group ->
          let n = List.length msgs in
          lazy (Fmt.str "dispatched in a grouped sweep of %d" n)
      | Drain -> lazy "dispatched from cross-shard barrier drain")
    ();
  let before = extent_changes c in
  let r =
    match (at, c.views) with
    | Group, v :: _ -> (
        Dyno_obs.Lineage.set_scope c.lin ids;
        match
          Dyno_vm.Vm.maintain_group ~compensate:c.config.compensate
            ?local:v.local c.w v.mv msgs
        with
        | Dyno_vm.Vm.Refreshed { stats; _ }, off ->
            Grouped (List.length msgs, off, stats)
        | Dyno_vm.Vm.Irrelevant, _ -> Irrelevant (List.length msgs)
        | Dyno_vm.Vm.Aborted b, _ -> Aborted b
        | Dyno_vm.Vm.Unreachable u, _ -> Unreachable u)
    | _, views -> (
        start_entry c.w ~ids entry;
        match views with
        | [ v ] ->
            maintain_view ?local:v.local ~compensate:c.config.compensate
              ~vm_mode:c.config.vm_mode c.w v.mv c.mk entry
        | _ -> maintain_views c ~ids entry)
  in
  account c.stats r;
  let outcome = outcome r in
  settle c ~mid ~t0
    ~what:
      (match at with
      | Head _ -> "maintenance"
      | Group -> "grouped maintenance"
      | Drain -> "barrier maintenance")
    ~ids ~kind:(episode_kind entry)
    ~changed:(extent_changes c > before)
    outcome;
  (if outcome == Done then
     let grouped = at = Group in
     if grouped then note_fresh c msgs;
     terminal c.w ~ids ~how:"" r;
     if not grouped then note_fresh c msgs;
     match at with
     | Head qi -> Umq.remove_head c.umqs.(qi)
     | Group | Drain ->
         (* A grouped prefix, and a corrected entry that may merge messages
            owned by several shards, still sit as [Single]s in the owning
            queues. *)
         List.iter
           (fun m ->
             Umq.remove_entry (queue_of c (Update_msg.source m)) (Umq.Single m))
           msgs);
  outcome

(* Maintain the globally-oldest queue head (the head, with one queue). *)
let head c mid : unit =
  let qi = ref (-1) and oldest = ref None in
  for i = 0 to Array.length c.umqs - 1 do
    match (Umq.head c.umqs.(i), !oldest) with
    | None, _ -> ()
    | Some e, Some b when compare_arrival b e <= 0 -> ()
    | h, _ ->
        qi := i;
        oldest := h
  done;
  match !oldest with
  | None -> ()
  | Some entry ->
      Dyno_obs.Span.set_name c.sp mid
        (lazy (Fmt.str "%a" Umq.pp_entry entry));
      ignore (dispatch_entry c mid (Head !qi) entry : step_outcome)

(* Deferred/grouped maintenance: a prefix of two to [config.du_group]
   single data updates of the one queue, maintained against the one view
   as one transient batch; returns whether it took the iteration.  Taking
   a queue prefix preserves the legal order. *)
let grouped c mid : bool =
  match c.views with
  | [ v ]
    when c.config.du_group > 1
         && (not (sharded c))
         && View_def.is_valid (Mat_view.def v.mv) -> (
      let rec prefix n acc = function
        | Umq.Single m :: rest
          when Update_msg.is_du m && n < c.config.du_group ->
            prefix (n + 1) (m :: acc) rest
        | _ -> List.rev acc
      in
      match prefix 0 [] (Umq.entries c.umqs.(0)) with
      | _ :: _ :: _ as msgs ->
          let n = List.length msgs in
          Dyno_obs.Span.set_name c.sp mid (lazy (Fmt.str "group of %d" n));
          ignore (dispatch_entry c mid Group (Umq.Batch msgs) : step_outcome);
          true
      | _ -> false)
  | _ -> false

(* Cross-shard barrier: every shard pauses; the union of the queues in
   global arrival order runs through detection + correction, and the
   corrected legal order is maintained serially up to and including its
   last schema change.  The corrected order is ephemeral — shard queues
   are never rewritten; the pure-DU suffix resumes parallel draining.  An
   in-exec abort restarts the pass on a fresh snapshot (the newly-detected
   conflict is part of the next graph). *)
let barrier c mid : unit =
  Dyno_obs.Span.set_name c.sp mid (lazy "cross-shard barrier");
  c.stats.Stats.cross_shard_barriers <- c.stats.Stats.cross_shard_barriers + 1;
  Dyno_obs.Metrics.incr c.mx "sched.cross_shard_barriers";
  let rec pass () =
    c.force_barrier <- false;
    Array.iter
      (fun q -> ignore (Umq.test_and_clear_schema_change_flag q : bool))
      c.umqs;
    let snapshot = merge_queues c compare_arrival Umq.entries in
    if List.exists Umq.entry_has_sc snapshot then begin
      let t0 = now c in
      let g = detect c snapshot in
      let order =
        match c.config.strategy with
        | Strategy.Merge_all ->
            (* The strawman collapses everything it can see — here, the
               whole cross-shard snapshot — into one batch. *)
            let order, r = Correct.collapse snapshot in
            note_merge_all c r;
            order
        | Strategy.Pessimistic | Strategy.Optimistic ->
            let order, r = Correct.order snapshot g in
            let n = List.length snapshot in
            correct c g r
              ~note:
                (lazy
                  (Fmt.str "cross-shard barrier: legal order over %d entr%s" n
                     (if n = 1 then "y" else "ies")));
            order
      in
      c.stats.Stats.busy <- c.stats.Stats.busy +. (now c -. t0);
      let rec from_last_sc = function
        | e :: rest when not (Umq.entry_has_sc e) -> from_last_sc rest
        | rev -> rev
      in
      drain (List.rev (from_last_sc (List.rev order)))
    end
  and drain = function
    | [] -> ()
    | entry :: rest -> (
        tick c;
        match dispatch_entry c mid Drain entry with
        | Done -> drain rest
        | UnreachableStep _ -> drain (entry :: rest)
        | AbortedStep _ -> pass ())
  in
  pass ()

(* Pre-exec detection; returns true when it took the whole iteration.
   One queue: the pessimistic strategy's flag-guarded pass (optimistic
   and merge-all leave the flag set and ignored).  Several queues: a
   raised flag, or an abort since the last barrier, makes this iteration
   a cross-shard barrier whatever the strategy. *)
let pre_exec c mid : bool =
  if sharded c then begin
    let due =
      c.force_barrier || Array.exists Umq.peek_schema_change_flag c.umqs
    in
    if due then barrier c mid;
    due
  end
  else begin
    (match c.config.strategy with
    | Strategy.Pessimistic -> detect_and_correct c ~force:false
    | Strategy.Optimistic | Strategy.Merge_all -> ());
    false
  end

(* One iteration over non-empty queues, run inside a [Maintain] span.
   Every clock advance below is charged to [Stats.busy] (detection,
   maintenance, post-abort correction, stall recovery), so the span's
   duration equals exactly the busy time this iteration contributes —
   the invariant Σ maintain-span durations = Stats.busy rests on it. *)
let iteration c mid : unit =
  if not (pre_exec c mid || grouped c mid) then
    match round_members c with
    | [] -> head c mid
    | members -> view_round c mid members

(* -- setup and the run loop -- *)

(* A source's projections may only revalidate once no schema change of
   that source remains queued anywhere (the cross-shard barrier handles
   queued SCs globally, so the scan covers every route's queue). *)
let sync_aux c (v : view) : unit =
  match v.store with
  | None -> ()
  | Some store ->
      Dyno_selfmaint.Aux_store.sync store v.mv ~sc_queued:(fun src ->
          List.exists
            (fun u ->
              List.exists
                (fun m ->
                  Update_msg.is_sc m && String.equal (Update_msg.source m) src)
                (Umq.messages u))
            (Query_engine.umqs c.w))

let register_series c (series : Dyno_obs.Timeseries.t) : unit =
  let stats = c.stats in
  let probe = Dyno_obs.Timeseries.probe series in
  probe "umq.depth" (fun _ ->
      float_of_int (Array.fold_left (fun n q -> n + Umq.length q) 0 c.umqs));
  probe "sched.inflight" (fun _ ->
      Dyno_obs.Metrics.gauge_value c.mx "sched.inflight");
  probe ~kind:`Counter "sched.view_commits" (fun _ ->
      float_of_int stats.Stats.view_commits);
  probe ~kind:`Counter "sched.probes" (fun _ -> float_of_int stats.Stats.probes);
  probe ~kind:`Counter "sched.aborts" (fun _ -> float_of_int stats.Stats.aborts);
  probe ~kind:`Counter "net.retries" (fun _ ->
      float_of_int (Query_engine.net_retries c.w));
  probe "sched.busy_ratio" (fun now ->
      if now > 0.0 then stats.Stats.busy /. now else 0.0);
  probe "sched.abort_ratio" (fun _ ->
      if stats.Stats.busy > 0.0 then stats.Stats.abort_cost /. stats.Stats.busy
      else 0.0);
  (* Aggregate over a view set = the worst (most stale) view. *)
  probe "staleness_s" (fun now ->
      List.fold_left
        (fun acc v -> Float.max acc (Freshness.staleness_seconds v.fresh ~now))
        neg_infinity c.views);
  probe "staleness_versions" (fun _ ->
      float_of_int
        (List.fold_left
           (fun acc v -> max acc (Freshness.lag_versions v.fresh))
           0 c.views));
  List.iter (fun v -> Freshness.register_probes v.fresh series) c.views

let dispatch ?(config = Run_config.default) (w : Query_engine.t)
    (mvs : Mat_view.t list) (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  if mvs = [] then invalid_arg "Scheduler.dispatch: no view";
  let obs = Query_engine.obs w in
  (* Every route's queue, each source's owner as the engine routes it. *)
  let umqs = Array.of_list (Query_engine.umqs w)
  and owner = Query_engine.route_of w in
  let view mv =
    let store =
      if config.self_maint then begin
        let s = aux_store w mv in
        Query_engine.add_admit_hook w (Dyno_selfmaint.Aux_store.on_message s);
        Some s
      end
      else None
    in
    {
      mv;
      applied = [];
      store;
      local = Option.map Dyno_selfmaint.Aux_store.local store;
      fresh =
        Freshness.create
          ~metrics:(Dyno_obs.Obs.metrics obs)
          ~mv
          ~registry:(Query_engine.registry w)
          ~queued:(List.concat_map Umq.messages (Array.to_list umqs))
          ();
    }
  in
  let views = List.map view mvs in
  let c =
    {
      config;
      w;
      mk;
      stats = Stats.create ();
      umqs;
      owner;
      shard_busy = Array.init (Array.length umqs) (Fmt.str "shard.%d.busy_s");
      rounds = Hashtbl.create 8;
      views;
      sp = Dyno_obs.Obs.spans obs;
      mx = Dyno_obs.Obs.metrics obs;
      lin = Dyno_obs.Obs.lineage obs;
      steps = 0;
      aborted = 0.0;
      force_barrier = false;
    }
  in
  let stats = c.stats in
  let series = Dyno_obs.Obs.series obs in
  if Dyno_obs.Timeseries.enabled series then register_series c series;
  let clock () = now c
  and sync = sync_aux c
  and step mid =
    c.aborted <- 0.0;
    iteration c mid
  in
  let rec loop () =
    tick c;
    Query_engine.deliver_due w;
    (* Revalidate auxiliary projections whose invalidating schema changes
       have all been maintained (no-op unless something is invalid). *)
    List.iter sync views;
    (* Sampling at scheduler wakeups: every state change in the simulation
       happens at a wakeup, so sampling here (rate-limited to the series
       interval) captures every change-point without touching the clock. *)
    ignore (Dyno_obs.Timeseries.maybe_sample series ~now:(now c) : bool);
    if Array.for_all Umq.is_empty umqs then begin
      (* Wake for the next scheduled commit OR the next in-flight message
         arrival — with transport delay the timeline can be drained while
         messages are still on the wire. *)
      match Query_engine.next_wakeup w with
      | None -> () (* drained: done *)
      | Some t ->
          let dt = t -. now c in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          Query_engine.idle_until w t;
          loop ()
    end
    else begin
      let n = c.steps in
      Dyno_obs.Span.with_span c.sp ~now:clock Dyno_obs.Span.Maintain
        (lazy (Fmt.str "step %d" n))
        step;
      loop ()
    end
  in
  loop ();
  (* Force a final sample at quiescence so the series always ends with the
     caught-up state (staleness exactly 0). *)
  Dyno_obs.Timeseries.sample series ~now:(now c);
  stats.Stats.end_time <- now c;
  record_net_stats w stats;
  mirror_stats obs stats;
  if sharded c && Dyno_obs.Metrics.enabled c.mx then begin
    Dyno_obs.Metrics.set_gauge c.mx "sched.shards"
      (float_of_int (Array.length umqs));
    Dyno_obs.Metrics.set_counter c.mx "sched.cross_shard_barriers"
      stats.Stats.cross_shard_barriers
  end;
  stats

(** [run ?config w mv mk] drives the Dyno loop over one view and one queue
    until the UMQ and the timeline are both drained; returns the
    collected statistics. *)
let run ?config (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  dispatch ?config w [ mv ] mk
