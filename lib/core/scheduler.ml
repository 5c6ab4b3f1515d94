(** Dyno: the dynamic reordering scheduler (Figure 6).

    The main loop processes the UMQ head forever:

    + (pessimistic only) if the schema-change flag is set, run pre-exec
      detection — build the dependency graph — and correct the queue into
      a legal order (merging cycles);
    + maintain the head entry: VM for a data update, VS+VA for a schema
      change, batch adaptation for a merged node;
    + if the maintenance aborted on a broken query (in-exec detection),
      leave the entry queued and correct: the pessimistic strategy picks
      the conflict up via the schema-change flag on the next iteration,
      the optimistic strategy runs detection+correction right now, and the
      merge-all strawman collapses the whole queue;
    + otherwise remove the head and continue.

    The loop runs until both the UMQ and the timeline of future source
    commits are drained (a real deployment runs forever; experiments have
    finite workloads). *)

open Dyno_view
open Dyno_sim

(** How data updates are maintained (re-exported from {!Run_config} so
    historical [Scheduler.Incremental] call sites keep reading
    naturally). *)
type vm_mode = Run_config.vm_mode =
  | Incremental  (** SWEEP-style probes computing a view delta (default) *)
  | Recompute
      (** naive baseline: re-materialize the whole view per update — the
          classic strawman incremental maintenance is measured against *)

(** The scheduler consumes the shared {!Run_config.t} record — the same
    record drives the multi-view and sharded schedulers, so CLI plumbing
    is written once. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
  runtime : [ `Simulated | `Domains of int ];
}

let default_config = Run_config.default

exception Step_limit_exceeded of int

type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

(* Charge a detection pass + correction on the simulated clock and update
   stats; returns true when the queue was actually reordered. *)
let detect_and_correct ~(force : bool) (w : Query_engine.t) (mv : Mat_view.t)
    (stats : Stats.t) : unit =
  let umq = Query_engine.umq w in
  let cost = Query_engine.cost w in
  let vd = Mat_view.def mv in
  let t0 = Query_engine.now w in
  let outcome =
    if force then Detect.force vd umq else Detect.pre_exec vd umq
  in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs in
  let now () = Query_engine.now w in
  (match outcome.Detect.graph with
  | None ->
      (* Flag fast path: O(1); no span — it would swamp the trace with one
         flag check per iteration. *)
      Query_engine.advance w cost.Cost_model.detect_flag
  | Some g ->
      stats.Stats.detections <- stats.Stats.detections + 1;
      let n = Dep_graph.size g in
      let m =
        List.length
          (List.filter Update_msg.is_sc (Umq.messages umq))
      in
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Detect
        (Fmt.str "detect %d node(s)" n)
        (fun _ ->
          let td = now () in
          Query_engine.advance w (Cost_model.detect cost ~n ~m);
          Dyno_obs.Metrics.observe mx "detect.pass_s" (now () -. td));
      Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
        Trace.Detect "graph: %d node(s), %d edge(s), %d unsafe" n
        (List.length (Dep_graph.edges g))
        outcome.Detect.unsafe;
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Correct "correct"
        (fun cid ->
          let tc = now () in
          let lin = Dyno_obs.Obs.lineage obs in
          (* Forensic provenance: every unsafe edge (the ones forcing the
             reorder) lands on the dependent updates' lineage records
             before the correction rewrites the queue. *)
          List.iter
            (fun e ->
              Dyno_obs.Lineage.edge lin
                ~dep_ids:(Dep_graph.edge_dependent_ids g e)
                ~time:tc ~detail:(Dep_graph.describe_edge g e))
            (Dep_graph.unsafe g);
          let r = Correct.apply umq g in
          List.iter
            (fun ids ->
              Dyno_obs.Lineage.merged lin ~ids ~time:tc
                ~detail:
                  (Fmt.str
                     "dependency cycle merged: %d update(s) now one batch"
                     (List.length ids)))
            r.Correct.merged_members;
          Query_engine.advance w
            (Cost_model.correct cost ~nodes:r.Correct.nodes
               ~edges:r.Correct.edges);
          Dyno_obs.Metrics.observe mx "correct.pass_s" (now () -. tc);
          Dyno_obs.Span.set_attr sp cid "reordered"
            (string_of_bool r.Correct.reordered);
          if r.Correct.reordered then begin
            stats.Stats.corrections <- stats.Stats.corrections + 1;
            Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
              Trace.Correct "queue reordered into a legal order"
          end;
          if r.Correct.merged_cycles > 0 then begin
            stats.Stats.merges <- stats.Stats.merges + r.Correct.merged_cycles;
            Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
              Trace.Merge "%d cycle(s) merged (%d update(s))"
              r.Correct.merged_cycles r.Correct.merged_updates
          end));
  stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0)

(* Maintain one queue entry.  Updates counters on success.  [local] is
   the self-maintenance hook pair (None unless [config.self_maint]). *)
let maintain_entry ?local ~(compensate : bool) ~(vm_mode : vm_mode)
    (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) (stats : Stats.t)
    (entry : Umq.entry) : step_outcome =
  let trace = Query_engine.trace w in
  let vd = Mat_view.def mv in
  let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
  let ids = Umq.entry_ids entry in
  let finish state detail =
    Dyno_obs.Lineage.finish lin ~ids ~time:(Query_engine.now w) ~state ~detail
  in
  (* Probe round-trips issued by this maintenance step are charged to
     this entry's updates via the ambient scope. *)
  Dyno_obs.Lineage.set_scope lin ids;
  Trace.recordf trace ~time:(Query_engine.now w) Trace.Maint_start "%a"
    Umq.pp_entry entry;
  if not (View_def.is_valid vd) then begin
    (* The view is undefined; updates are acknowledged and dropped. *)
    Trace.recordf trace ~time:(Query_engine.now w) Trace.Info
      "view undefined; dropping %a" Umq.pp_entry entry;
    stats.Stats.irrelevant <-
      stats.Stats.irrelevant + List.length (Umq.entry_messages entry);
    finish Dyno_obs.Lineage.Dropped_undefined
      "view undefined; update acknowledged and dropped";
    Done
  end
  else
    match entry with
    | Umq.Single m -> (
        match Update_msg.payload m with
        | Update_msg.Du u when vm_mode = Recompute -> (
            ignore u;
            match
              Dyno_va.Adapt.replace_extent w mv
                ~maintained:[ Update_msg.id m ]
                ~exclude:[ Update_msg.id m ]
            with
            | Ok () ->
                stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                finish Dyno_obs.Lineage.Applied "view re-materialized";
                Done
            | Error (Query_engine.Broken b) -> AbortedStep b
            | Error (Query_engine.Unreachable u) -> UnreachableStep u)
        | Update_msg.Du u -> (
            match Dyno_vm.Vm.maintain ~compensate ?local w mv m u with
            | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
                stats.Stats.compensations <-
                  stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
                stats.Stats.probes_avoided <-
                  stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
                stats.Stats.bytes_saved <-
                  stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                if Dyno_obs.Lineage.enabled lin then
                  finish Dyno_obs.Lineage.Applied
                    (Fmt.str "view refreshed (%d probe(s), %d compensation(s))"
                       s.Dyno_vm.Sweep.probes s.Dyno_vm.Sweep.compensations);
                Done
            | Dyno_vm.Vm.Irrelevant ->
                stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
                finish Dyno_obs.Lineage.Irrelevant "no pivot row in the view";
                Done
            | Dyno_vm.Vm.Aborted b -> AbortedStep b
            | Dyno_vm.Vm.Unreachable u -> UnreachableStep u)
        | Update_msg.Sc _ -> (
            match Dyno_va.Batch.maintain w mv mk [ m ] with
            | Dyno_va.Batch.Adapted ->
                stats.Stats.sc_maintained <- stats.Stats.sc_maintained + 1;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                finish Dyno_obs.Lineage.Applied "view adapted (VS + VA)";
                Done
            | Dyno_va.Batch.Aborted b -> AbortedStep b
            | Dyno_va.Batch.Unreachable u -> UnreachableStep u
            | Dyno_va.Batch.View_undefined _ ->
                stats.Stats.view_undefined <- true;
                finish Dyno_obs.Lineage.Applied
                  "schema change left the view undefined";
                Done))
    | Umq.Batch msgs -> (
        match Dyno_va.Batch.maintain w mv mk msgs with
        | Dyno_va.Batch.Adapted ->
            stats.Stats.batches <- stats.Stats.batches + 1;
            stats.Stats.batch_updates <-
              stats.Stats.batch_updates + List.length msgs;
            stats.Stats.view_commits <- stats.Stats.view_commits + 1;
            finish Dyno_obs.Lineage.Applied
              (Fmt.str "batch of %d adapted atomically" (List.length msgs));
            Done
        | Dyno_va.Batch.Aborted b -> AbortedStep b
        | Dyno_va.Batch.Unreachable u -> UnreachableStep u
        | Dyno_va.Batch.View_undefined _ ->
            stats.Stats.view_undefined <- true;
            finish Dyno_obs.Lineage.Applied
              "schema change left the view undefined";
            Done)

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
  Trace.recordf trace ~time:(Query_engine.now w) Trace.Outage
    "maintenance stalled: %a; waiting for recovery"
    Dyno_net.Retry.pp_unreachable u;
  Dyno_obs.Metrics.incr
    (Dyno_obs.Obs.metrics (Query_engine.obs w))
    "net.stalls";
  let waited =
    Dyno_obs.Span.with_span
      (Dyno_obs.Obs.spans (Query_engine.obs w))
      ~now:(fun () -> Query_engine.now w)
      Dyno_obs.Span.Stall
      (Fmt.str "stall on %s" u.Dyno_net.Retry.source)
      (fun _ -> Query_engine.await_recovery w ~source:u.Dyno_net.Retry.source)
  in
  stats.Stats.busy <- stats.Stats.busy +. waited

(* Name the schema change behind a broken query: in-exec detection only
   diagnoses the query, so the lineage narrative looks up the queued SC
   from the broken source — the conflict the correction will resolve. *)
let abort_provenance (umq : Umq.t) (b : Dyno_source.Data_source.broken) :
    string =
  let sc =
    List.find_opt
      (fun m ->
        Update_msg.is_sc m
        && String.equal (Update_msg.source m) b.Dyno_source.Data_source.source)
      (Umq.messages umq)
  in
  match sc with
  | Some m ->
      Fmt.str "broken query %s (%s); aborting SC #%d at %s"
        b.Dyno_source.Data_source.query_name b.Dyno_source.Data_source.reason
        (Update_msg.id m) b.Dyno_source.Data_source.source
  | None ->
      Fmt.str "broken query %s at %s: %s"
        b.Dyno_source.Data_source.query_name b.Dyno_source.Data_source.source
        b.Dyno_source.Data_source.reason

(* Merge-all provenance: the strawman collapse is a causal rebirth too —
   members gain a parent link to the batch's oldest update. *)
let note_merge_all (lin : Dyno_obs.Lineage.t) ~(time : float)
    (r : Correct.report) : unit =
  List.iter
    (fun ids ->
      Dyno_obs.Lineage.merged lin ~ids ~time
        ~detail:
          (Fmt.str "merge-all: %d update(s) collapsed into one batch"
             (List.length ids)))
    r.Correct.merged_members

(* --- Multicore runtime ([`Domains _]) ------------------------------- *)

(* One round member as the worker-domain pool sees it.  [pj_mv] and
   [pj_local] vary per member only in the multi-view scheduler; the
   serial and sharded schedulers pass one view and the member's owning
   shard's store. *)
type pool_job = {
  pj_mv : Mat_view.t;
  pj_msg : Update_msg.t;
  pj_du : Dyno_relational.Update.t;
  pj_applied : int list;
  pj_exclude_extra : int list;
  pj_local : Dyno_vm.Sweep.local option;
}

(* Evaluate a dispatched round's fully-covered local sweeps on the
   worker-domain pool.  Phase A (coordinator): run each member's
   {!Dyno_vm.Vm.prepare_sweep} prelude in round order, capturing pure
   compute inputs with exclusion sets already frozen.  Phase B: one pool
   batch over {!Dyno_vm.Sweep.compute_local} — pure CPU, no engine,
   clock or observability access on the workers.  Phase C (coordinator):
   replay the local-answer bookkeeping for each harvested result.  The
   returned array holds [Some swept] for members decided here; [None]
   members still need the cooperative probed path on the executor.
   Admission, commits and the simulated clock never leave the
   coordinator, so Theorems 1–2 are untouched: this only relocates
   compute the cooperative path would have run inline at dispatch
   time. *)
let pool_sweeps ~(pool : Dyno_sim.Domain_pool.t) ~(compensate : bool)
    (w : Query_engine.t) (stats : Stats.t) (jobs : pool_job array) :
    Dyno_vm.Vm.swept option array =
  let prepared =
    Array.map
      (fun j ->
        Dyno_vm.Vm.prepare_sweep ~compensate ~applied:j.pj_applied
          ~exclude_extra:j.pj_exclude_extra ?local:j.pj_local w j.pj_mv
          j.pj_msg j.pj_du)
      jobs
  in
  let offload = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Dyno_vm.Vm.Offloadable input -> offload := (i, input) :: !offload
      | Dyno_vm.Vm.Settled _ | Dyno_vm.Vm.Needs_probes -> ())
    prepared;
  let offload = Array.of_list (List.rev !offload) in
  let outs =
    (* Tag each pool task with its member's message id so the host
       profiler can attribute compute seconds back onto the lineage
       record (a no-op when the profiler is off). *)
    Dyno_sim.Domain_pool.run_all
      ~tags:(Array.map (fun (i, _) -> Update_msg.id jobs.(i).pj_msg) offload)
      pool
      (Array.map
         (fun (_, input) () -> Dyno_vm.Sweep.compute_local input)
         offload)
  in
  stats.Stats.mcore_tasks <- stats.Stats.mcore_tasks + Array.length offload;
  let results =
    Array.map
      (function Dyno_vm.Vm.Settled s -> Some s | _ -> None)
      prepared
  in
  let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
  Array.iteri
    (fun k (i, input) ->
      match outs.(k) with
      | Some ((dv, st) as ok) ->
          let j = jobs.(i) in
          Dyno_obs.Lineage.set_scope lin [ Update_msg.id j.pj_msg ];
          (match j.pj_local with
          | Some l -> Dyno_vm.Sweep.record_local w ~local:l input ok
          | None -> ());
          results.(i) <- Some (Dyno_vm.Vm.Swept (dv, st))
      | None ->
          (* The pure compute fell back (a local evaluation failed); let
             the probed path decide, exactly as the inline path would. *)
          ())
    offload;
  results

(* One concurrent maintenance round over an antichain of single data
   updates from distinct sources (no queued schema change ahead of them).
   The sweeps — probe round trips included — run as cooperative executor
   tasks and overlap on the wire; refreshes and dequeues then commit
   serially at the barrier, in queue order, stopping at the first failed
   member.  Later members' results are discarded: their entries stay
   queued (exclusion sets were fixed at dispatch, so a re-sweep on the
   next round compensates correctly).  With [pool] (the [`Domains _]
   runtime) fully-covered local sweeps are evaluated on worker domains
   first; only the remainder takes the executor. *)
let parallel_round ?local ?pool ~(config : config) ~(fresh : Freshness.t)
    (w : Query_engine.t) (mv : Mat_view.t) (stats : Stats.t) (mid : int)
    (members : (Update_msg.t * Dyno_relational.Update.t) list) : unit =
  let trace = Query_engine.trace w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs in
  let lin = Dyno_obs.Obs.lineage obs in
  let umq = Query_engine.umq w in
  let exec = Query_engine.executor w in
  let k = List.length members in
  Dyno_obs.Span.set_name sp mid (Fmt.str "round of %d" k);
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" (float_of_int k);
  Dyno_obs.Metrics.observe mx "sched.antichain_size" (float_of_int k);
  Umq.clear_broken_query_flag umq;
  let t0 = Query_engine.now w in
  List.iter
    (fun (m, _) ->
      Trace.recordf trace ~time:t0 Trace.Maint_start "%a" Umq.pp_entry
        (Umq.Single m))
    members;
  List.iteri
    (fun i (m, _) ->
      Dyno_obs.Lineage.dispatch lin
        ~ids:[ Update_msg.id m ]
        ~time:t0
        ~detail:(Fmt.str "dispatched into parallel round of %d (slot %d)" k i)
        ())
    members;
  let results = Array.make k None in
  let spent = Array.make k 0.0 in
  (* Exclusion sets are fixed at dispatch: member [i] must not
     compensate against members earlier in queue order — they are being
     maintained concurrently, exactly as if the serial pass had already
     processed them. *)
  let excludes =
    let earlier = ref [] in
    Array.of_list
      (List.map
         (fun (m, _) ->
           let e = !earlier in
           earlier := Update_msg.id m :: !earlier;
           e)
         members)
  in
  (* Multicore runtime: fully-covered local sweeps evaluate on the
     worker-domain pool before the executor round; members decided there
     skip their cooperative task entirely. *)
  (match pool with
  | None -> ()
  | Some pool ->
      let precomputed =
        pool_sweeps ~pool ~compensate:config.compensate w stats
          (Array.of_list
             (List.mapi
                (fun i (m, u) ->
                  {
                    pj_mv = mv;
                    pj_msg = m;
                    pj_du = u;
                    pj_applied = [];
                    pj_exclude_extra = excludes.(i);
                    pj_local = local;
                  })
                members))
      in
      Array.iteri
        (fun i r ->
          match r with Some s -> results.(i) <- Some s | None -> ())
        precomputed);
  let thunks =
    List.concat
      (List.mapi
         (fun i (m, u) ->
           if results.(i) <> None then []
           else
             [
               (fun () ->
                 Dyno_obs.Span.with_span sp
                   ~now:(fun () -> Query_engine.now w)
                   ~thread:(Update_msg.source m) Dyno_obs.Span.Task
                   (Fmt.str "maintain #%d" (Update_msg.id m))
                   (fun _ ->
                     (* Scope this task's context to its update so probe
                        round-trips land on the right lineage record. *)
                     Dyno_obs.Lineage.set_scope lin [ Update_msg.id m ];
                     let ts = Query_engine.now w in
                     results.(i) <-
                       Some
                         (Dyno_vm.Vm.maintain_sweep
                            ~compensate:config.compensate
                            ~exclude_extra:excludes.(i) ?local w mv m u);
                     spent.(i) <- Query_engine.now w -. ts));
             ])
         members)
  in
  Executor.run_all exec thunks;
  let failure = ref None in
  List.iteri
    (fun i (m, _) ->
      if !failure <> None then
        (* Later members' sweeps are discarded: the wasted work shows up
           as [Queue] time on re-dispatch, keeping segment sums exact. *)
        Dyno_obs.Lineage.note lin
          ~ids:[ Update_msg.id m ]
          ~time:(Query_engine.now w) ~kind:"requeued"
          ~detail:"earlier round member failed; sweep discarded, requeued"
      else
        match results.(i) with
        | Some (Dyno_vm.Vm.Swept (dv, s)) -> (
            match Dyno_vm.Vm.commit_swept w mv m dv s with
            | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                stats.Stats.probes <-
                  stats.Stats.probes + s.Dyno_vm.Sweep.probes;
                stats.Stats.compensations <-
                  stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
                stats.Stats.probes_avoided <-
                  stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
                stats.Stats.bytes_saved <-
                  stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                Freshness.note_entry fresh ~now:(Query_engine.now w) [ m ];
                Dyno_obs.Lineage.finish lin
                  ~ids:[ Update_msg.id m ]
                  ~time:(Query_engine.now w) ~state:Dyno_obs.Lineage.Applied
                  ~detail:
                    (Fmt.str
                       "view refreshed in parallel round (%d probe(s), %d \
                        compensation(s))"
                       s.Dyno_vm.Sweep.probes s.Dyno_vm.Sweep.compensations);
                Umq.remove_entry umq (Umq.Single m)
            | _ -> assert false)
        | Some Dyno_vm.Vm.Swept_irrelevant ->
            Mat_view.record_commit mv ~at:(Query_engine.now w)
              ~maintained:[ Update_msg.id m ];
            stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
            Freshness.note_entry fresh ~now:(Query_engine.now w) [ m ];
            Dyno_obs.Lineage.finish lin
              ~ids:[ Update_msg.id m ]
              ~time:(Query_engine.now w) ~state:Dyno_obs.Lineage.Irrelevant
              ~detail:"no pivot row in the view";
            Umq.remove_entry umq (Umq.Single m)
        | Some (Dyno_vm.Vm.Swept_aborted b) -> failure := Some (`Aborted (b, m))
        | Some (Dyno_vm.Vm.Swept_unreachable u) ->
            failure := Some (`Unreachable (u, m))
        | None -> assert false)
    members;
  let elapsed = Query_engine.now w -. t0 in
  (* Overlap saved: the spread between the members' summed task lifetimes
     and the round's wall time — what back-to-back execution of the same
     intervals would have cost extra. *)
  Dyno_obs.Metrics.add_gauge mx "net.overlap_saved_s"
    (Float.max 0.0 (Array.fold_left ( +. ) 0.0 spent -. elapsed));
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" 0.0;
  match !failure with
  | None ->
      Dyno_obs.Span.set_attr sp mid "outcome" "done";
      stats.Stats.busy <- stats.Stats.busy +. elapsed
  | Some (`Unreachable (u, m)) ->
      Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
      stall_and_wait w stats ~t0 u;
      Dyno_obs.Lineage.stall lin
        ~ids:[ Update_msg.id m ]
        ~time:(Query_engine.now w)
        ~detail:(Fmt.str "%a" Dyno_net.Retry.pp_unreachable u)
  | Some (`Aborted (b, m)) ->
      let dt = Query_engine.now w -. t0 in
      stats.Stats.busy <- stats.Stats.busy +. dt;
      stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
      stats.Stats.aborts <- stats.Stats.aborts + 1;
      stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
      Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
      Dyno_obs.Span.set_attr sp mid "abort_s" (Fmt.str "%.17g" dt);
      Trace.recordf trace ~time:(Query_engine.now w) Trace.Abort
        "parallel round aborted after %.3f s: %a" dt
        Dyno_source.Data_source.pp_broken b;
      Dyno_obs.Lineage.abort lin
        ~ids:[ Update_msg.id m ]
        ~time:(Query_engine.now w)
        ~detail:(abort_provenance umq b);
      (match config.strategy with
      | Strategy.Pessimistic ->
          if not (Umq.peek_schema_change_flag umq) then
            detect_and_correct ~force:true w mv stats
      | Strategy.Optimistic -> detect_and_correct ~force:true w mv stats
      | Strategy.Merge_all ->
          let r = Correct.merge_all umq in
          if r.Correct.reordered then begin
            stats.Stats.corrections <- stats.Stats.corrections + 1;
            stats.Stats.merges <- stats.Stats.merges + 1;
            note_merge_all lin ~time:(Query_engine.now w) r
          end)

(* The frontier of concurrently-maintainable entries: single data updates
   from distinct sources, scanned from the queue head, stopping at the
   first schema change or merged batch (those carry Concurrent edges to
   every other entry) and serializing same-source chains (Semantic edges
   keep per-source commit order) by deferring their later links to a
   later round. *)
let antichain ~(config : config) (umq : Umq.t) (mv : Mat_view.t) :
    (Update_msg.t * Dyno_relational.Update.t) list =
  if
    config.parallel <= 1
    || config.vm_mode <> Incremental
    || not (View_def.is_valid (Mat_view.def mv))
  then []
  else
    let rec scan acc seen = function
      | Umq.Single m :: rest when Update_msg.is_du m ->
          if List.length acc >= config.parallel then List.rev acc
          else
            let src = Update_msg.source m in
            if List.exists (String.equal src) seen then scan acc seen rest
            else (
              match Update_msg.as_du m with
              | Some u -> scan ((m, u) :: acc) (src :: seen) rest
              | None -> List.rev acc)
      | _ -> List.rev acc
    in
    scan [] [] (Umq.entries umq)

(* ---- Self-maintenance tier wiring (shared by all schedulers) ---- *)

(* Build a view's auxiliary store against this engine: projections are
   seeded (and re-seeded after schema-change invalidation) from the
   memoized source snapshots at the per-source delivered frontier — the
   exact historical state, never the live one, which may hold committed
   but undelivered updates neither maintenance path is allowed to see. *)
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

(* A source's projections may only revalidate once no schema change of
   that source remains queued anywhere (the cross-shard barrier handles
   queued SCs globally, so the scan covers every route's queue). *)
let sync_aux (w : Query_engine.t) (store : Dyno_selfmaint.Aux_store.t)
    (mv : Mat_view.t) : unit =
  Dyno_selfmaint.Aux_store.sync store mv ~sc_queued:(fun src ->
      List.exists
        (fun u ->
          List.exists
            (fun m ->
              Update_msg.is_sc m && String.equal (Update_msg.source m) src)
            (Umq.messages u))
        (Query_engine.umqs w))

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

(* Surface simulated-trace ring evictions: silently truncated traces
   become a visible counter ([obs.trace_dropped], always set when the
   registry is live — 0 means "nothing was lost"). *)
let mirror_trace_dropped (w : Query_engine.t) : unit =
  let mx = Dyno_obs.Obs.metrics (Query_engine.obs w) in
  if Dyno_obs.Metrics.enabled mx then
    Dyno_obs.Metrics.set_counter mx "obs.trace_dropped"
      (Dyno_sim.Trace.dropped (Query_engine.trace w))

(* Fold the host profiler's rings into the metrics registry and join the
   per-member host compute seconds back onto their lineage records.
   Must run after the pool quiesced (post-[Domain_pool.shutdown]): the
   worker rings are only safely readable once their domains joined.  A
   disabled profiler makes this a no-op. *)
let drain_hostprof (w : Query_engine.t) : unit =
  let open Dyno_obs in
  let obs = Query_engine.obs w in
  let hp = Obs.hostprof obs in
  if Hostprof.enabled hp then begin
    let s = Hostprof.drain hp in
    let mx = Obs.metrics obs in
    Metrics.set_gauge mx "host.wall_s" s.Hostprof.wall_s;
    Metrics.set_gauge mx "host.imbalance" s.Hostprof.imbalance;
    List.iter
      (fun d ->
        let pre = Printf.sprintf "host.domain.%d" d.Hostprof.domain in
        Metrics.set_gauge mx (pre ^ ".busy_s") d.Hostprof.busy_s;
        Metrics.set_gauge mx (pre ^ ".idle_s") d.Hostprof.idle_s;
        Metrics.set_gauge mx (pre ^ ".gc_s") d.Hostprof.gc_s;
        Metrics.set_gauge mx (pre ^ ".utilization") d.Hostprof.utilization;
        Metrics.set_counter mx (pre ^ ".tasks") d.Hostprof.tasks;
        Metrics.set_counter mx (pre ^ ".minor_collections")
          d.Hostprof.gc.Hostprof.minor_collections;
        Metrics.set_counter mx (pre ^ ".major_collections")
          d.Hostprof.gc.Hostprof.major_collections;
        Metrics.set_counter mx (pre ^ ".events_dropped")
          d.Hostprof.events_dropped)
      s.Hostprof.domains;
    (* host_compute_s attribution: keyed by the dispatched member id the
       schedulers tag pool tasks with; [Lineage.note] is non-charging,
       so the simulated cost model is untouched. *)
    let lin = Obs.lineage obs in
    List.iter
      (fun (tag, secs) ->
        Lineage.note lin ~ids:[ tag ] ~time:(Query_engine.now w)
          ~kind:"host_compute_s"
          ~detail:(Printf.sprintf "%.6fs on worker-domain pool" secs))
      s.Hostprof.attributions
  end

(** [run ?config w mv mk] drives the Dyno loop until the UMQ and the
    timeline are both drained; returns the collected statistics. *)
let run ?(config = default_config) (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let stats = Stats.create () in
  let umq = Query_engine.umq w in
  let steps = ref 0 in
  let trace = Query_engine.trace w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs in
  let lin = Dyno_obs.Obs.lineage obs in
  let now () = Query_engine.now w in
  let store =
    if config.self_maint then begin
      let s = aux_store w mv in
      Query_engine.add_admit_hook w (Dyno_selfmaint.Aux_store.on_message s);
      Some s
    end
    else None
  in
  let local = Option.map Dyno_selfmaint.Aux_store.local store in
  (* Multicore runtime: a fixed worker-domain pool for the lifetime of
     the run.  [`Domains 1] still routes through the prepare/compute
     split (serially, on the coordinator) — the honest baseline for
     speedup measurements. *)
  let pool =
    match config.runtime with
    | `Simulated -> None
    | `Domains n ->
        Some
          (Dyno_sim.Domain_pool.create
             ~profiler:(Dyno_obs.Obs.hostprof obs)
             ~domains:n ())
  in
  let fresh =
    Freshness.create
      ~metrics:(Dyno_obs.Obs.metrics obs)
      ~mv
      ~registry:(Query_engine.registry w)
      ~queued:(Umq.messages umq) ()
  in
  let series = Dyno_obs.Obs.series obs in
  if Dyno_obs.Timeseries.enabled series then begin
    let mx = Dyno_obs.Obs.metrics obs in
    Dyno_obs.Timeseries.probe series "umq.depth" (fun _ ->
        float_of_int (List.length (Umq.entries umq)));
    Dyno_obs.Timeseries.probe series "sched.inflight" (fun _ ->
        Dyno_obs.Metrics.gauge_value mx "sched.inflight");
    Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.view_commits"
      (fun _ -> float_of_int stats.Stats.view_commits);
    Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.probes" (fun _ ->
        float_of_int stats.Stats.probes);
    Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.aborts" (fun _ ->
        float_of_int stats.Stats.aborts);
    Dyno_obs.Timeseries.probe series ~kind:`Counter "net.retries" (fun _ ->
        float_of_int (Query_engine.net_retries w));
    Dyno_obs.Timeseries.probe series "sched.busy_ratio" (fun now ->
        if now > 0.0 then stats.Stats.busy /. now else 0.0);
    Dyno_obs.Timeseries.probe series "sched.abort_ratio" (fun _ ->
        if stats.Stats.busy > 0.0 then stats.Stats.abort_cost /. stats.Stats.busy
        else 0.0);
    Dyno_obs.Timeseries.probe series "staleness_s" (fun now ->
        Freshness.staleness_seconds fresh ~now);
    Dyno_obs.Timeseries.probe series "staleness_versions" (fun _ ->
        float_of_int (Freshness.lag_versions fresh));
    Freshness.register_probes fresh series
  end;
  (* One iteration over a non-empty queue, run inside a [Maintain] span.
     Every clock advance below is charged to [Stats.busy] (detection,
     maintenance, post-abort correction, stall recovery), so the span's
     duration equals exactly the busy time this iteration contributes —
     the invariant Σ maintain-span durations = Stats.busy rests on it. *)
  let iteration mid =
    (match config.strategy with
    | Strategy.Pessimistic -> detect_and_correct ~force:false w mv stats
    | Strategy.Optimistic | Strategy.Merge_all ->
        (* No pre-exec pass; the flag is left set and ignored. *)
        ());
    (* Deferred/grouped maintenance: collapse a prefix of single DUs
       into one transient batch entry.  Taking a queue prefix preserves
       the legal order. *)
    let group_size =
      if config.du_group <= 1 || not (View_def.is_valid (Mat_view.def mv))
      then 0
      else begin
        let rec count n = function
          | Umq.Single m :: rest
            when Update_msg.is_du m && n < config.du_group ->
              count (n + 1) rest
          | _ -> n
        in
        count 0 (Umq.entries umq)
      end
    in
    if group_size > 1 then begin
      Dyno_obs.Span.set_name sp mid (Fmt.str "group of %d" group_size);
      let msgs =
        List.filteri (fun i _ -> i < group_size) (Umq.entries umq)
        |> List.concat_map Umq.entry_messages
      in
      Umq.clear_broken_query_flag umq;
      let t0 = Query_engine.now w in
      let gids = List.map Update_msg.id msgs in
      Dyno_obs.Lineage.dispatch lin ~ids:gids ~time:t0
        ~detail:(Fmt.str "dispatched in a grouped sweep of %d" group_size)
        ();
      Dyno_obs.Lineage.set_scope lin gids;
      match
        Dyno_vm.Vm.maintain_group ~compensate:config.compensate ?local w mv
          msgs
      with
      | Dyno_vm.Vm.Unreachable u ->
          Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
          stall_and_wait w stats ~t0 u;
          Dyno_obs.Lineage.stall lin ~ids:gids ~time:(Query_engine.now w)
            ~detail:(Fmt.str "%a" Dyno_net.Retry.pp_unreachable u)
      | (Dyno_vm.Vm.Refreshed _ | Dyno_vm.Vm.Irrelevant) as res ->
          Dyno_obs.Span.set_attr sp mid "outcome" "done";
          stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0);
          stats.Stats.batches <- stats.Stats.batches + 1;
          stats.Stats.batch_updates <-
            stats.Stats.batch_updates + List.length msgs;
          stats.Stats.view_commits <- stats.Stats.view_commits + 1;
          Freshness.note_entry fresh ~now:(Query_engine.now w) msgs;
          (let state, detail =
             match res with
             | Dyno_vm.Vm.Irrelevant ->
                 ( Dyno_obs.Lineage.Irrelevant,
                   "grouped sweep: no pivot rows in the view" )
             | _ ->
                 ( Dyno_obs.Lineage.Applied,
                   Fmt.str "grouped sweep of %d applied atomically" group_size
                 )
           in
           Dyno_obs.Lineage.finish lin ~ids:gids ~time:(Query_engine.now w)
             ~state ~detail);
          for _ = 1 to group_size do
            Umq.remove_head umq
          done
      | Dyno_vm.Vm.Aborted b ->
          let dt = Query_engine.now w -. t0 in
          stats.Stats.busy <- stats.Stats.busy +. dt;
          stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
          stats.Stats.aborts <- stats.Stats.aborts + 1;
          stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
          Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
          Dyno_obs.Span.set_attr sp mid "abort_s" (Fmt.str "%.17g" dt);
          Trace.recordf trace ~time:(Query_engine.now w) Trace.Abort
            "grouped maintenance aborted after %.3f s: %a" dt
            Dyno_source.Data_source.pp_broken b;
          Dyno_obs.Lineage.abort lin ~ids:gids ~time:(Query_engine.now w)
            ~detail:(abort_provenance umq b);
          (match config.strategy with
          | Strategy.Pessimistic ->
              if not (Umq.peek_schema_change_flag umq) then
                detect_and_correct ~force:true w mv stats
          | Strategy.Optimistic -> detect_and_correct ~force:true w mv stats
          | Strategy.Merge_all ->
              let r = Correct.merge_all umq in
              if r.Correct.reordered then begin
                stats.Stats.corrections <- stats.Stats.corrections + 1;
                stats.Stats.merges <- stats.Stats.merges + 1
              end)
    end
    else
      (* Dependency-parallel dispatch: maintain a whole antichain of the
         corrected topological order concurrently.  Falls through to the
         historical serial path when fewer than two entries qualify, so
         [parallel = 1] is bit-identical to the serial scheduler. *)
      match antichain ~config umq mv with
      | _ :: _ :: _ as members ->
          parallel_round ?local ?pool ~config ~fresh w mv stats mid members
      | _ -> (
          match Umq.head umq with
          | None -> ()
          | Some entry -> (
        if Dyno_obs.Span.enabled sp then
          Dyno_obs.Span.set_name sp mid (Fmt.str "%a" Umq.pp_entry entry);
        Umq.clear_broken_query_flag umq;
        let t0 = Query_engine.now w in
        Dyno_obs.Lineage.dispatch lin ~ids:(Umq.entry_ids entry) ~time:t0
          ~detail:"dispatched at queue head" ();
        match
          maintain_entry ?local ~compensate:config.compensate
            ~vm_mode:config.vm_mode w mv mk stats entry
        with
        | Done ->
            Dyno_obs.Span.set_attr sp mid "outcome" "done";
            stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0);
            Freshness.note_entry fresh ~now:(Query_engine.now w)
              (Umq.entry_messages entry);
            Umq.remove_head umq
        | UnreachableStep u ->
            Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
            stall_and_wait w stats ~t0 u;
            Dyno_obs.Lineage.stall lin ~ids:(Umq.entry_ids entry)
              ~time:(Query_engine.now w)
              ~detail:(Fmt.str "%a" Dyno_net.Retry.pp_unreachable u)
        | AbortedStep b ->
            let dt = Query_engine.now w -. t0 in
            stats.Stats.busy <- stats.Stats.busy +. dt;
            stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
            stats.Stats.aborts <- stats.Stats.aborts + 1;
            stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
            Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
            Dyno_obs.Span.set_attr sp mid "abort_s" (Fmt.str "%.17g" dt);
            Trace.recordf trace ~time:(Query_engine.now w) Trace.Abort
              "maintenance aborted after %.3f s: %a" dt
              Dyno_source.Data_source.pp_broken b;
            Dyno_obs.Lineage.abort lin ~ids:(Umq.entry_ids entry)
              ~time:(Query_engine.now w) ~detail:(abort_provenance umq b);
            (match config.strategy with
            | Strategy.Pessimistic ->
                (* The SC that broke us set the schema-change flag when it
                   was enqueued; the next iteration's pre-exec pass will
                   correct the queue (Figure 6: "corrected in the next
                   loop").  Defensive: if the flag is somehow already
                   consumed, force a correction now rather than retry the
                   same doomed head forever. *)
                if not (Umq.peek_schema_change_flag umq) then
                  detect_and_correct ~force:true w mv stats
            | Strategy.Optimistic ->
                (* In-exec detection is the only mechanism: correct now. *)
                detect_and_correct ~force:true w mv stats
            | Strategy.Merge_all ->
                let t1 = Query_engine.now w in
                let r = Correct.merge_all umq in
                if r.Correct.reordered then begin
                  stats.Stats.corrections <- stats.Stats.corrections + 1;
                  stats.Stats.merges <- stats.Stats.merges + 1;
                  Trace.recordf trace ~time:(Query_engine.now w) Trace.Merge
                    "merge-all: %d update(s) collapsed" r.Correct.merged_updates;
                  note_merge_all lin ~time:(Query_engine.now w) r
                end;
                stats.Stats.busy <-
                  stats.Stats.busy +. (Query_engine.now w -. t1))))
  in
  let rec loop () =
    incr steps;
    if !steps > config.max_steps then raise (Step_limit_exceeded !steps);
    Query_engine.deliver_due w;
    (* Revalidate auxiliary projections whose invalidating schema changes
       have all been maintained (no-op unless something is invalid). *)
    (match store with Some s -> sync_aux w s mv | None -> ());
    (* Sampling at scheduler wakeups: every state change in the simulation
       happens at a wakeup, so sampling here (rate-limited to the series
       interval) captures every change-point without touching the clock. *)
    ignore
      (Dyno_obs.Timeseries.maybe_sample series ~now:(Query_engine.now w)
        : bool);
    if Umq.is_empty umq then begin
      (* Wake for the next scheduled commit OR the next in-flight message
         arrival — with transport delay the timeline can be drained while
         messages are still on the wire. *)
      match Query_engine.next_wakeup w with
      | None -> () (* drained: done *)
      | Some t ->
          let dt = t -. Query_engine.now w in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          Query_engine.idle_until w t;
          loop ()
    end
    else begin
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Maintain
        (if Dyno_obs.Span.enabled sp then Fmt.str "step %d" !steps else "")
        iteration;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Dyno_sim.Domain_pool.shutdown pool;
      (* Rings are safe to read once the workers joined. *)
      drain_hostprof w)
    loop;
  (* Force a final sample at quiescence so the series always ends with the
     caught-up state (staleness exactly 0). *)
  Dyno_obs.Timeseries.sample series ~now:(Query_engine.now w);
  stats.Stats.end_time <- Query_engine.now w;
  record_net_stats w stats;
  mirror_stats obs stats;
  mirror_trace_dropped w;
  stats
