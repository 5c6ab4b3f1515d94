(** The query engine and simulated world.

    Ties together the simulated clock, the timeline of future autonomous
    source commits, the source registry, the UMQ — and, since the
    transport layer, the message {!Dyno_net.Channel} that separates the
    view manager from the sources.  Responsibilities:

    - {b UMQ manager} (Figure 7, [UMQ_Manager]): whenever simulated time
      passes a scheduled commit, the commit is applied at its source and
      the corresponding update message is handed to the {e wrapper's
      channel}; when its copy arrives it runs through the UMQ's
      exactly-once sequencer (dedup + gap-aware reordering) and is
      enqueued (setting the schema-change flag for SCs).
    - {b Query execution with in-exec detection} (Figure 7,
      [Query_Engine]): a maintenance query is charged its latency and scan
      cost on the simulated clock; every source commit whose time precedes
      the answer is applied {e first}, so the answer reflects exactly the
      interleaving semantics of Definition 2.  A schema mismatch yields
      [Error (Broken _)] and raises the broken-query flag.
    - {b Retry under transport faults}: a probe that is lost or hits an
      outage window times out and is retried with exponential backoff; an
      exhausted budget yields [Error (Unreachable _)], which the scheduler
      treats as a transient stall (wait and retry the maintenance step),
      {e not} as an abort into VS/VA.

    With the default {!Dyno_net.Channel.reliable} faults the channel is a
    structural pass-through (no RNG draws, arrival = send time), so
    zero-fault runs are bit-identical to the historical direct-call
    path. *)

open Dyno_relational
open Dyno_sim
open Dyno_net

(** One transport route: a shard's UMQ and the channel feeding it.  A
    single-view-manager world has exactly one route; a sharded world has
    one per shard (each with its own exactly-once sequencer inside the
    UMQ and its own fault/RNG stream), with commits routed by source
    ownership.  Route 0 doubles as the historical single queue. *)
type route = {
  r_umq : Umq.t;
  r_channel : Update_msg.payload Channel.t;
}

type t = {
  clock : Clock.t;
  exec : Executor.t;
      (** cooperative task executor over [clock]; outside any task its
          sleeps degenerate to plain clock advances, so serial runs are
          untouched *)
  timeline : Timeline.t;
  registry : Dyno_source.Registry.t;
  routes : route array;
      (** wrapper→UMQ transport(s); one per shard, routed by source *)
  route_of : string -> int;  (** source → owning route index *)
  cost : Cost_model.t;
  trace : Trace.t;
  planner : Eval.plan;
      (** physical plan every query through this engine runs with *)
  retry : Retry.policy;  (** probe retry policy *)
  obs : Dyno_obs.Obs.t;  (** span recorder + metrics registry *)
  held_since : (string * int, float) Hashtbl.t;
      (** arrival time of copies the UMQ is holding for reordering,
          keyed (source, seq) — feeds the [umq.hold_s] histogram *)
  mutable timeouts : int;  (** probe attempts that got no answer in time *)
  mutable retries : int;  (** probe attempts re-sent after backoff *)
  mutable net_wait : float;  (** simulated seconds lost to transport, s *)
  mutable admit_hooks : (Update_msg.t -> unit) list;
      (** observers of the admitted update stream (install order);
          empty by default — see {!add_admit_hook} *)
}

let create ?(trace = Trace.create ()) ?(planner = `Indexed)
    ?(faults = Channel.reliable) ?(net_seed = 0)
    ?(obs = Dyno_obs.Obs.disabled) ?(route_of = fun _ -> 0) ~cost ~registry
    ~timeline ~umqs () =
  let n = Array.length umqs in
  if n = 0 then invalid_arg "Query_engine.create: no queues";
  (* One route carries every source: no lookup. *)
  let route_of =
    if n = 1 then fun _ -> 0
    else fun source ->
      let i = route_of source in
      if i < 0 || i >= n then
        invalid_arg
          (Fmt.str "Query_engine: source %s routed to shard %d of %d" source
             i n);
      i
  in
  let clock = Clock.create () in
  let exec = Executor.create clock in
  (* Keep span nesting honest under task interleaving: every context
     switch retargets the recorder's ambient open-span stack (context 0
     is the serial driver; task [i] gets context [i + 1]). *)
  Executor.on_switch exec (fun task ->
      let ctx = match task with None -> 0 | Some i -> i + 1 in
      Dyno_obs.Span.set_context (Dyno_obs.Obs.spans obs) ctx;
      (* Lineage shares the ambient context so probe round-trips are
         charged to the update(s) the running task is maintaining. *)
      Dyno_obs.Lineage.set_context (Dyno_obs.Obs.lineage obs) ctx);
  {
    clock;
    exec;
    timeline;
    registry;
    (* Route [i]'s channel gets its own RNG stream ([net_seed + i]) so the
       fault draws of distinct shards are independent. *)
    routes =
      Array.mapi
        (fun i umq ->
          {
            r_umq = umq;
            r_channel = Channel.create ~faults ~obs ~seed:(net_seed + i) ();
          })
        umqs;
    route_of;
    cost;
    trace;
    planner;
    retry = Retry.of_cost cost;
    obs;
    held_since = Hashtbl.create 16;
    timeouts = 0;
    retries = 0;
    net_wait = 0.0;
    admit_hooks = [];
  }

let now w = Clock.now w.clock
let clock w = w.clock
let executor w = w.exec
let trace w = w.trace
let umq w = w.routes.(0).r_umq
let registry w = w.registry
let cost w = w.cost
let planner w = w.planner
let obs w = w.obs
let net_timeouts w = w.timeouts
let net_retries w = w.retries
let net_wait w = w.net_wait

let route w source = w.routes.(w.route_of source)

let add_admit_hook w h = w.admit_hooks <- w.admit_hooks @ [ h ]

let route_of w = w.route_of
let umqs w = Array.to_list (Array.map (fun r -> r.r_umq) w.routes)

let net_msgs_lost w =
  Array.fold_left
    (fun acc r -> acc + Channel.lost_transmissions r.r_channel)
    0 w.routes

let net_msgs_duplicated w =
  Array.fold_left
    (fun acc r -> acc + Channel.duplicates_sent r.r_channel)
    0 w.routes

let umq_dups_dropped w =
  Array.fold_left (fun acc r -> acc + Umq.dups_dropped r.r_umq) 0 w.routes

let umq_reorders_healed w =
  Array.fold_left (fun acc r -> acc + Umq.reorders_healed r.r_umq) 0 w.routes

let set_broken_query_flags w =
  Array.iter (fun r -> Umq.set_broken_query_flag r.r_umq) w.routes

(* When a packet reached the warehouse: its planned arrival, or now when
   a probe's flush (FIFO-stream semantics) admits it ahead of that plan —
   a lineage record's cursor must never move back.  A packet that is due
   reads no boxed clock. *)
let arrived_by w (p : Update_msg.payload Channel.packet) =
  if Clock.reached w.clock p.arrival then p.arrival else now w

(* Run one arriving copy through its route's exactly-once sequencer.
   With lineage and the trace off, admitting a message builds no text
   and reads no boxed clock for them. *)
let admit_packet w ri (p : Update_msg.payload Channel.packet) =
  let lin = Dyno_obs.Obs.lineage w.obs in
  match
    Umq.deliver w.routes.(ri).r_umq ~source:p.source ~commit_time:p.sent
      ~source_version:p.seq p.payload
  with
  | Umq.Admitted ms ->
      List.iter
        (fun m ->
          let version = Update_msg.source_version m in
          (* A message the sequencer had been holding for reordering is
             released now: charge its hold time to the UMQ histogram. *)
          (match Hashtbl.find_opt w.held_since (p.source, version) with
          | Some since ->
              Hashtbl.remove w.held_since (p.source, version);
              Dyno_obs.Metrics.observe
                (Dyno_obs.Obs.metrics w.obs)
                "umq.hold_s" (now w -. since)
          | None -> ());
          if Dyno_obs.Lineage.enabled lin then begin
            (* The carried packet arrives now; messages drained from the
               gap hold already recorded their arrival when they were
               held, so only their hold wait closes here (in [admit]). *)
            if version = p.seq then
              Dyno_obs.Lineage.arrive lin ~source:p.source ~seq:p.seq
                ~time:(arrived_by w p);
            Dyno_obs.Lineage.admit lin ~source:p.source ~seq:version
              ~time:(now w) ~msg_id:(Update_msg.id m)
          end;
          if Trace.enabled w.trace then
            Trace.record w.trace ~time:(now w) Trace.Enqueue
              (lazy (Fmt.str "%a" Update_msg.pp m));
          List.iter (fun h -> h m) w.admit_hooks)
        ms
  | Umq.Duplicate ->
      Dyno_obs.Metrics.incr (Dyno_obs.Obs.metrics w.obs) "umq.duplicates";
      Dyno_obs.Lineage.dedup lin ~source:p.source ~seq:p.seq ~time:(now w);
      Trace.record w.trace ~time:(now w) Trace.Msg_duplicated
        (lazy (Fmt.str "dropped duplicate seq %d from %s" p.seq p.source))
  | Umq.Held ->
      Hashtbl.replace w.held_since (p.source, p.seq) (now w);
      Dyno_obs.Lineage.arrive lin ~source:p.source ~seq:p.seq
        ~time:(arrived_by w p);
      Dyno_obs.Lineage.held lin ~source:p.source ~seq:p.seq ~time:(now w);
      Dyno_obs.Metrics.incr (Dyno_obs.Obs.metrics w.obs) "umq.held";
      Dyno_obs.Span.instant
        (Dyno_obs.Obs.spans w.obs)
        ~time:(now w) ~thread:p.source "umq-held"
        (lazy (Fmt.str "seq=%d" p.seq));
      Trace.record w.trace ~time:(now w) Trace.Info
        (lazy (Fmt.str "holding out-of-order seq %d from %s" p.seq p.source))

(* Deliver every channel copy whose arrival time has passed.  With
   several routes, due packets are merged in global arrival order (ties
   keep route-index order) so cross-shard admission is deterministic. *)
let deliver_arrived w =
  if Array.length w.routes = 1 then
    List.iter (admit_packet w 0) (Channel.due w.routes.(0).r_channel ~now:(now w))
  else begin
    let batches = ref [] in
    for i = Array.length w.routes - 1 downto 0 do
      match Channel.due w.routes.(i).r_channel ~now:(now w) with
      | [] -> ()
      | ps -> batches := List.map (fun p -> (i, p)) ps :: !batches
    done;
    match !batches with
    | [] -> ()
    | [ ps ] -> List.iter (fun (i, p) -> admit_packet w i p) ps
    | several ->
        List.concat several
        |> List.stable_sort
             (fun (_, (a : Update_msg.payload Channel.packet)) (_, b) ->
               Float.compare a.Channel.arrival b.Channel.arrival)
        |> List.iter (fun (i, p) -> admit_packet w i p)
  end

(* Does some route's channel hold a copy in flight? *)
let rec in_flight routes i =
  i < Array.length routes
  && (Channel.has_packets routes.(i).r_channel || in_flight routes (i + 1))

(** [deliver_due w] applies every source commit scheduled at or before the
    current simulated time, sends the corresponding message down the
    wrapper's channel, and delivers every channel copy that has arrived. *)
let deliver_due w =
  (* The common case — no commit due, no copy in flight — allocates
     nothing. *)
  let commit_due =
    match Timeline.peek_all w.timeline with
    | e :: _ -> Clock.reached w.clock e.Timeline.time
    | [] -> false
  in
  if commit_due || in_flight w.routes 0 then begin
    List.iter
      (fun (e : Timeline.entry) ->
        let src, version =
          Dyno_source.Registry.commit w.registry ~time:e.time e.event
        in
        let source = Dyno_source.Data_source.id src in
        if Trace.enabled w.trace then
          Trace.record w.trace ~time:e.time Trace.Commit
            (lazy
              (Fmt.str "%s v%d: %a" source version Timeline.pp_event e.event));
        (* The first commit carries the lowest seq this source will ever
           send; registering it here (before any delivery can happen)
           anchors the sequencer even if that first message is reordered. *)
        let r = route w source in
        Umq.ensure_source r.r_umq ~source ~first_seq:version;
        let event = e.event in
        let lin = Dyno_obs.Obs.lineage w.obs in
        if Dyno_obs.Lineage.enabled lin then
          Dyno_obs.Lineage.commit lin ~source ~seq:version ~time:e.time
            ~sc:(match event with Timeline.Sc _ -> true | Timeline.Du _ -> false)
            ~detail:(lazy (Fmt.str "%a" Timeline.pp_event event));
        let report =
          Channel.send r.r_channel ~now:e.time ~source ~seq:version event
        in
        if Dyno_obs.Lineage.enabled lin then
          Dyno_obs.Lineage.sent lin ~source ~seq:version ~time:e.time
            ~transmissions:report.transmissions ~duplicated:report.duplicated
            ~arrival:report.arrival;
        if report.transmissions > 1 && Trace.enabled w.trace then
          Trace.record w.trace ~time:e.time Trace.Msg_dropped
            (lazy
              (Fmt.str "%s seq %d: %d transmission(s) lost, retransmitted"
                 source version
                 (report.transmissions - 1)));
        deliver_arrived w)
      (Timeline.pop_until w.timeline ~time:(now w));
    deliver_arrived w
  end

(** [advance w dt] spends [dt] simulated seconds of view-manager work and
    delivers any source commits that happen meanwhile.  Inside an
    executor task the wait parks the task (other tasks run and the clock
    moves under them); outside any task it is a plain clock advance —
    either way commits due by the wake-up time are delivered before
    control returns. *)
let advance w dt =
  Executor.sleep_for w.exec dt;
  deliver_due w

(** [idle_until w t] lets the view manager sit idle until absolute time [t]
    (used by no-concurrency baselines that space updates apart). *)
let idle_until w t =
  if t > now w then begin
    Executor.sleep_until w.exec t;
    deliver_due w
  end

(** Next instant at which something is scheduled to happen without the
    view manager doing anything: a future source commit or an in-flight
    message arrival. *)
let next_wakeup w =
  let min_opt a b =
    match (a, b) with
    | None, t | t, None -> t
    | Some a, Some b -> Some (Float.min a b)
  in
  Array.fold_left
    (fun acc r -> min_opt acc (Channel.next_arrival r.r_channel))
    (Timeline.next_time w.timeline)
    w.routes

(* A probe answer from [source] arrived on the same FIFO stream as the
   source's update messages, so every message it sent earlier has arrived
   too: flush them into the UMQ before the answer is used.  This is what
   keeps the SWEEP compensation frontier exact under transport delay. *)
let flush_in_flight w ~source =
  let ri = w.route_of source in
  match Channel.flush_source w.routes.(ri).r_channel ~source with
  | [] -> ()
  | ps -> List.iter (admit_packet w ri) ps

(** How a maintenance query can fail:

    - [Broken] — the genuine broken query of the paper: a schema conflict
      detected in-exec; the maintenance process must abort into VS/VA.
    - [Unreachable] — a transient transport failure: the retry budget was
      exhausted without an answer; the maintenance step should be retried
      once the source is reachable again.  No abort, no correction. *)
type failure =
  | Broken of Dyno_source.Data_source.broken
  | Unreachable of Retry.unreachable

let pp_failure ppf = function
  | Broken b -> Dyno_source.Data_source.pp_broken ppf b
  | Unreachable u -> Retry.pp_unreachable ppf u

(* Retry skeleton shared by [round_trip] and [validate]: decide the fate of
   each RPC attempt against the fault config, charging timeout + backoff
   on the simulated clock (commits keep being delivered meanwhile), until
   an attempt goes through or the budget is exhausted. *)
let rec rpc_attempt w ~target ~what
    (attempt_ok : unit -> ('a, failure) result) ~n ~waited :
    ('a, failure) result =
  let ch = (route w target).r_channel in
  let outage = Channel.outage_at ch ~source:target ~now:(now w) in
  let lost =
    match outage with Some _ -> true | None -> Channel.rpc_lost ch
  in
  if not lost then attempt_ok ()
  else begin
    let sp = Dyno_obs.Obs.spans w.obs
    and mx = Dyno_obs.Obs.metrics w.obs in
    w.timeouts <- w.timeouts + 1;
    Dyno_obs.Metrics.incr mx "net.timeouts";
    (match outage with
    | Some o ->
        Trace.record w.trace ~time:(now w) Trace.Outage
          (lazy (Fmt.str "%s unreachable (outage until %.3fs)" target o.ends))
    | None -> ());
    Dyno_obs.Span.with_span sp
      ~now:(fun () -> now w)
      Dyno_obs.Span.Timeout
      (lazy (Fmt.str "%s %s attempt %d" what target n))
      (fun _ -> advance w w.retry.Retry.timeout);
    w.net_wait <- w.net_wait +. w.retry.Retry.timeout;
    Trace.record w.trace ~time:(now w) Trace.Timeout
      (lazy
        (Fmt.str "%s %s: no answer after %.3fs (attempt %d/%d)" what target
           w.retry.Retry.timeout n w.retry.Retry.max_attempts));
    let waited = waited +. w.retry.Retry.timeout in
    if n >= w.retry.Retry.max_attempts then
      Error (Unreachable { Retry.source = target; attempts = n; waited })
    else begin
      let backoff = Retry.backoff_delay w.retry ~attempt:n in
      Dyno_obs.Span.with_span sp
        ~now:(fun () -> now w)
        Dyno_obs.Span.Retry
        (lazy (Fmt.str "%s %s backoff %d" what target n))
        (fun _ -> advance w backoff);
      w.net_wait <- w.net_wait +. backoff;
      w.retries <- w.retries + 1;
      Dyno_obs.Metrics.incr mx "net.retries";
      Trace.record w.trace ~time:(now w) Trace.Retry
        (lazy
          (Fmt.str "%s %s: retry %d/%d after %.3fs backoff" what target
             (n + 1) w.retry.Retry.max_attempts backoff));
      rpc_attempt w ~target ~what attempt_ok ~n:(n + 1)
        ~waited:(waited +. backoff)
    end
  end

let with_rpc w ~target ~what attempt_ok =
  rpc_attempt w ~target ~what attempt_ok ~n:1 ~waited:0.0

(* Wrap one probe (or validate) round trip in a [Probe] span, tagging its
   outcome and feeding the [probe.rtt_s] histogram. *)
let probe_span w ~target ~what (body : unit -> ('a, failure) result) :
    ('a, failure) result =
  let sp = Dyno_obs.Obs.spans w.obs in
  let lin = Dyno_obs.Obs.lineage w.obs in
  let mx = Dyno_obs.Obs.metrics w.obs in
  (* With every recorder off there is nothing to wrap. *)
  if
    not
      (Dyno_obs.Span.enabled sp || Dyno_obs.Lineage.enabled lin
     || Dyno_obs.Metrics.enabled mx)
  then body ()
  else
  let name = lazy (what ^ " " ^ target) in
  Dyno_obs.Span.with_span sp
    ~now:(fun () -> now w)
    Dyno_obs.Span.Probe name
    (fun span_id ->
      let t0 = now w in
      Dyno_obs.Lineage.probe_begin lin ~time:t0;
      let result = body () in
      let outcome =
        match result with
        | Ok _ -> "ok"
        | Error (Broken _) -> "broken"
        | Error (Unreachable _) -> "unreachable"
      in
      Dyno_obs.Span.set_attr sp span_id "target" target;
      Dyno_obs.Span.set_attr sp span_id "outcome" outcome;
      let rtt = now w -. t0 in
      Dyno_obs.Lineage.probe_end lin ~time:(now w)
        ~detail:
          (lazy
            (Fmt.str "%s %s: %s, rtt %.3fs" (Lazy.force name) target outcome
               rtt));
      Dyno_obs.Metrics.observe mx "probe.rtt_s" rtt;
      result)

(* The scan a probe's source is about to do: the current sizes of its
   local relations. *)
let rec scan_estimate src ~target acc = function
  | [] -> acc
  | (tr : Query.table_ref) :: rest ->
      let acc =
        if String.equal tr.source target then
          match Dyno_source.Data_source.relation_opt src tr.rel with
          | Some r -> acc + Relation.support r
          | None -> acc
        else acc
      in
      scan_estimate src ~target acc rest

(* The issue half of a probe round trip: the caller parks for the round
   trip + source scan on the executor ([advance]), so other tasks' probes
   overlap it.  The answer travels the source's FIFO stream, so its
   earlier update messages are flushed into the UMQ first (SWEEP's
   per-source ordering assumption).  Returns the instant the source
   answers. *)
let probe_issue w ~target ~scan_estimate =
  advance w (Cost_model.probe w.cost ~scanned:scan_estimate ~returned:0);
  flush_in_flight w ~source:target;
  now w

(* The complete half: the source's verdict, then the result transfer. *)
let probe_complete w ~target answered_at = function
  | Ok (ans : Dyno_source.Data_source.answer) ->
      (* Result transfer: time passes but commits landing in this
         window are NOT delivered yet — the answer was computed before
         them, so the caller's compensation frontier must not include
         them either.  They are delivered at the next source
         interaction.  (In a task, other tasks run meanwhile and may
         deliver their own commits — hence [answered_at].) *)
      Executor.sleep_for w.exec
        (Cost_model.probe w.cost ~scanned:0 ~returned:(Rows.support ans.rows)
         -. w.cost.Cost_model.query_latency
        |> Float.max 0.0);
      if Trace.enabled w.trace then
        Trace.record w.trace ~time:(now w) Trace.Query_answered
          (lazy (Fmt.str "%s -> %d rows" target (Rows.support ans.rows)));
      Ok (ans, answered_at)
  | Error b ->
      set_broken_query_flags w;
      Trace.record w.trace ~time:(now w) Trace.Broken_query
        (lazy (Fmt.str "%a" Dyno_source.Data_source.pp_broken b));
      Error (Broken b)

(** [round_trip ~fetch w q ~bound ~target] runs one maintenance-query
    probe against source [target], in a [Probe] span.

    Timing: the round-trip latency plus the source-side scan cost elapse
    {e before} the answer is computed, and every source commit falling in
    that window is applied first — so the answer reflects all updates
    "committed before the query is answered" (Definition 2), which is what
    makes compensation necessary and schema conflicts observable.  The
    result-transfer cost elapses after evaluation.  Only the source call
    differs: an adaptation's [fetch] ({!Dyno_source.Data_source.fetch},
    nothing shipped), or {!Dyno_source.Data_source.answer} with [bound]
    shipped and [plan] as prepared. *)
let round_trip ?plan ~fetch w (q : Query.t) ~bound ~target :
    (Dyno_source.Data_source.answer * float, failure) result =
  if Trace.enabled w.trace then
    Trace.record w.trace ~time:(now w) Trace.Query_sent
      (lazy (Fmt.str "%s <- %s" target (Query.name q)));
  let src = Dyno_source.Registry.find w.registry target in
  let scan_estimate = scan_estimate src ~target 0 (Query.from q) in
  let attempt () =
    let answered_at = probe_issue w ~target ~scan_estimate in
    probe_complete w ~target answered_at
      (if fetch then Dyno_source.Data_source.fetch ~planner:w.planner src q
       else Dyno_source.Data_source.answer ~planner:w.planner ?plan src q ~bound)
  in
  probe_span w ~target ~what:"probe" (fun () ->
      with_rpc w ~target ~what:"probe" attempt)

let execute_timed ?plan w q ~bound ~target =
  round_trip ?plan ~fetch:false w q ~bound ~target

let fetch w q ~target = Result.map fst (round_trip ~fetch:true w q ~bound:[] ~target)

(** [unpin w ~source r] releases a pin {!fetch} took on [r]. *)
let unpin w ~source r =
  Dyno_source.Data_source.unpin (Dyno_source.Registry.find w.registry source) r

(** [validate w q ~target] — lightweight metadata check of [q] against
    source [target]'s current catalog: one round trip, no scan.  View
    adaptation interleaves these with its computation so that a schema
    change committed at any point of the maintenance window is detected
    (in-exec) before the view commits. *)
let validate w (q : Query.t) ~target : (unit, failure) result =
  probe_span w ~target ~what:"validate" @@ fun () ->
  let src = Dyno_source.Registry.find w.registry target in
  with_rpc w ~target ~what:"validate" (fun () ->
      advance w w.cost.Cost_model.query_latency;
      flush_in_flight w ~source:target;
      match Dyno_source.Data_source.validate src q with
      | Ok () -> Ok ()
      | Error b ->
          set_broken_query_flags w;
          Trace.record w.trace ~time:(now w) Trace.Broken_query
            (lazy
              (Fmt.str "validation: %a" Dyno_source.Data_source.pp_broken b));
          Error (Broken b))

(** [await_recovery w ~source] — called by the scheduler after an
    [Unreachable] verdict: wait out the source's outage window if one is
    active (otherwise one retry-timeout as a cool-down), delivering
    commits meanwhile.  Returns the simulated seconds waited. *)
let await_recovery w ~source =
  let t0 = now w in
  (match Channel.outage_at (route w source).r_channel ~source ~now:t0 with
  | Some o -> idle_until w o.ends
  | None ->
      advance w
        (Float.max w.retry.Retry.timeout w.cost.Cost_model.retransmit_interval));
  let dt = now w -. t0 in
  w.net_wait <- w.net_wait +. dt;
  dt

(** [source_relation w ~source ~rel] direct read of a source's current
    relation — used by adaptation, which the paper models as maintenance
    queries too; we charge it through [execute_timed]-style costs at the
    caller. *)
let source_relation w ~source ~rel =
  let src = Dyno_source.Registry.find w.registry source in
  Dyno_source.Data_source.relation_opt src rel

(** The concurrent data updates pending against relation [rel] at
    [source], summed per delta schema by the source's queue — the
    information compensation needs. *)
let pending_sums ?after w ~source ~rel ~exclude =
  Umq.pending_sums ?after (route w source).r_umq ~source ~rel ~exclude
