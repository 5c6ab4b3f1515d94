(* Host-clock benchmark driver for Dyno.

   One invocation replays one seeded workload timeline and prints one JSON
   object of raw measurements as the last line of stdout; perfbench/run.py
   repeats invocations for a wall-clock budget and aggregates them.

     dynobench.exe run    WORKLOAD SEED   untraced Scenario.make + Scenario.run
     dynobench.exe trace  WORKLOAD SEED   traced replay: per-layer figures
     dynobench.exe strong WORKLOAD SEED   short replay with snapshot tracking,
                                          checked by Scenario.check_strong

   Every replay is checked outside the timed region: convergence, and every
   admitted update integrated by exactly one view commit.  The traced
   replay must also reproduce the untraced one.  Exit status: 0 when every
   check passed, 1 when one failed, 2 on a usage error, 3 when the replay
   raised. *)

open Dyno_view
open Dyno_core
open Dyno_workload

(* ---- Output --------------------------------------------------------- *)

type json = F of float | I of int | S of string | L of json list | O of (string * json) list

(* One line, every digit of a float: Jsonv.to_string pretty-prints at %.6g. *)
let rec json_string = function
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | I i -> string_of_int i
  | S s -> Dyno_jsonv.Jsonv.quote s
  | L xs -> "[" ^ String.concat "," (List.map json_string xs) ^ "]"
  | O kvs ->
      let member (k, v) = Dyno_jsonv.Jsonv.quote k ^ ":" ^ json_string v in
      "{" ^ String.concat "," (List.map member kvs) ^ "}"

let emit fields = print_endline (json_string (O fields))

(* ---- Host probes ---------------------------------------------------- *)

let since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0
let retained_mb v = mb_of_words (Obj.reachable_words (Obj.repr v))

(* VmHWM: the process's peak resident set, MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* Host speed.  On a shared host the same replay's wall time drifts by a
   quarter or more within minutes, and by almost 2x within an hour, so the
   untraced mode also times this fixed mix of hashing, allocation and
   sorting around each replay, and scales its host times to the speed at
   which the mix takes [probe_ref_s].  In 20 s windows of steady replays
   that cut the spread of the median updates/s from 12.6% to 4.3%. *)
let probe_ref_s = 0.035

let speed_probe () =
  let t0 = Monotonic_clock.now () in
  for round = 1 to 4 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 10_000 do
      Hashtbl.replace h (((round * 10_000) + i) * 7919 land 0xFFFFF) (string_of_int i)
    done;
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
    ignore (Sys.opaque_identity (List.sort compare l))
  done;
  since t0

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* ---- Workloads ------------------------------------------------------ *)

let rows = 500

(* The paper world: 500 physical rows per relation, charged as if each
   held the paper's 100k. *)
let cost = Dyno_sim.Cost_model.scaled (100_000.0 /. float_of_int rows)

type workload = {
  name : string;
  dus : int;  (** data updates in a timed replay *)
  strong_dus : int;  (** data updates in the snapshot-tracked replay *)
  arrivals : int -> Generator.request list;
      (** commit schedule (simulated seconds) for a number of DUs *)
  world : seed:int -> Scenario.Config.t;
  config : Run_config.t;
  params : (string * json) list;
}

let paper_world ~seed:_ =
  Scenario.Config.(default |> with_rows rows |> with_cost cost)

let every interval n =
  List.init n (fun k -> Generator.At_du (interval *. float_of_int k))

(* Schema changes every [period] sim s inside [0, horizon), cycling
   through [kinds]. *)
let sc_train ~period ~horizon kinds =
  let kinds = Array.of_list kinds in
  let rec go j acc =
    let t = period *. float_of_int (j + 1) in
    if t >= horizon then List.rev acc
    else
      go (j + 1)
        (Generator.At_sc (t, kinds.(j mod Array.length kinds)) :: acc)
  in
  go 0 []

(* Timelines are short so that run.py can average many per run.  Near
   saturation one long timeline's staleness p99 is set by its rarest queue
   excursion: across seeds its quartiles spread 29% of the median at 10k
   DUs on steady, 3% at 2k. *)

(* One DU every 0.3 sim s is ~88% of the ~0.263 s/DU service time: the
   queue stays shallow and the schema-change flag keeps detection O(1). *)
let steady =
  {
    name = "steady";
    dus = 2_000;
    strong_dus = 400;
    arrivals = every 0.3;
    world = paper_world;
    config = Run_config.default;
    params =
      [
        ("du_interval_s", F 0.3); ("scs", S "none");
        ("rows_per_relation", I rows); ("shards", I 1); ("parallel", I 1);
        ("transport", S "reliable"); ("obs", S "off");
      ];
  }

let churn_burst = 300
let churn_period = 90.0

(* Bursts of 300 DUs every 90 sim s with a schema change every 25 sim s:
   SCs arrive while the queue is deep. *)
let churn =
  {
    name = "churn";
    dus = 1_500;
    strong_dus = 600;
    arrivals =
      (fun n ->
        let bursts = (n + churn_burst - 1) / churn_burst in
        List.init n (fun k ->
            Generator.At_du (churn_period *. float_of_int (k / churn_burst)))
        @ sc_train ~period:25.0
            ~horizon:(churn_period *. float_of_int bursts)
            Generator.[ Rename_rel; Add_attr; Rename_attr ]);
    world = paper_world;
    config = Run_config.default;
    params =
      [
        ("du_burst", I churn_burst);
        ("burst_period_s", F churn_period); ("sc_period_s", F 25.0);
        ("scs", S "rename_rel,add_attr,rename_attr");
        ("rows_per_relation", I rows); ("shards", I 1); ("parallel", I 1);
        ("transport", S "reliable"); ("obs", S "off");
      ];
  }

let fleet_faults =
  {
    Dyno_net.Channel.reliable with
    loss = 0.05;
    dup = 0.05;
    reorder = 0.05;
    reorder_delay = 1.5;
    retransmit = cost.Dyno_sim.Cost_model.retransmit_interval;
  }

(* Three shards, width 2, self-maintenance, a faulty transport and the
   full observability stack. *)
let fleet =
  {
    name = "fleet";
    dus = 1_500;
    strong_dus = 1_000;
    arrivals =
      (fun n ->
        every 0.15 n
        @ sc_train ~period:100.0
            ~horizon:(0.15 *. float_of_int n)
            Generator.[ Rename_rel; Add_attr ]);
    world =
      (fun ~seed ->
        Scenario.Config.(
          paper_world ~seed |> with_faults fleet_faults |> with_net_seed seed
          |> with_shards 3
          |> with_obs (Dyno_obs.Obs.create ~sample_interval:10.0 ())));
    config = Run_config.(default |> with_parallel 2 |> with_self_maint true);
    params =
      [
        ("du_interval_s", F 0.15); ("sc_period_s", F 100.0);
        ("scs", S "rename_rel,add_attr"); ("rows_per_relation", I rows);
        ("shards", I 3); ("parallel", I 2); ("self_maint", S "on");
        ("transport", S "loss 0.05, dup 0.05, reorder 0.05");
        ("obs", S "spans, metrics, lineage, 10 s series");
        ("runtime", S "simulated");
      ];
  }

let workloads = [ steady; churn; fleet ]

(* ---- Replay and checks ---------------------------------------------- *)

type replayed = {
  sc : Scenario.t;
  stats : Stats.t;
  scheduled : int;  (** source commits on the timeline *)
  timeline_s : float;
  world_s : float;
  wall_s : float;  (** host wall time of the run call *)
  words : float;  (** words allocated by the run call *)
  minor_gcs : int;
  major_gcs : int;
}

let replay ?(world = Fun.id) ?(before = ignore) ~run wl ~dus seed =
  let t0 = Monotonic_clock.now () in
  let timeline = Generator.build ~rows ~seed (wl.arrivals dus) in
  let timeline_s = since t0 in
  let scheduled = Dyno_sim.Timeline.length timeline in
  let t1 = Monotonic_clock.now () in
  let sc = Scenario.make (world (wl.world ~seed)) ~timeline in
  let world_s = since t1 in
  before sc;
  let g0 = Gc.quick_stat () in
  let t2 = Monotonic_clock.now () in
  let stats = run sc in
  let wall_s = since t2 in
  let g1 = Gc.quick_stat () in
  let total (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    sc;
    stats;
    scheduled;
    timeline_s;
    world_s;
    wall_s;
    words = total g1 -. total g0;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
  }

let scenario_run wl sc = Scenario.run sc ~config:wl.config

let admitted (sc : Scenario.t) =
  List.concat_map Umq.history (Query_engine.umqs sc.Scenario.engine)

let check_replay r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match Scenario.check_convergent r.sc with
  | Ok true -> ()
  | Ok false -> fail "final extent differs from the view over the final sources"
  | Error e -> fail "convergence not checkable: %s" e);
  let history = admitted r.sc in
  let n = List.length history in
  if n <> r.scheduled then fail "%d updates admitted of %d committed" n r.scheduled;
  let integrations = Hashtbl.create n in
  List.iter
    (fun (c : Mat_view.commit) ->
      List.iter
        (fun id ->
          Hashtbl.replace integrations id
            (1 + Option.value ~default:0 (Hashtbl.find_opt integrations id)))
        c.Mat_view.maintained)
    (Mat_view.commits r.sc.Scenario.mv);
  (match
     List.filter
       (fun m -> Hashtbl.find_opt integrations (Update_msg.id m) <> Some 1)
       history
   with
  | [] -> ()
  | m :: _ as bad ->
      fail "%d update(s) not integrated by exactly one view commit (first #%d)"
        (List.length bad) (Update_msg.id m));
  if Hashtbl.length integrations <> n then
    fail "view commits integrate ids that were never admitted";
  List.rev !failures

(* Per update: the time of the view commit integrating it minus its
   source commit time, sorted. *)
let staleness (sc : Scenario.t) =
  let at = Hashtbl.create 4096 in
  List.iter
    (fun (c : Mat_view.commit) ->
      List.iter (fun id -> Hashtbl.replace at id c.Mat_view.at) c.Mat_view.maintained)
    (Mat_view.commits sc.Scenario.mv);
  admitted sc
  |> List.filter_map (fun m ->
         Option.map
           (fun t -> t -. Update_msg.commit_time m)
           (Hashtbl.find_opt at (Update_msg.id m)))
  |> sorted_array

(* The replay, its checks, its host rate and set-up time as measured, and
   its other figures.  The world is garbage once this returns. *)
let measure_replay wl seed =
  let r = replay ~run:(scenario_run wl) wl ~dus:wl.dus seed in
  (* Read before any check allocates. *)
  let rss = peak_rss_mb () in
  let n = float_of_int (List.length (admitted r.sc)) in
  let st = staleness r.sc in
  ( check_replay r,
    n /. r.wall_s,
    r.timeline_s +. r.world_s,
    [
      ("updates", I r.scheduled);
      ("wall_s", F r.wall_s);
      ("alloc_words_per_update", F (r.words /. n));
      ("peak_rss_mb", F rss);
      ("sim_busy_s", F r.stats.Stats.busy);
      ("sim_abort_s", F r.stats.Stats.abort_cost);
      ("sim_staleness_p50_s", F (percentile st 0.5));
      ("sim_staleness_p99_s", F (percentile st 0.99));
      ("staleness_samples", I (Array.length st));
    ] )

let run_mode wl seed =
  (* The first probe in a fresh process also pays for growing its heap. *)
  let before = Float.min (speed_probe ()) (speed_probe ()) in
  let failures, rate, setup, fields = measure_replay wl seed in
  (* Probe again on a heap without the world, so the program's retained
     memory cannot slow the probe. *)
  Gc.full_major ();
  let probe = (before +. speed_probe ()) /. 2.0 in
  let slowdown = probe /. probe_ref_s in
  ( failures,
    fields
    @ [
        ("updates_per_s", F (rate *. slowdown));
        ("setup_s", F (setup /. slowdown));
        ("raw_updates_per_s", F rate);
        ("raw_setup_s", F setup);
        ("probe_s", F probe);
      ] )

let strong_mode wl seed =
  let r =
    replay ~world:(Scenario.Config.with_snapshots true) ~run:(scenario_run wl)
      wl ~dus:wl.strong_dus seed
  in
  let report = Scenario.check_strong r.sc in
  let failures =
    check_replay r
    @ (if Consistency.ok report then []
       else [ Format.asprintf "%a" Consistency.pp_report report ])
    @ (if report.Consistency.skipped > 0 then
         [ Printf.sprintf "%d commit(s) skipped" report.Consistency.skipped ]
       else [])
    @ if report.Consistency.checked = 0 then [ "no commit checked" ] else []
  in
  ( failures,
    [
      ("updates", I r.scheduled);
      ("checked", I report.Consistency.checked);
      ("skipped", I report.Consistency.skipped);
    ] )

(* ---- Traced replay -------------------------------------------------- *)

type layer = {
  mutable calls : int;
  mutable busy : float;
  mutable words : float;
  mutable times : float list;
}

let layer () = { calls = 0; busy = 0.0; words = 0.0; times = [] }

(* Time one call into a layer; [words] also charges its allocation and
   [keep] keeps its duration for percentiles. *)
let timed ?(words = false) ?(keep = false) l f =
  let w0 = if words then allocated_words () else 0.0 in
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let dt = since t0 in
  l.calls <- l.calls + 1;
  l.busy <- l.busy +. dt;
  if keep then l.times <- dt :: l.times;
  if words then l.words <- l.words +. (allocated_words () -. w0);
  r

type probe = {
  admit : layer;
  detect : layer;
  correct : layer;
  sweep : layer;
  refresh : layer;
  va : layer;
  mutable msgs : int;
  mutable max_depth : int;
  mutable steps : int;
  mutable graphs : int;
  mutable graph_nodes : int;
  mutable reorders : int;
  mutable merged_cycles : int;
  mutable probes : int;
  mutable comp_tuples : int;
  mutable delta_tuples : int;
  mutable va_updates : int;
  mutable va_aborted : int;
}

let probe () =
  {
    admit = layer ();
    detect = layer ();
    correct = layer ();
    sweep = layer ();
    refresh = layer ();
    va = layer ();
    msgs = 0;
    max_depth = 0;
    steps = 0;
    graphs = 0;
    graph_nodes = 0;
    reorders = 0;
    merged_cycles = 0;
    probes = 0;
    comp_tuples = 0;
    delta_tuples = 0;
    va_updates = 0;
    va_aborted = 0;
  }

(* Count admissions and the deepest total queue over every route: depth
   only grows at admission, so sampling there sees the maximum. *)
let watch_admissions p (sc : Scenario.t) =
  let umqs = Query_engine.umqs sc.Scenario.engine in
  Query_engine.add_admit_hook sc.Scenario.engine (fun _ ->
      p.msgs <- p.msgs + 1;
      let depth = List.fold_left (fun acc q -> acc + Umq.length q) 0 umqs in
      if depth > p.max_depth then p.max_depth <- depth)

(* Scheduler.run's serial head-of-queue loop for the default
   configuration (pessimistic, no grouping, width 1, no
   self-maintenance, simulated runtime), rebuilt from public calls so
   each layer's calls can be timed here.  It keeps the statistics the
   fidelity check compares. *)
let drive (sc : Scenario.t) (config : Run_config.t) p : Stats.t =
  if config <> Run_config.default then
    invalid_arg "drive: only the default serial configuration is replayed";
  let w = sc.Scenario.engine and mv = sc.Scenario.mv in
  let umq = Query_engine.umq w in
  let cost = Query_engine.cost w in
  let stats = Stats.create () in
  let now () = Query_engine.now w in
  let fresh =
    Freshness.create
      ~metrics:(Dyno_obs.Obs.metrics (Query_engine.obs w))
      ~mv ~registry:(Query_engine.registry w) ~queued:(Umq.messages umq) ()
  in
  let detect_and_correct ~force =
    let vd = Mat_view.def mv in
    let t0 = now () in
    let graph =
      timed p.detect (fun () ->
          let outcome =
            if force then Detect.force vd umq else Detect.pre_exec vd umq
          in
          (match outcome.Detect.graph with
          | None -> Query_engine.advance w cost.Dyno_sim.Cost_model.detect_flag
          | Some g ->
              let m =
                List.length (List.filter Update_msg.is_sc (Umq.messages umq))
              in
              Query_engine.advance w
                (Dyno_sim.Cost_model.detect cost ~n:(Dep_graph.size g) ~m));
          outcome.Detect.graph)
    in
    Option.iter
      (fun g ->
        stats.Stats.detections <- stats.Stats.detections + 1;
        p.graphs <- p.graphs + 1;
        p.graph_nodes <- p.graph_nodes + Dep_graph.size g;
        let r =
          timed p.correct (fun () ->
              let r = Correct.apply umq g in
              Query_engine.advance w
                (Dyno_sim.Cost_model.correct cost ~nodes:r.Correct.nodes
                   ~edges:r.Correct.edges);
              r)
        in
        if r.Correct.reordered then begin
          stats.Stats.corrections <- stats.Stats.corrections + 1;
          p.reorders <- p.reorders + 1
        end;
        if r.Correct.merged_cycles > 0 then begin
          stats.Stats.merges <- stats.Stats.merges + r.Correct.merged_cycles;
          p.merged_cycles <- p.merged_cycles + r.Correct.merged_cycles
        end)
      graph;
    stats.Stats.busy <- stats.Stats.busy +. (now () -. t0)
  in
  let maintain_du m u : Scheduler.step_outcome =
    match
      timed ~words:true ~keep:true p.sweep (fun () ->
          Dyno_vm.Vm.maintain_sweep ~compensate:config.Run_config.compensate w
            mv m u)
    with
    | Dyno_vm.Vm.Swept (dv, s) -> (
        match timed p.refresh (fun () -> Dyno_vm.Vm.commit_swept w mv m dv s) with
        | Dyno_vm.Vm.Refreshed { delta_tuples; stats = s } ->
            p.probes <- p.probes + s.Dyno_vm.Sweep.probes;
            p.comp_tuples <- p.comp_tuples + s.Dyno_vm.Sweep.comp_tuples;
            p.delta_tuples <- p.delta_tuples + delta_tuples;
            stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
            stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
            stats.Stats.compensations <-
              stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
            stats.Stats.view_commits <- stats.Stats.view_commits + 1;
            Scheduler.Done
        | Dyno_vm.Vm.Irrelevant | Dyno_vm.Vm.Aborted _ | Dyno_vm.Vm.Unreachable _
          ->
            invalid_arg "Vm.commit_swept: not a refresh")
    | Dyno_vm.Vm.Swept_irrelevant ->
        timed p.refresh (fun () ->
            Mat_view.record_commit mv ~at:(now ())
              ~maintained:[ Update_msg.id m ]);
        stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
        Scheduler.Done
    | Dyno_vm.Vm.Swept_aborted b -> Scheduler.AbortedStep b
    | Dyno_vm.Vm.Swept_unreachable u -> Scheduler.UnreachableStep u
  in
  let maintain_batch entry =
    p.va_updates <- p.va_updates + List.length (Umq.entry_messages entry);
    let outcome =
      timed ~keep:true p.va (fun () ->
          Scheduler.maintain_entry ~compensate:config.Run_config.compensate
            ~vm_mode:config.Run_config.vm_mode w mv sc.Scenario.mk stats entry)
    in
    (match outcome with
    | Scheduler.AbortedStep _ -> p.va_aborted <- p.va_aborted + 1
    | Scheduler.Done | Scheduler.UnreachableStep _ -> ());
    outcome
  in
  let iteration () =
    detect_and_correct ~force:false;
    match Umq.head umq with
    | None -> ()
    | Some entry -> (
        Umq.clear_broken_query_flag umq;
        let t0 = now () in
        let outcome =
          match entry with
          | Umq.Single m when View_def.is_valid (Mat_view.def mv) -> (
              match Update_msg.as_du m with
              | Some u -> maintain_du m u
              | None -> maintain_batch entry)
          | _ -> maintain_batch entry
        in
        match outcome with
        | Scheduler.Done ->
            stats.Stats.busy <- stats.Stats.busy +. (now () -. t0);
            Freshness.note_entry fresh ~now:(now ()) (Umq.entry_messages entry);
            Umq.remove_head umq
        | Scheduler.UnreachableStep u -> Scheduler.stall_and_wait w stats ~t0 u
        | Scheduler.AbortedStep _ ->
            let dt = now () -. t0 in
            stats.Stats.busy <- stats.Stats.busy +. dt;
            stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
            stats.Stats.aborts <- stats.Stats.aborts + 1;
            stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
            if not (Umq.peek_schema_change_flag umq) then
              detect_and_correct ~force:true)
  in
  let rec loop () =
    p.steps <- p.steps + 1;
    if p.steps > config.Run_config.max_steps then
      raise (Scheduler.Step_limit_exceeded p.steps);
    timed ~words:true p.admit (fun () -> Query_engine.deliver_due w);
    if Umq.is_empty umq then (
      match Query_engine.next_wakeup w with
      | None -> ()
      | Some t ->
          let dt = t -. now () in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          timed ~words:true p.admit (fun () -> Query_engine.idle_until w t);
          loop ())
    else begin
      iteration ();
      loop ()
    end
  in
  loop ();
  stats.Stats.end_time <- now ();
  Scheduler.record_net_stats w stats;
  stats

(* Counters the sharded scheduler exposes only through its statistics. *)
let fill_from_stats p (s : Stats.t) =
  p.detect.calls <- s.Stats.detections;
  p.graphs <- s.Stats.detections;
  p.correct.calls <- s.Stats.detections;
  p.reorders <- s.Stats.corrections;
  p.merged_cycles <- s.Stats.merges;
  p.sweep.calls <- s.Stats.du_maintained;
  p.probes <- s.Stats.probes;
  p.refresh.calls <- s.Stats.view_commits;
  p.va.calls <- s.Stats.sc_maintained + s.Stats.batches;
  p.va_updates <- s.Stats.sc_maintained + s.Stats.batch_updates;
  p.va_aborted <- s.Stats.aborts

(* Host time spent inside the timed layers. *)
let attributed p =
  List.fold_left
    (fun acc l -> acc +. l.busy)
    0.0
    [ p.admit; p.detect; p.correct; p.sweep; p.refresh; p.va ]

let layer_fields p ~wall =
  let sweeps = sorted_array p.sweep.times and batches = sorted_array p.va.times in
  [
    ("view.admit.busy_s", F p.admit.busy);
    ("view.admit.msgs", I p.msgs);
    ("view.admit.alloc_words", F p.admit.words);
    ("core.detect.calls", I p.detect.calls);
    ("core.detect.graphs", I p.graphs);
    ( "core.detect.nodes_mean",
      F
        (if p.graphs = 0 then 0.0
         else float_of_int p.graph_nodes /. float_of_int p.graphs) );
    ("core.detect.busy_s", F p.detect.busy);
    ("core.correct.calls", I p.correct.calls);
    ("core.correct.reorders", I p.reorders);
    ("core.correct.merged_cycles", I p.merged_cycles);
    ("core.correct.busy_s", F p.correct.busy);
    ("vm.sweep.calls", I p.sweep.calls);
    ("vm.sweep.busy_s", F p.sweep.busy);
    ("vm.sweep.p50_us", F (percentile sweeps 0.5 *. 1e6));
    ("vm.sweep.p99_us", F (percentile sweeps 0.99 *. 1e6));
    ("vm.sweep.probes", I p.probes);
    ("vm.sweep.comp_tuples", I p.comp_tuples);
    ("vm.sweep.alloc_words", F p.sweep.words);
    ("view.refresh.calls", I p.refresh.calls);
    ("view.refresh.busy_s", F p.refresh.busy);
    ("view.refresh.delta_tuples", I p.delta_tuples);
    ("va.batch.calls", I p.va.calls);
    ("va.batch.updates", I p.va_updates);
    ("va.batch.aborted", I p.va_aborted);
    ("va.batch.busy_s", F p.va.busy);
    ("va.batch.p99_ms", F (percentile batches 0.99 *. 1e3));
    ("sched.steps", I p.steps);
    ("sched.residual_s", F (wall -. attributed p));
    ("view.umq.max_depth", I p.max_depth);
  ]

(* What the traced replay leaves behind.  Memory probes run only here:
   Obj.reachable_words would inflate the peak RSS the untraced mode reads. *)
let traced_fields r =
  let w = r.sc.Scenario.engine in
  let obs = Query_engine.obs w in
  let t0 = Monotonic_clock.now () in
  ignore (Scenario.recompute_extent r.sc : Dyno_relational.Relation.t);
  let recompute_s = since t0 in
  let s = r.stats in
  let looked = s.Stats.probes + s.Stats.probes_avoided in
  [
    ("workload.timeline_s", F r.timeline_s);
    ("workload.world_s", F r.world_s);
    ("view.umq.retained_mb", F (retained_mb (Query_engine.umqs w)));
    ("source.retained_mb", F (retained_mb (Query_engine.registry w)));
    ("obs.retained_mb", F (if Dyno_obs.Obs.enabled obs then retained_mb obs else 0.0));
    ("gc.minor_collections", I r.minor_gcs);
    ("gc.major_collections", I r.major_gcs);
    ("gc.top_heap_mb", F (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words));
    ("relational.recompute_s", F recompute_s);
    ( "selfmaint.hit_ratio",
      F
        (if looked = 0 then 0.0
         else float_of_int s.Stats.probes_avoided /. float_of_int looked) );
    ("shard.barriers", I s.Stats.cross_shard_barriers);
    ("net.msgs_lost", I s.Stats.msgs_lost);
    ("view.umq.dups_dropped", I s.Stats.dups_dropped);
    ("view.umq.reorders_healed", I s.Stats.reorders_healed);
    ("sched.sim_abort_s", F s.Stats.abort_cost);
    ("sched.aborts", I s.Stats.aborts);
  ]

type outcome = {
  extent : Dyno_relational.Relation.t;
  commits : int;
  sim_busy : float;
  end_time : float;
}

let outcome_of r =
  {
    extent = Mat_view.extent r.sc.Scenario.mv;
    commits = r.stats.Stats.view_commits;
    sim_busy = r.stats.Stats.busy;
    end_time = r.stats.Stats.end_time;
  }

let differences what a b =
  List.filter_map
    (fun (same, field) ->
      if same then None else Some (Printf.sprintf "%s: %s differs" what field))
    [
      (Dyno_relational.Relation.equal a.extent b.extent, "final extent");
      (a.commits = b.commits, "view_commits");
      (Float.equal a.sim_busy b.sim_busy, "sim_busy_s");
      (Float.equal a.end_time b.end_time, "end time");
    ]

let trace_mode wl seed =
  let p = probe () in
  let serial = (wl.world ~seed).Scenario.Config.shards = 1 && wl.config = Run_config.default in
  let run = if serial then fun sc -> drive sc wl.config p else scenario_run wl in
  let r = replay ~before:(watch_admissions p) ~run wl ~dus:wl.dus seed in
  if not serial then fill_from_stats p r.stats;
  let wall = r.wall_s in
  let traced = outcome_of r in
  let obs_on = Dyno_obs.Obs.enabled (Query_engine.obs r.sc.Scenario.engine) in
  let fields = layer_fields p ~wall @ traced_fields r in
  let failures = check_replay r in
  let failures =
    if attributed p > wall then failures @ [ "layer times exceed the traced wall time" ]
    else failures
  in
  (* The traced world is dead from here on; compact before the references. *)
  Gc.compact ();
  let u = replay ~run:(scenario_run wl) wl ~dus:wl.dus seed in
  let untraced_wall = u.wall_s in
  let failures = failures @ differences "traced vs untraced replay" traced (outcome_of u) in
  let obs_busy, failures =
    if obs_on then begin
      Gc.compact ();
      let off =
        replay ~world:(Scenario.Config.with_obs Dyno_obs.Obs.disabled)
          ~run:(scenario_run wl) wl ~dus:wl.dus seed
      in
      (wall -. off.wall_s, failures @ differences "obs on vs off" traced (outcome_of off))
    end
    else (0.0, failures)
  in
  ( failures,
    fields
    @ [
        ("obs.busy_s", F obs_busy);
        ("trace.wall_s", F wall);
        ("trace.untraced_wall_s", F untraced_wall);
        ("trace.overhead_pct", F ((wall -. untraced_wall) /. untraced_wall *. 100.0));
      ] )

(* ---- Entry point ---------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: dynobench.exe (run|trace|strong) (steady|churn|fleet) SEED";
  exit 2

let () =
  Printexc.record_backtrace true;
  match Sys.argv with
  | [| _; mode; name; seed |] -> (
      let wl = List.find_opt (fun w -> String.equal w.name name) workloads in
      let f =
        match mode with
        | "run" -> Some run_mode
        | "trace" -> Some trace_mode
        | "strong" -> Some strong_mode
        | _ -> None
      in
      match (wl, f, int_of_string_opt seed) with
      | Some wl, Some f, Some seed -> (
          let header =
            [
              ("mode", S mode);
              ("workload", S wl.name);
              ("seed", I seed);
              ("planned_updates", I (List.length (wl.arrivals wl.dus)));
              ("host_cores", I (Domain.recommended_domain_count ()));
              ("ocaml_version", S Sys.ocaml_version);
              ("params", O (("dus", I wl.dus) :: wl.params));
            ]
          in
          match f wl seed with
          | failures, fields ->
              emit (header @ fields @ [ ("failures", L (List.map (fun s -> S s) failures)) ]);
              exit (if failures = [] then 0 else 1)
          | exception e ->
              Printexc.print_backtrace stderr;
              emit (header @ [ ("raised", S (Printexc.to_string e)) ]);
              exit 3)
      | _ -> usage ())
  | _ -> usage ()
