(** Run statistics: the measurements behind every figure of Section 6.

    The paper charts two quantities per run — total maintenance cost and
    abort cost, both in seconds — plus the event counters we use in tests
    (broken queries, corrections, merges).  "Maintenance cost" is busy
    time: work the view manager performed (probes, refreshes, detection,
    correction, aborted work); idle waiting for source commits is tracked
    separately.  "The maintenance cost includes the abort cost throughout
    our experiments" (footnote 4) — same here. *)

type episode_kind = Du_maint | Sc_maint | Batch_maint

type episodes = { count : int; total : float; longest : float }

type t = {
  mutable busy : float;  (** total maintenance cost (includes aborts) *)
  mutable abort_cost : float;  (** work thrown away due to broken queries *)
  mutable idle : float;  (** time spent waiting for updates *)
  mutable end_time : float;  (** simulated clock at completion *)
  mutable du_maintained : int;
  mutable sc_maintained : int;
  mutable batches : int;  (** merged batch nodes maintained *)
  mutable batch_updates : int;  (** messages inside those batches *)
  mutable irrelevant : int;  (** updates not touching the view *)
  mutable aborts : int;
  mutable broken_queries : int;
  mutable detections : int;  (** pre-exec detection passes *)
  mutable corrections : int;  (** correction (reorder) passes *)
  mutable merges : int;  (** cycles collapsed *)
  mutable probes : int;  (** maintenance queries sent *)
  mutable compensations : int;  (** probe answers compensated *)
  mutable view_commits : int;
  mutable view_undefined : bool;
  (* Transport counters (zero on a reliable channel). *)
  mutable retries : int;  (** probe attempts re-sent after backoff *)
  mutable timeouts : int;  (** probe attempts that timed out *)
  mutable msgs_lost : int;  (** transmissions dropped by the channel *)
  mutable msgs_duplicated : int;  (** messages the channel delivered twice *)
  mutable dups_dropped : int;  (** duplicate deliveries dropped at the UMQ *)
  mutable reorders_healed : int;  (** held messages released in order *)
  mutable net_stalls : int;
      (** maintenance steps stalled on an unreachable source (retried
          after recovery — not aborts) *)
  mutable cross_shard_barriers : int;
      (** sharded runs: rounds where every shard paused for a global
          schema-change barrier (zero outside the sharded scheduler) *)
  mutable probes_avoided : int;
      (** self-maintenance: sweeps answered from auxiliary views instead
          of probe round trips (zero unless [--self-maint]) *)
  mutable bytes_saved : int;
      (** self-maintenance: estimated wire bytes the avoided probes would
          have shipped *)
  mutable net_wait : float;  (** time lost to timeouts/backoff/recovery, s *)
  episodes : float array;
      (** three slots (count, total, longest) per kind and outcome, flat
          so that counting allocates nothing *)
}

let create () =
  {
    busy = 0.0;
    abort_cost = 0.0;
    idle = 0.0;
    end_time = 0.0;
    du_maintained = 0;
    sc_maintained = 0;
    batches = 0;
    batch_updates = 0;
    irrelevant = 0;
    aborts = 0;
    broken_queries = 0;
    detections = 0;
    corrections = 0;
    merges = 0;
    probes = 0;
    compensations = 0;
    view_commits = 0;
    view_undefined = false;
    retries = 0;
    timeouts = 0;
    msgs_lost = 0;
    msgs_duplicated = 0;
    dups_dropped = 0;
    reorders_healed = 0;
    net_stalls = 0;
    cross_shard_barriers = 0;
    probes_avoided = 0;
    bytes_saved = 0;
    net_wait = 0.0;
    episodes = Array.make 18 0.0;
  }

let cell kind ~aborted =
  let k = match kind with Du_maint -> 0 | Sc_maint -> 1 | Batch_maint -> 2 in
  3 * ((2 * k) + if aborted then 1 else 0)

let episodes s kind ~aborted =
  let i = cell kind ~aborted and a = s.episodes in
  { count = int_of_float a.(i); total = a.(i + 1); longest = a.(i + 2) }

let note_episode s kind ~aborted duration =
  let i = cell kind ~aborted and a = s.episodes in
  a.(i) <- a.(i) +. 1.0;
  a.(i + 1) <- a.(i + 1) +. duration;
  if duration > a.(i + 2) then a.(i + 2) <- duration

let has_transport_activity s =
  s.retries > 0 || s.timeouts > 0 || s.msgs_lost > 0
  || s.msgs_duplicated > 0 || s.dups_dropped > 0 || s.reorders_healed > 0
  || s.net_stalls > 0
  || s.net_wait > 0.0

let pp ppf s =
  Fmt.pf ppf
    "@[<v>maintenance cost: %8.2f s (abort cost %6.2f s, idle %8.2f s, end \
     %8.2f s)@,\
     maintained: %d DU, %d SC, %d batch (%d msgs), %d irrelevant@,\
     aborts: %d (broken queries %d)@,\
     detection passes: %d, corrections: %d, cycles merged: %d@,\
     probes: %d (compensated %d), view commits: %d%s"
    s.busy s.abort_cost s.idle s.end_time s.du_maintained s.sc_maintained
    s.batches s.batch_updates s.irrelevant s.aborts s.broken_queries
    s.detections s.corrections s.merges s.probes s.compensations
    s.view_commits
    (if s.view_undefined then ", VIEW UNDEFINED" else "");
  (* Only when the transport actually misbehaved, so reliable-channel runs
     print byte-identically to the historical direct-call output. *)
  if has_transport_activity s then
    Fmt.pf ppf
      "@,@[<v>transport: %d retr%s, %d timeout(s), %.2f s waiting@,\
       messages: %d transmission(s) lost, %d duplicated, %d dup(s) \
       dropped, %d reorder(s) healed, %d stall(s)@]"
      s.retries
      (if s.retries = 1 then "y" else "ies")
      s.timeouts s.net_wait s.msgs_lost s.msgs_duplicated s.dups_dropped
      s.reorders_healed s.net_stalls;
  (* Same byte-compatibility bargain as the transport section: only
     sharded runs ever print it. *)
  if s.cross_shard_barriers > 0 then
    Fmt.pf ppf "@,cross-shard barriers: %d" s.cross_shard_barriers;
  (* Likewise: only self-maintaining runs ever print it. *)
  if s.probes_avoided > 0 then
    Fmt.pf ppf "@,self-maintenance: %d probe(s) avoided, ~%d B saved"
      s.probes_avoided s.bytes_saved;
  (* One vertical box around every section, so each starts a line. *)
  Fmt.pf ppf "@]"

(** Machine-readable JSON rendering (mirrors the bench's [--json]
    output style; no external JSON dependency). *)
let to_json_string s =
  let b = Buffer.create 512 in
  let field_sep = ref "" in
  let add fmt =
    Buffer.add_string b !field_sep;
    field_sep := ",\n  ";
    Fmt.kstr (Buffer.add_string b) fmt
  in
  Buffer.add_string b "{\n  ";
  add "\"busy\": %.6f" s.busy;
  add "\"abort_cost\": %.6f" s.abort_cost;
  add "\"idle\": %.6f" s.idle;
  add "\"end_time\": %.6f" s.end_time;
  add "\"du_maintained\": %d" s.du_maintained;
  add "\"sc_maintained\": %d" s.sc_maintained;
  add "\"batches\": %d" s.batches;
  add "\"batch_updates\": %d" s.batch_updates;
  add "\"irrelevant\": %d" s.irrelevant;
  add "\"aborts\": %d" s.aborts;
  add "\"broken_queries\": %d" s.broken_queries;
  add "\"detections\": %d" s.detections;
  add "\"corrections\": %d" s.corrections;
  add "\"merges\": %d" s.merges;
  add "\"probes\": %d" s.probes;
  add "\"compensations\": %d" s.compensations;
  add "\"view_commits\": %d" s.view_commits;
  add "\"view_undefined\": %b" s.view_undefined;
  add "\"retries\": %d" s.retries;
  add "\"timeouts\": %d" s.timeouts;
  add "\"msgs_lost\": %d" s.msgs_lost;
  add "\"msgs_duplicated\": %d" s.msgs_duplicated;
  add "\"dups_dropped\": %d" s.dups_dropped;
  add "\"reorders_healed\": %d" s.reorders_healed;
  add "\"net_stalls\": %d" s.net_stalls;
  add "\"cross_shard_barriers\": %d" s.cross_shard_barriers;
  add "\"probes_avoided\": %d" s.probes_avoided;
  add "\"bytes_saved\": %d" s.bytes_saved;
  add "\"net_wait\": %.6f" s.net_wait;
  Buffer.add_string b "\n}";
  Buffer.contents b
