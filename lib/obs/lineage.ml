(** Per-update causal lineage: one record per source update, keyed by
    [(source, seq)] at commit time and by UMQ message id from admission
    onward.  Every stage of an update's life — channel flight, the
    exactly-once sequencer, UMQ queue wait, dispatch, probes,
    compensation, refresh, abort/correction and the terminal state —
    appends an event; events that close a stage also {e charge} the
    elapsed time since the record's cursor to a named segment and advance
    the cursor.  Because the cursor tiles the timeline, the segment sums
    equal commit-to-terminal elapsed time {e by construction} (the qcheck
    property in [test/test_obs.ml] pins the bookkeeping, not the
    arithmetic).

    Event details are rendered only when they are read: every recording
    function takes a [string Lazy.t], which {!to_jsonl}, {!pp_record} and
    the exporters force.  A run that never exports its lineage never
    formats a detail.  The lazies obey the capture rule stated in
    [lineage.mli].

    Records are found without hashing a key: message ids come from one
    counter and a source's [seq] is its version, so both are dense.  A
    record sits at its message id's slot of one growable array, and at
    its [seq]'s slot of its source's array; only the source's short name
    is hashed.  {!records} keeps commit order from a list of its own.

    A disabled recorder (the default, shared {!disabled}) is a structural
    no-op: no clock reads, no RNG draws, no allocation beyond the call —
    lineage-off runs are byte-identical. *)

open Dyno_jsonv

type segment =
  | Channel  (** commit → packet arrival at the warehouse *)
  | Hold  (** sequencer held-for-gap wait *)
  | Queue  (** admission → dispatch (or re-dispatch after abort) *)
  | Barrier  (** dispatched from a cross-shard barrier drain *)
  | Probe  (** source round-trips during maintenance *)
  | Compute  (** maintenance work that is not a probe *)
  | Stall  (** a maintenance query waiting for its unreachable source *)
  | Abort  (** work sunk into an aborted maintenance step *)

let all_segments =
  [ Channel; Hold; Queue; Barrier; Probe; Compute; Stall; Abort ]

let segment_name = function
  | Channel -> "channel"
  | Hold -> "hold"
  | Queue -> "queue"
  | Barrier -> "barrier"
  | Probe -> "probe"
  | Compute -> "compute"
  | Stall -> "stall"
  | Abort -> "abort"

let seg_index = function
  | Channel -> 0
  | Hold -> 1
  | Queue -> 2
  | Barrier -> 3
  | Probe -> 4
  | Compute -> 5
  | Stall -> 6
  | Abort -> 7

let n_segments = 8

(* Metric keys, built once instead of once per sealed record: the
   [lineage.<segment>_s] histograms by {!seg_index}, and the
   [lineage.<terminal>] counters. *)
let segment_keys =
  Array.of_list
    (List.map (fun s -> "lineage." ^ segment_name s ^ "_s") all_segments)

type terminal =
  | Applied  (** integrated into every registered view *)
  | Irrelevant  (** no pivot row — dropped without view work *)
  | Dropped_undefined  (** view became undefined; update discarded *)

let terminal_name = function
  | Applied -> "applied"
  | Irrelevant -> "irrelevant"
  | Dropped_undefined -> "dropped_undefined"

let terminal_key = function
  | Applied -> "lineage.applied"
  | Irrelevant -> "lineage.irrelevant"
  | Dropped_undefined -> "lineage.dropped_undefined"

type event = {
  at : float;  (** simulated time of the event *)
  kind : string;  (** "commit", "send", "arrive", "admit", ... *)
  seg : segment option;  (** segment this event charged, if any *)
  charged : float;  (** duration charged (0 for pure events) *)
  detail : string Lazy.t;  (** rendered when read *)
}

type record = {
  source : string;
  seq : int;
  sc : bool;
  mutable msg_id : int;  (** -1 until the sequencer admits it *)
  commit_at : float;
  mutable cursor : float;
  mutable revents : event list;  (** newest first *)
  segs : float array;  (** per-{!segment} charged totals *)
  mutable held : bool;  (** currently held for a sequence gap *)
  mutable term : terminal option;
  mutable term_at : float;
  mutable parent : int;  (** causal parent msg id (batch rebirth), -1 *)
}

(* The empty slot: no record is physically this one. *)
let nil =
  {
    source = "";
    seq = -1;
    sc = false;
    msg_id = -1;
    commit_at = 0.0;
    cursor = 0.0;
    revents = [];
    segs = [||];
    held = false;
    term = None;
    term_at = 0.0;
    parent = -1;
  }

(* Records by a dense int key that may start anywhere, skip values or
   arrive out of order: key [k] at [recs.(k - base)], absent keys [nil].
   The array grows by doubling towards the key that did not fit, so its
   size follows the range of keys seen, not their number: message ids and
   source versions count up by one. *)
type slots = { mutable base : int; mutable recs : record array }

let slots () = { base = 0; recs = [||] }

let get s k =
  let i = k - s.base in
  if i >= 0 && i < Array.length s.recs then Array.unsafe_get s.recs i else nil

let put s k r =
  let n = Array.length s.recs in
  let i = k - s.base in
  if i >= 0 && i < n then s.recs.(i) <- r
  else begin
    let below = n > 0 && k < s.base in
    let lo = if n = 0 || below then k else s.base in
    let hi = if n = 0 then k else max k (s.base + n - 1) in
    let cap = max 16 (max (hi - lo + 1) (2 * n)) in
    let base = if below then hi + 1 - cap else lo in
    let recs = Array.make cap nil in
    if n > 0 then Array.blit s.recs 0 recs (s.base - base) n;
    s.base <- base;
    s.recs <- recs;
    recs.(k - base) <- r
  end

module Sources = Hashtbl.Make (String)

type t = {
  on : bool;
  metrics : Metrics.t;
  by_seq : slots Sources.t;  (** source → its records by [seq] *)
  by_msg : slots;  (** records by message id, once admitted *)
  mutable rorder : record list;  (** commit order, newest first *)
  scopes : (int, int list) Hashtbl.t;  (** ambient ctx → dispatched ids *)
  mutable ctx : int;
}

let create ?(enabled = true) ?(metrics = Metrics.disabled) () =
  {
    on = enabled;
    metrics;
    by_seq = Sources.create (if enabled then 8 else 0);
    by_msg = slots ();
    rorder = [];
    scopes = Hashtbl.create (if enabled then 8 else 0);
    ctx = 0;
  }

let disabled = create ~enabled:false ()
let enabled t = t.on

(* ------------------------------------------------------------------ *)
(* Rendering: the recorder's own event texts, built when read          *)
(* ------------------------------------------------------------------ *)

let sent_text ~transmissions ~duplicated ~arrival =
  Fmt.str "%d transmission%s%s%s, arrival t=%.3fs" transmissions
    (if transmissions = 1 then "" else "s")
    (if transmissions > 1 then Fmt.str " (%d lost)" (transmissions - 1)
     else "")
    (if duplicated then ", duplicated in flight" else "")
    arrival

let admit_text ~released msg_id =
  if released then Fmt.str "released from gap hold as msg #%d" msg_id
  else Fmt.str "admitted exactly-once as msg #%d" msg_id

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let ev r ~at ~kind ?seg ?(charged = 0.0) detail =
  r.revents <- { at; kind; seg; charged; detail } :: r.revents

(* Charge [time − cursor] to [seg] and advance the cursor.  The clock is
   monotone, so the duration is non-negative (clamped against float
   noise).  A sealed record never accumulates again — stray charges after
   the terminal (e.g. from a stale ambient scope) cannot break the
   Σ segments = elapsed invariant. *)
let charge r ~time seg =
  if r.term <> None then 0.0
  else begin
    let d = Float.max 0.0 (time -. r.cursor) in
    r.segs.(seg_index seg) <- r.segs.(seg_index seg) +. d;
    r.cursor <- time;
    d
  end

(* The record of [(source, seq)], or [nil]. *)
let of_key t ~source ~seq =
  match Sources.find t.by_seq source with
  | s -> get s seq
  | exception Not_found -> nil

let find_msg t id =
  if t.on then
    let r = get t.by_msg id in
    if r == nil then None else Some r
  else None

let commit t ~source ~seq ~time ~sc ~detail =
  if t.on then begin
    let r =
      {
        source;
        seq;
        sc;
        msg_id = -1;
        commit_at = time;
        cursor = time;
        revents = [];
        segs = Array.make n_segments 0.0;
        held = false;
        term = None;
        term_at = 0.0;
        parent = -1;
      }
    in
    (match Sources.find t.by_seq source with
    | s -> put s seq r
    | exception Not_found ->
        let s = slots () in
        put s seq r;
        Sources.add t.by_seq source s);
    t.rorder <- r :: t.rorder;
    ev r ~at:time ~kind:"commit" detail
  end

let sent t ~source ~seq ~time ~transmissions ~duplicated ~arrival =
  if t.on then
    let r = of_key t ~source ~seq in
    if r != nil then
      ev r ~at:time ~kind:"send"
        (lazy (sent_text ~transmissions ~duplicated ~arrival))

let arrive t ~source ~seq ~time =
  if t.on then
    let r = of_key t ~source ~seq in
    if r != nil then
      let d = charge r ~time Channel in
      ev r ~at:time ~kind:"arrive" ~seg:Channel ~charged:d
        (lazy "packet at warehouse")

let held t ~source ~seq ~time =
  if t.on then
    let r = of_key t ~source ~seq in
    if r != nil then begin
      r.held <- true;
      ev r ~at:time ~kind:"held" (lazy "sequencer holding for a gap")
    end

let dedup t ~source ~seq ~time =
  if t.on then begin
    Metrics.incr t.metrics "lineage.dedups";
    let r = of_key t ~source ~seq in
    if r != nil then
      ev r ~at:time ~kind:"dedup" (lazy "duplicate delivery discarded")
  end

let admit t ~source ~seq ~time ~msg_id =
  if t.on then
    let r = of_key t ~source ~seq in
    if r != nil then begin
      r.msg_id <- msg_id;
      put t.by_msg msg_id r;
      if r.held then begin
        r.held <- false;
        let d = charge r ~time Hold in
        ev r ~at:time ~kind:"admit" ~seg:Hold ~charged:d
          (lazy (admit_text ~released:true msg_id))
      end
      else
        ev r ~at:time ~kind:"admit" (lazy (admit_text ~released:false msg_id))
    end

(* Dispatch and everything after is keyed by message id.  [seg] names
   the wait the dispatch closes: [Queue] for normal scheduling, [Barrier]
   when drained by a cross-shard barrier. *)
let dispatch t ~ids ~time ?(seg = Queue) ~detail () =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then
          let d = charge r ~time seg in
          ev r ~at:time ~kind:"dispatch" ~seg ~charged:d detail)
      ids

let note t ~ids ~time ~kind ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then ev r ~at:time ~kind detail)
      ids

let abort t ~ids ~time ~detail =
  if t.on then begin
    Metrics.incr t.metrics "lineage.aborts";
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then
          let d = charge r ~time Abort in
          ev r ~at:time ~kind:"abort" ~seg:Abort ~charged:d detail)
      ids
  end

(* Forensics: a detected dependency edge, recorded on the dependent's
   record. *)
let edge t ~dep_ids ~time ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then ev r ~at:time ~kind:"dep-edge" detail)
      dep_ids

(* Forensics: a cycle merge (or Merge_all collapse).  Members gain a
   parent link to the batch's smallest id — the causal "rebirth" of the
   merged updates as one Batch entry. *)
let merged t ~ids ~time ~detail =
  if t.on then begin
    Metrics.incr t.metrics "lineage.merges";
    let parent = List.fold_left min max_int ids in
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then begin
          if r.msg_id <> parent then r.parent <- parent;
          ev r ~at:time ~kind:"merge" detail
        end)
      ids
  end

(* ------------------------------------------------------------------ *)
(* Ambient probe scope                                                 *)
(* ------------------------------------------------------------------ *)

(* Probes fire deep inside the query engine, which knows the target but
   not which update is paying for the round-trip.  The scheduler
   registers the dispatched ids as the {e scope} of the current ambient
   context (the same per-task integer the span recorder uses), and the
   engine charges probe time to whatever scope is active. *)

let set_context t ctx = if t.on then t.ctx <- ctx

let set_scope t ids =
  if t.on then
    if ids = [] then Hashtbl.remove t.scopes t.ctx
    else Hashtbl.replace t.scopes t.ctx ids

let scope t =
  if t.on then
    match Hashtbl.find_opt t.scopes t.ctx with Some ids -> ids | None -> []
  else []

let note_scope t ~time ~kind ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then ev r ~at:time ~kind detail)
      (scope t)

let probe_begin t ~time =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then ignore (charge r ~time Compute))
      (scope t)

let probe_end t ~time ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then
          let d = charge r ~time Probe in
          ev r ~at:time ~kind:"probe" ~seg:Probe ~charged:d detail)
      (scope t)

let stall t ~time ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil then
          let d = charge r ~time Stall in
          ev r ~at:time ~kind:"stall" ~seg:Stall ~charged:d detail)
      (scope t)

(* ------------------------------------------------------------------ *)
(* Terminal                                                            *)
(* ------------------------------------------------------------------ *)

let finish t ~ids ~time ~state ~detail =
  if t.on then
    List.iter
      (fun id ->
        let r = get t.by_msg id in
        if r != nil && r.term = None then begin
          let d = charge r ~time Compute in
          r.term <- Some state;
          r.term_at <- time;
          ev r ~at:time ~kind:(terminal_name state) ~seg:Compute ~charged:d
            detail;
          Metrics.incr t.metrics (terminal_key state);
          Metrics.observe t.metrics "lineage.total_s" (time -. r.commit_at);
          Array.iteri
            (fun i v ->
              if v > 0.0 then Metrics.observe t.metrics segment_keys.(i) v)
            r.segs
        end)
      ids

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)
(* ------------------------------------------------------------------ *)

let records t = List.rev t.rorder
let events r = List.rev r.revents
let segment_value r seg = r.segs.(seg_index seg)

let segments r =
  List.filter_map
    (fun s ->
      let v = segment_value r s in
      if v > 0.0 then Some (segment_name s, v) else None)
    all_segments

let elapsed r =
  match r.term with Some _ -> r.term_at -. r.commit_at | None -> 0.0

let segment_sum r = Array.fold_left ( +. ) 0.0 r.segs

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let record_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Fmt.str
       "{\"msg\": %d, \"source\": %s, \"seq\": %d, \"sc\": %b, \
        \"commit_s\": %.9f, \"terminal\": %s, \"terminal_s\": %.9f, \
        \"parent\": %d, \"segments\": {"
       r.msg_id (Jsonv.quote r.source) r.seq r.sc r.commit_at
       (match r.term with
       | Some s -> Jsonv.quote (terminal_name s)
       | None -> "null")
       r.term_at r.parent);
  let sep = ref "" in
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Fmt.str "%s%s: %.9f" !sep (Jsonv.quote name) v);
      sep := ", ")
    (segments r);
  Buffer.add_string b "}, \"events\": [";
  sep := "";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Fmt.str
           "%s{\"t\": %.9f, \"kind\": %s, \"segment\": %s, \"charged\": \
            %.9f, \"detail\": %s}"
           !sep e.at (Jsonv.quote e.kind)
           (match e.seg with
           | Some s -> Jsonv.quote (segment_name s)
           | None -> "null")
           e.charged
           (Jsonv.quote (Lazy.force e.detail)));
      sep := ", ")
    (events r);
  Buffer.add_string b "]}";
  Buffer.contents b

(** One JSON object per line per record, in commit order. *)
let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (record_json r);
      Buffer.add_char b '\n')
    (records t);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Narrative (dyno explain)                                            *)
(* ------------------------------------------------------------------ *)

let pp_record ppf r =
  Fmt.pf ppf "@[<v>message #%d — %s from %s (seq %d), committed t=%.3fs@,"
    r.msg_id
    (if r.sc then "SC" else "DU")
    r.source r.seq r.commit_at;
  if r.parent >= 0 then
    Fmt.pf ppf "  causal parent: merged into batch led by msg #%d@," r.parent;
  List.iter
    (fun e ->
      Fmt.pf ppf "  t=%8.3fs  %-10s %s%s@," e.at e.kind (Lazy.force e.detail)
        (match e.seg with
        | Some s when e.charged > 0.0 ->
            Fmt.str "  [%s +%.3fs]" (segment_name s) e.charged
        | _ -> ""))
    (events r);
  (match r.term with
  | Some s ->
      Fmt.pf ppf "  terminal: %s at t=%.3fs (elapsed %.3fs)@,"
        (terminal_name s) r.term_at (elapsed r)
  | None -> Fmt.pf ppf "  terminal: (still pending at end of run)@,");
  (match segments r with
  | [] -> ()
  | segs ->
      Fmt.pf ppf "  critical path: %s@,"
        (String.concat " | "
           (List.map (fun (n, v) -> Fmt.str "%s %.3fs" n v) segs)));
  Fmt.pf ppf "@]"
