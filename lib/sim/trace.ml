(** Execution traces: a timestamped log of everything notable that happens
    during a simulated run.

    Tests assert against traces (e.g. "a broken query occurred, then a
    correction, then no further aborts"), the CLI prints them, and the
    statistics module derives cost breakdowns from them.

    Storage is a ring buffer.  By default capacity is unbounded (the
    buffer doubles as needed — what tests want: every entry retained); a
    long-running deployment passes [~capacity] to bound memory, after
    which the oldest entries are overwritten.  Per-kind counts are kept
    incrementally — {!count} is O(1) and covers {e every} entry ever
    recorded since the last {!clear}, including entries a bounded buffer
    has already evicted. *)

type kind =
  | Commit  (** a source committed an update *)
  | Enqueue  (** the wrapper delivered an update message to the UMQ *)
  | Maint_start  (** maintenance of an update began *)
  | Query_sent  (** a maintenance query was sent to a source *)
  | Query_answered  (** a maintenance query returned rows *)
  | Broken_query  (** a maintenance query failed on a schema conflict *)
  | Compensate  (** compensation removed concurrent-DU effects *)
  | Abort  (** an in-flight maintenance process was aborted *)
  | Refresh  (** the materialized view was refreshed and committed *)
  | Detect  (** a pre-exec detection pass ran *)
  | Correct  (** the dependency-correction (reorder) ran *)
  | Merge  (** cyclic dependencies were merged into a batch node *)
  | Sync  (** view synchronization rewrote the view definition *)
  | Adapt  (** view adaptation brought the extent up to date *)
  | Msg_dropped  (** the channel lost a transmission (retransmitted) *)
  | Msg_duplicated  (** a duplicate delivery was dropped by the UMQ *)
  | Timeout  (** a maintenance-query attempt got no answer in time *)
  | Retry  (** a maintenance query was retried after backoff *)
  | Outage  (** a source was found unreachable (outage window) *)
  | Info  (** anything else *)

let kind_to_string = function
  | Commit -> "commit"
  | Enqueue -> "enqueue"
  | Maint_start -> "maint-start"
  | Query_sent -> "query-sent"
  | Query_answered -> "query-answered"
  | Broken_query -> "BROKEN-QUERY"
  | Compensate -> "compensate"
  | Abort -> "ABORT"
  | Refresh -> "refresh"
  | Detect -> "detect"
  | Correct -> "correct"
  | Merge -> "merge"
  | Sync -> "sync"
  | Adapt -> "adapt"
  | Msg_dropped -> "msg-dropped"
  | Msg_duplicated -> "msg-duplicated"
  | Timeout -> "TIMEOUT"
  | Retry -> "retry"
  | Outage -> "OUTAGE"
  | Info -> "info"

let n_kinds = 20

let kind_index = function
  | Commit -> 0
  | Enqueue -> 1
  | Maint_start -> 2
  | Query_sent -> 3
  | Query_answered -> 4
  | Broken_query -> 5
  | Compensate -> 6
  | Abort -> 7
  | Refresh -> 8
  | Detect -> 9
  | Correct -> 10
  | Merge -> 11
  | Sync -> 12
  | Adapt -> 13
  | Msg_dropped -> 14
  | Msg_duplicated -> 15
  | Timeout -> 16
  | Retry -> 17
  | Outage -> 18
  | Info -> 19

type entry = { time : float; kind : kind; detail : string }

let dummy_entry = { time = 0.0; kind = Info; detail = "" }

type t = {
  mutable buf : entry array;  (** ring storage *)
  mutable head : int;  (** index of the oldest retained entry *)
  mutable len : int;  (** retained entries *)
  capacity : int option;  (** [None] = unbounded (buffer grows) *)
  counts : int array;  (** per-kind totals since the last {!clear} *)
  mutable recorded : int;  (** total entries since the last {!clear} *)
  mutable enabled : bool;
}

let create ?(enabled = true) ?capacity () =
  let capacity =
    match capacity with
    | Some c when c < 1 -> invalid_arg "Trace.create: capacity must be >= 1"
    | c -> c
  in
  let initial = match capacity with Some c -> c | None -> 64 in
  {
    buf = Array.make initial dummy_entry;
    head = 0;
    len = 0;
    capacity;
    counts = Array.make n_kinds 0;
    recorded = 0;
    enabled;
  }

let capacity t = t.capacity

let dropped t = t.recorded - t.len
(** Entries evicted by a bounded ring since the last {!clear}. *)

let grow t =
  let n = Array.length t.buf in
  let buf' = Array.make (2 * n) dummy_entry in
  for i = 0 to t.len - 1 do
    buf'.(i) <- t.buf.((t.head + i) mod n)
  done;
  t.buf <- buf';
  t.head <- 0

let enabled t = t.enabled

(* The detail is forced here, when the trace is on, so an entry holds its
   text; a disabled trace drops the lazy unforced. *)
let record t ~time kind detail =
  if t.enabled then begin
    let e = { time; kind; detail = Lazy.force detail } in
    t.counts.(kind_index kind) <- t.counts.(kind_index kind) + 1;
    t.recorded <- t.recorded + 1;
    (match t.capacity with
    | None ->
        if t.len = Array.length t.buf then grow t;
        t.buf.((t.head + t.len) mod Array.length t.buf) <- e;
        t.len <- t.len + 1
    | Some c ->
        if t.len < c then begin
          t.buf.((t.head + t.len) mod c) <- e;
          t.len <- t.len + 1
        end
        else begin
          (* Full: overwrite the oldest. *)
          t.buf.(t.head) <- e;
          t.head <- (t.head + 1) mod c
        end)
  end

(** Retained entries in chronological order. *)
let entries t =
  let n = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.head + i) mod n))

(** [count t kind] — O(1): every entry of [kind] recorded since the last
    {!clear}, including entries a bounded ring has evicted. *)
let count t kind = t.counts.(kind_index kind)

(** Retained entries of [kind], chronological. *)
let find_all t kind = List.filter (fun e -> e.kind = kind) (entries t)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.recorded <- 0;
  Array.fill t.counts 0 n_kinds 0

let pp_entry ppf e =
  Fmt.pf ppf "[%8.3fs] %-14s %s" e.time (kind_to_string e.kind) e.detail

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_entry) (entries t)

(** Machine-readable JSON rendering of the retained entries: a JSON array
    of [{"time": s, "kind": "...", "detail": "..."}] objects.  [detail]
    strings are escaped (they embed user/schema names and pretty-printed
    tuples, so quotes and backslashes do occur). *)
let to_json_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Fmt.str "\n  {\"time\": %.9f, \"kind\": %s, \"detail\": %s}" e.time
           (Dyno_jsonv.Jsonv.quote (kind_to_string e.kind))
           (Dyno_jsonv.Jsonv.quote e.detail)))
    (entries t);
  Buffer.add_string b (if t.len = 0 then "]" else "\n]");
  Buffer.contents b
