(** Execution traces: a timestamped log of everything notable that happens
    during a simulated run.

    Tests assert against traces (e.g. "a broken query occurred, then a
    correction, then no further aborts"), the CLI prints them, and the
    statistics module derives cost breakdowns from them.

    The log is append-only: an enabled trace keeps every entry, newest
    first, and {!count} reads the entries. *)

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

let all_kinds =
  [
    Commit; Enqueue; Maint_start; Query_sent; Query_answered; Broken_query;
    Compensate; Abort; Refresh; Detect; Correct; Merge; Sync; Adapt;
    Msg_dropped; Msg_duplicated; Timeout; Retry; Outage; Info;
  ]

type entry = { time : float; kind : kind; detail : string }

type t = {
  enabled : bool;
  mutable rev : entry list;  (** newest first *)
}

let create ?(enabled = true) () = { enabled; rev = [] }
let enabled t = t.enabled

(* The detail is forced here, when the trace is on, so an entry holds its
   text; a disabled trace drops the lazy unforced. *)
let record t ~time kind detail =
  if t.enabled then
    t.rev <- { time; kind; detail = Lazy.force detail } :: t.rev

let entries t = List.rev t.rev

let count t kind =
  List.fold_left (fun n e -> if e.kind = kind then n + 1 else n) 0 t.rev

let find_all t kind = List.filter (fun e -> e.kind = kind) (entries t)

let pp_entry ppf e =
  Fmt.pf ppf "[%8.3fs] %-14s %s" e.time (kind_to_string e.kind) e.detail

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_entry) (entries t)
