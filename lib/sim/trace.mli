(** Execution traces: a timestamped log of everything notable in a
    simulated run.  Tests assert against traces, the CLI prints them,
    statistics derive cost breakdowns from them.

    The log is append-only: an enabled trace keeps every entry for the
    life of the run, and {!count} reads the entries. *)

type kind =
  | Commit  (** a source committed an update *)
  | Enqueue  (** the wrapper delivered an update message to the UMQ *)
  | Maint_start
  | Query_sent
  | Query_answered
  | Broken_query  (** a maintenance query failed on a schema conflict *)
  | Compensate  (** compensation removed concurrent-DU effects *)
  | Abort  (** an in-flight maintenance process was aborted *)
  | Refresh  (** the materialized view was refreshed and committed *)
  | Detect  (** a pre-exec detection pass ran *)
  | Correct  (** the dependency correction (reorder) ran *)
  | Merge  (** cyclic dependencies were merged into a batch node *)
  | Sync  (** view synchronization rewrote the view definition *)
  | Adapt  (** view adaptation brought the extent up to date *)
  | Msg_dropped  (** the channel lost a transmission (retransmitted) *)
  | Msg_duplicated  (** a duplicate delivery was dropped by the UMQ *)
  | Timeout  (** a maintenance-query attempt got no answer in time *)
  | Retry  (** a maintenance query was retried after backoff *)
  | Outage  (** a source was found unreachable (outage window) *)
  | Info

val kind_to_string : kind -> string

val all_kinds : kind list
(** Every kind, in declaration order. *)

type entry = { time : float; kind : kind; detail : string }

type t

val create : ?enabled:bool -> unit -> t

val enabled : t -> bool
(** Whether {!record} keeps entries.  A hot path checks it before
    building a record's time and text. *)

val record : t -> time:float -> kind -> string Lazy.t -> unit
(** [record t ~time kind (lazy detail)] appends an entry.  An enabled
    trace forces the detail now, so {!entry.detail} stays plain text and
    shows the state at record time; a disabled one drops it unforced: no
    string is built and no printer runs.

    Capture rule, shared with the lineage and span recorders: a detail
    lazy captures only values that nothing mutates afterwards — messages,
    queue entries, timeline events and their deltas, ints, floats and
    strings.  Anything else (a graph's node array, an accumulating
    relation, a live queue) is read into immutable locals first.  The
    trace forces at once, so its lazies are safe either way; the rule
    matters for the recorders that force at export. *)

val entries : t -> entry list
(** Every entry, chronological order. *)

val count : t -> kind -> int
(** The entries of the given kind. *)

val find_all : t -> kind -> entry list
(** Entries of the given kind, chronological order. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
