(** Per-update causal lineage: one record per source update, keyed by
    [(source, seq)] at commit and by UMQ message id from admission
    onward.  Charging events tile the commit-to-terminal interval into
    named segments (channel / hold / queue / barrier / probe / compute /
    stall / abort) via an advancing cursor, so the segment sums equal the
    elapsed time by construction.  {!disabled} is a structural no-op —
    lineage-off runs are byte-identical.

    {b Details are rendered when read.}  Every recording function takes
    its [~detail] as a [string Lazy.t]; only {!to_jsonl}, {!pp_record},
    the exporters and [dyno explain] force it.

    {b Capture rule.}  A detail is forced long after it is recorded, so
    its lazy may capture only values that nothing mutates afterwards:
    messages, queue entries, timeline events and their deltas, ints,
    floats and strings.  Read anything else into immutable locals first —
    a graph's node array, an accumulating relation, a live queue — and
    capture those. *)

type segment =
  | Channel  (** commit → packet arrival at the warehouse *)
  | Hold  (** sequencer held-for-gap wait *)
  | Queue  (** admission → dispatch (or re-dispatch after abort) *)
  | Barrier  (** dispatched from a cross-shard barrier drain *)
  | Probe  (** source round-trips during maintenance *)
  | Compute  (** maintenance work that is not a probe *)
  | Stall  (** a maintenance query waiting for its unreachable source *)
  | Abort  (** work sunk into an aborted maintenance step *)

val all_segments : segment list
val segment_name : segment -> string

type terminal = Applied | Irrelevant | Dropped_undefined

val terminal_name : terminal -> string

type event = {
  at : float;
  kind : string;
  seg : segment option;
  charged : float;
  detail : string Lazy.t;  (** rendered when read; see the capture rule *)
}

type record = {
  source : string;
  seq : int;
  sc : bool;
  mutable msg_id : int;  (** -1 until the sequencer admits it *)
  commit_at : float;
  mutable cursor : float;
  mutable revents : event list;
  segs : float array;
  mutable held : bool;
  mutable term : terminal option;
  mutable term_at : float;
  mutable parent : int;  (** causal parent msg id (batch merge), -1 *)
}

type t

val create : ?enabled:bool -> ?metrics:Metrics.t -> unit -> t
(** [metrics] receives [lineage.*] counters and [lineage.<segment>_s]
    histograms as records reach their terminal state. *)

val disabled : t
val enabled : t -> bool

(** {1 Recording} *)

val commit :
  t ->
  source:string ->
  seq:int ->
  time:float ->
  sc:bool ->
  detail:string Lazy.t ->
  unit
(** A source transaction committed: open the record, start the clock. *)

val sent :
  t -> source:string -> seq:int -> time:float -> transmissions:int ->
  duplicated:bool -> arrival:float -> unit
(** The channel's send report: retransmissions after loss, in-flight
    duplication, final arrival time. *)

val arrive : t -> source:string -> seq:int -> time:float -> unit
(** Packet reached the warehouse — charges the [Channel] segment. *)

val held : t -> source:string -> seq:int -> time:float -> unit
(** The exactly-once sequencer is holding the packet for a gap. *)

val dedup : t -> source:string -> seq:int -> time:float -> unit
(** A duplicate delivery of an already-sequenced packet was discarded. *)

val admit : t -> source:string -> seq:int -> time:float -> msg_id:int -> unit
(** The sequencer admitted the packet into the UMQ as [msg_id]; charges
    the [Hold] segment when the packet had been held. *)

val dispatch :
  t ->
  ids:int list ->
  time:float ->
  ?seg:segment ->
  detail:string Lazy.t ->
  unit ->
  unit
(** The scheduler picked the entry holding [ids] for maintenance —
    charges [Queue] (default) or [Barrier] per update. *)

val note :
  t -> ids:int list -> time:float -> kind:string -> detail:string Lazy.t -> unit
(** A pure (non-charging) event on each id's record. *)

val abort : t -> ids:int list -> time:float -> detail:string Lazy.t -> unit
(** The maintenance step aborted — charges [Abort]; [detail] carries the
    provenance (aborting SC, believed schema). *)

val edge :
  t -> dep_ids:int list -> time:float -> detail:string Lazy.t -> unit
(** Forensics: a detected CD/SD edge, recorded on the dependent ids. *)

val merged :
  t -> ids:int list -> time:float -> detail:string Lazy.t -> unit
(** Forensics: a cycle merge or [Merge_all] collapse; members gain a
    causal parent link to the batch's smallest id. *)

(** {1 Ambient probe scope} *)

val set_context : t -> int -> unit
(** Switch the ambient context (same per-task integer as the span
    recorder's). *)

val set_scope : t -> int list -> unit
(** Register the ids whose maintenance is running in the current
    context; [\[\]] empties it.  Probe charges go to the active scope. *)

val note_scope :
  t -> time:float -> kind:string -> detail:string Lazy.t -> unit
(** A pure event on each record in the active ambient scope — used by
    subsystems (e.g. the self-maintenance tier) that know what happened
    but not which update is being maintained. *)

val probe_begin : t -> time:float -> unit
(** Charge [Compute] up to the probe's start for the scoped ids. *)

val probe_end : t -> time:float -> detail:string Lazy.t -> unit
(** Charge the probe round-trip to [Probe] for the scoped ids. *)

val stall : t -> time:float -> detail:string Lazy.t -> unit
(** A maintenance query used up its attempts and waited for its source:
    charge [Stall] for the scoped ids — the attempts that ran out and the
    wait, from the cursor to [time].  The query is then asked again, and
    its answer closes as {!probe_end}. *)

(** {1 Terminal} *)

val finish :
  t ->
  ids:int list ->
  time:float ->
  state:terminal ->
  detail:string Lazy.t ->
  unit
(** Charge the trailing [Compute] and seal the record (first terminal
    wins); observes [lineage.total_s] and per-segment histograms. *)

(** {1 Readout} *)

val records : t -> record list
(** All records in commit order. *)

val find_msg : t -> int -> record option
val events : record -> event list
(** Events oldest-first. *)

val segment_value : record -> segment -> float
val segments : record -> (string * float) list
(** Non-zero segments in canonical order. *)

val elapsed : record -> float
(** Commit-to-terminal elapsed (0 when not terminal). *)

val segment_sum : record -> float

(** {1 Export} *)

val to_jsonl : t -> string
(** One JSON object per record per line, commit order. *)

val pp_record : Format.formatter -> record -> unit
(** The human-readable causal narrative used by [dyno explain]. *)
