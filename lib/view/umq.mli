(** The Update Message Queue (UMQ): buffers update messages in arrival
    order; Dyno's correction may {e reorder} it and may {e merge}
    cyclically-dependent messages into batch entries maintained
    atomically.  Also carries the two global flags of the paper's
    Figures 6/7: the schema-change flag (set on SC arrival, consumed
    test-and-set by the Dyno loop) and the broken-query flag (set by the
    query engine's in-exec detection). *)

type entry =
  | Single of Update_msg.t
  | Batch of Update_msg.t list
      (** merged cyclic updates, in their internal legal (commit) order *)

val entry_messages : entry -> Update_msg.t list
val entry_ids : entry -> int list
val entry_has_sc : entry -> bool
val pp_entry : Format.formatter -> entry -> unit

type t

val create : ?ids:int ref -> unit -> t
(** [create ?ids ()] — [ids] is the message-id counter to draw from
    (fresh by default).
    Sharded worlds pass one shared counter to every shard's queue so
    message ids stay globally unique — exclusion sets, the consistency
    checker's message index and the cross-shard commit order all key on
    them — and double as a global arrival order. *)

val is_empty : t -> bool
val length : t -> int
val entries : t -> entry list

val messages : t -> Update_msg.t list
(** All queued messages, in queue order. *)

val enqueue :
  t -> commit_time:float -> source_version:int -> Update_msg.payload ->
  Update_msg.t
(** Append a new message, assigning its id; sets the schema-change flag
    for SCs (the UMQ manager of Figure 7). *)

val history : t -> Update_msg.t list
(** Every message ever enqueued, in arrival order (audit / consistency
    checking). *)

(** {1 Exactly-once sequencer}

    Restores the per-source FIFO discipline that SWEEP compensation and
    dependency-graph construction assume when the transport may deliver
    late, twice, or out of order: messages are admitted strictly in
    per-source sequence order, duplicates dropped, early arrivals held
    until the gap before them fills. *)

val ensure_source : t -> source:string -> first_seq:int -> unit
(** Register the first sequence number [source] will ever send, if not
    already known.  Must be called no later than the source's first
    commit, which precedes any delivery. *)

type delivery =
  | Admitted of Update_msg.t list
      (** the message (and any held successors it released), enqueued in
          sequence order *)
  | Duplicate  (** already admitted or already held — dropped *)
  | Held  (** arrived ahead of a gap — buffered until the gap fills *)

val deliver :
  t ->
  source:string ->
  commit_time:float ->
  source_version:int ->
  Update_msg.payload ->
  delivery
(** Run one arriving copy through the sequencer; [source_version] is its
    sequence number. *)

val dups_dropped : t -> int
val reorders_healed : t -> int
val held_count : t -> int

val pending_dus :
  t -> source:string -> rel:string -> (Update_msg.t * Dyno_relational.Update.t) list
(** Queued, unmaintained data updates on [rel@source] in commit order. *)

(** The pending DUs of one delta schema on a relation, summed: SPJ
    queries are linear over signed multisets, so one evaluation of a
    probe over [sum] compensates all [count] of them.  (DUs straddling an
    unmaintained schema change carry different schemas.) *)
type pending_sum = {
  schema : Dyno_relational.Schema.t;
  sum : Dyno_relational.Relation.t;
  count : int;  (** DUs summed, never 0 *)
}

val pending_sums :
  ?after:float ->
  t ->
  source:string ->
  rel:string ->
  exclude:int list ->
  pending_sum list
(** [pending_sums q ~source ~rel ~exclude] — what SWEEP compensation
    subtracts from an answer read from [rel@source]: its queued,
    unmaintained DUs summed per delta schema, leaving out the ids in
    [exclude] and, with [after], every DU committed after that instant
    (their effects stay in the answer).  Groups with nothing left are
    skipped; the rest come in the order of their oldest remaining DU.

    The queue keeps the sums: the first read of a relation builds them,
    then admissions and removals update them in place until the
    relation has no pending DU.  A read costs O(left-out DUs), not
    O(queue depth).  A group with nothing left out returns the {e live}
    sum — never mutate it, and finish with it before the simulated
    clock can move (a delivery would change it).  A group with
    something left out returns a private copy. *)

val head : t -> entry option
val remove_head : t -> unit

val remove_entry : t -> entry -> unit
(** Remove the first queued entry carrying exactly the given entry's
    message-id set, wherever it sits — a parallel round maintains an
    antichain of entries that need not be a queue prefix.  No-op when
    absent. *)

val replace : t -> entry list -> unit
(** Install a corrected (reordered / merged) queue.  The multiset of
    message ids must be preserved — correction may neither drop nor invent
    updates (sources cannot abort).
    @raise Invalid_argument otherwise. *)

(** {1 Flags (Figure 6/7 protocol)} *)

val test_and_clear_schema_change_flag : t -> bool
(** [Test_If_True_Set_False]. *)

val peek_schema_change_flag : t -> bool
val set_broken_query_flag : t -> unit
val clear_broken_query_flag : t -> unit
val broken_query_flag : t -> bool

val pp : Format.formatter -> t -> unit
