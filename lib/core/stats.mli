(** Run statistics: the measurements behind every figure of Section 6.
    "Maintenance cost" is busy time (probes, refreshes, detection,
    correction, aborted work); "the maintenance cost includes the abort
    cost throughout our experiments" (the paper's footnote 4). *)

(** What a maintenance episode maintained: a data update (a round member
    included), a schema change, or a merged batch (a grouped sweep
    included). *)
type episode_kind = Du_maint | Sc_maint | Batch_maint

(** The maintenance episodes of one kind and one outcome. *)
type episodes = {
  count : int;
  total : float;  (** summed durations, s *)
  longest : float;  (** s *)
}

type t = {
  mutable busy : float;  (** total maintenance cost, s (includes aborts) *)
  mutable abort_cost : float;  (** work thrown away on broken queries, s *)
  mutable idle : float;  (** time spent waiting for updates, s *)
  mutable end_time : float;  (** simulated clock at completion *)
  mutable du_maintained : int;
  mutable sc_maintained : int;
  mutable batches : int;  (** merged batch nodes maintained *)
  mutable batch_updates : int;  (** messages inside those batches *)
  mutable irrelevant : int;  (** updates not touching the view *)
  mutable aborts : int;
  mutable broken_queries : int;
  mutable detections : int;  (** pre-exec detection passes (graph built) *)
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
      (** maintenance episodes: the steps that refreshed or adapted a
          view, or that aborted — counted by {!note_episode} and read
          through {!episodes}; {!pp} and {!to_json_string} leave them
          out *)
}

val create : unit -> t

val episodes : t -> episode_kind -> aborted:bool -> episodes
(** The episodes of one kind and outcome so far. *)

val note_episode : t -> episode_kind -> aborted:bool -> float -> unit
(** Count one episode lasting the given seconds. *)

val pp : Format.formatter -> t -> unit
(** Prints the transport line only when some transport counter is
    nonzero (the channel actually misbehaved), so reliable-channel runs
    render byte-identically to the historical output. *)

val to_json_string : t -> string
(** Machine-readable JSON rendering of every field. *)
