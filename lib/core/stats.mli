(** Run statistics: the measurements behind every figure of Section 6.
    "Maintenance cost" is busy time (probes, refreshes, detection,
    correction, aborted work); "the maintenance cost includes the abort
    cost throughout our experiments" (the paper's footnote 4). *)

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
}

val create : unit -> t

val has_transport_activity : t -> bool
(** Any transport counter nonzero — i.e. the channel actually misbehaved. *)

val pp : Format.formatter -> t -> unit
(** Prints the transport line only when {!has_transport_activity}, so
    reliable-channel runs render byte-identically to the historical
    output. *)

val to_json_string : t -> string
(** Machine-readable JSON rendering of every field. *)
