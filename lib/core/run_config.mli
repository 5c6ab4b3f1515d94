(** The runtime configuration record consumed by the one scheduler core,
    {!Scheduler.dispatch}, whatever its queues and views.  One record,
    one set of defaults, one CLI plumbing path.  A view set ignores
    [vm_mode] and [du_group]; several shards ignore [du_group]. *)

(** How data updates are maintained. *)
type vm_mode =
  | Incremental  (** SWEEP-style probes computing a view delta (default) *)
  | Recompute
      (** naive baseline: re-materialize the whole view per update — the
          classic strawman incremental maintenance is measured against *)

type t = {
  strategy : Strategy.t;
  max_steps : int;  (** safety valve against livelock in tests *)
  compensate : bool;
      (** SWEEP compensation for concurrent DUs; disable only to
          demonstrate the duplication anomaly (Example 1.a) *)
  vm_mode : vm_mode;
  du_group : int;
      (** deferred/grouped maintenance: up to this many consecutive queued
          data updates are maintained as one atomic batch (1 = the paper's
          per-update processing).  Groups never cross schema changes or
          merged batches and preserve queue order, so dependencies stay
          safe; the view skips intermediate states (freshness for
          throughput). *)
  parallel : int;
      (** dependency-parallel maintenance: up to this many mutually
          independent queued entries — an antichain of the corrected
          topological order — are maintained concurrently per queue,
          overlapping their probe round trips on cooperative executor
          tasks.  [1] (the default) is the strictly serial per-queue
          scheduler. *)
  self_maint : bool;
      (** self-maintenance tier: keep auxiliary probe-column projections
          current at the view manager and answer maintenance sweeps
          locally whenever they cover the probed aliases, falling back to
          SWEEP probes on any coverage miss or schema-change
          invalidation.  [false] (the default) is byte-identical to a
          build without the tier. *)
}

val default : t
(** Pessimistic, compensated, incremental, no grouping, serial, one
    million steps. *)

val of_strategy : Strategy.t -> t
(** [default] with the given strategy — the most common construction. *)

val with_max_steps : int -> t -> t
val with_compensate : bool -> t -> t
val with_vm_mode : vm_mode -> t -> t
val with_du_group : int -> t -> t
val with_parallel : int -> t -> t
val with_self_maint : bool -> t -> t
