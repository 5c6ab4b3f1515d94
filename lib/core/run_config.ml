(** The runtime configuration record consumed by the one scheduler core,
    {!Scheduler.dispatch}; see run_config.mli. *)

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

let default =
  {
    strategy = Strategy.Pessimistic;
    max_steps = 1_000_000;
    compensate = true;
    vm_mode = Incremental;
    du_group = 1;
    parallel = 1;
    self_maint = false;
  }

let of_strategy strategy = { default with strategy }

let with_max_steps max_steps t = { t with max_steps }
let with_compensate compensate t = { t with compensate }
let with_vm_mode vm_mode t = { t with vm_mode }
let with_du_group du_group t = { t with du_group }
let with_parallel parallel t = { t with parallel }
let with_self_maint self_maint t = { t with self_maint }
