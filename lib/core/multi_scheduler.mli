(** Multi-view Dyno: one update stream, one UMQ and one dependency
    correction pipeline serving several materialized views — the "plugged
    into any view system" extension the paper's conclusion sketches.  A
    thin entry point: the view-set case of the one dispatch core,
    {!Scheduler.dispatch}.

    A schema change induces concurrent dependencies as soon as it
    conflicts with {e any} valid view, so the corrected legal order is
    legal for all of them at once.  The head entry is maintained against
    each view in turn; if a later view's maintenance breaks while earlier
    views have already committed the entry, per-view {e applied sets}
    ensure the retry (possibly as part of a larger merged batch) only
    maintains what each view has not yet integrated, and that
    compensation keeps already-applied effects in.  Detection,
    correction, abort accounting and the trace/lineage provenance are
    the serial scheduler's own. *)

open Dyno_view

type t

val create : Mat_view.t list -> t
(** A view set.  A one-view set runs exactly as {!Scheduler.run}. *)

val views : t -> Mat_view.t list

(** The shared {!Run_config.t} record (one record drives the serial,
    multi-view and sharded entry points).  A view set consumes
    [strategy], [max_steps], [compensate] and [parallel] — when > 1, the
    per-view sweeps of a single-DU head entry run as concurrent executor
    tasks so their probe round trips overlap; refreshes still commit
    serially at the barrier, in view order.  With two or more views
    [vm_mode] and [du_group] are ignored: a view set always maintains
    incrementally, one entry at a time.  [self_maint] builds one auxiliary-view store per
    view (each view has its own join partners and coverage), fed by one
    shared admit hook per store. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : Run_config.vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
  runtime : [ `Simulated | `Domains of int ];
      (** execution backend for per-view sweep compute — see
          {!Run_config.t} *)
}

val default_config : config
(** [= Run_config.default]. *)

val run :
  ?config:config ->
  Query_engine.t ->
  t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** Drain the UMQ and the timeline, maintaining every entry against every
    view; statistics are aggregated across views.
    @raise Invalid_argument on an empty view set.
    @raise Scheduler.Step_limit_exceeded beyond [config.max_steps]. *)
