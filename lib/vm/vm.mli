(** View Maintenance (VM): the maintenance process of the paper's
    Definition 1(1) — [M(DU) = r(VD) r(DS_1) … r(DS_n) w(MV) c(MV)] —
    with SWEEP compensation for concurrent data updates. *)

open Dyno_relational
open Dyno_view

type outcome =
  | Refreshed of { delta_tuples : int; stats : Sweep.stats }
      (** maintenance succeeded; MV refreshed and committed *)
  | Irrelevant
      (** the update does not touch any relation of the view; a commit
          record is still made so consistency bookkeeping sees it *)
  | Aborted of Dyno_source.Data_source.broken
      (** a maintenance query broke (in-exec detection fired) *)
  | Unreachable of Dyno_net.Retry.unreachable
      (** a probe exhausted its transport retry budget — transient; the
          scheduler waits for recovery and retries the step, no abort *)

exception Invalid_view of string

val maintain :
  ?compensate:bool ->
  ?applied:int list ->
  ?local:Sweep.local ->
  Query_engine.t ->
  Mat_view.t ->
  Update_msg.t ->
  Update.t ->
  outcome
(** Run one full VM process for a data update.  [compensate:false]
    disables SWEEP (demonstrating the duplication anomaly); [applied]
    lists queued message ids this view has already integrated (multi-view
    mode) so compensation leaves their effects in.  [local] (installed by
    a scheduler running the self-maintenance tier) lets a sweep whose
    aliases are all covered by current auxiliary data be answered without
    probing — {!Sweep.delta_view_local}; any miss falls back to the
    probed path unchanged.  Ignored when [compensate] is false.
    @raise Invalid_view when the view is undefined.
    @raise Maint_query.Unsupported on a self-join of the target relation. *)

(** The sweep half of {!maintain}, without the refresh/commit — what one
    concurrent maintenance task computes.  The refresh mutates the view
    and charges the clock serially, so the parallel scheduler applies
    {!commit_swept} per successful sweep at the round barrier, in
    corrected queue order. *)
type swept =
  | Swept of Relation.t * Sweep.stats  (** view delta, refresh pending *)
  | Swept_irrelevant  (** commit record pending *)
  | Swept_aborted of Dyno_source.Data_source.broken
  | Swept_unreachable of Dyno_net.Retry.unreachable

val maintain_sweep :
  ?compensate:bool ->
  ?applied:int list ->
  ?exclude_extra:int list ->
  ?local:Sweep.local ->
  Query_engine.t ->
  Mat_view.t ->
  Update_msg.t ->
  Update.t ->
  swept
(** Probe + compensate for one data update without touching the view.
    [exclude_extra] lists message ids of antichain members dispatched
    earlier in the same parallel round — maintained concurrently, so
    compensation must not subtract their deltas (exclusion sets are
    fixed at dispatch).
    @raise Invalid_view when the view is undefined.
    @raise Maint_query.Unsupported on a self-join of the target relation. *)

val commit_swept :
  Query_engine.t ->
  Mat_view.t ->
  Update_msg.t ->
  Relation.t ->
  Sweep.stats ->
  outcome
(** The refresh half of {!maintain} for a delta computed by
    {!maintain_sweep}: charge the refresh cost, refresh and commit the
    view.  Serial code — call at the round barrier, never inside a
    task. *)

val maintain_group :
  ?compensate:bool ->
  ?local:Sweep.local ->
  Query_engine.t ->
  Mat_view.t ->
  Update_msg.t list ->
  outcome * int list
(** Deferred/grouped maintenance of a queue prefix of data updates: one
    merged sweep per relation, one view commit for the whole group
    (probe-level telescoping of Equation 6).  [Refreshed] carries the
    sweeps' summed statistics; [Irrelevant] means no relation of the
    group is in the view.  With the outcome come the ids of the members
    whose relation the view does not read (every id when [Irrelevant],
    none when the group failed).
    @raise Invalid_argument if a schema change is in the group.
    @raise Invalid_view when the view is undefined. *)
