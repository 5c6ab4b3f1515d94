(** The materialized view: extent storage plus a commit log.  Every
    successful maintenance process ends with w(MV) c(MV).  With snapshot
    tracking on, the view keeps a copy of the extent it was created with
    and each commit logs how it changed the extent and the definition it
    was built on, so every committed extent can be rolled forward and
    checked for strong consistency offline. *)

open Dyno_relational

(** How a tracked commit changed the extent. *)
type change =
  | Unchanged
  | Delta of Relation.t  (** a copy of the signed delta applied *)
  | Installed of Relation.t  (** a copy of the extent installed *)

type commit = {
  at : float;  (** simulated commit time *)
  maintained : int list;  (** update-message ids integrated by this commit *)
  logged : (change * Query.t) option;
      (** with tracking: the extent change and the definition the commit
          was built on *)
}

type t

val create : ?track_snapshots:bool -> View_def.t -> Relation.t -> t
val def : t -> View_def.t
val extent : t -> Relation.t

val initial_extent : t -> Relation.t option
(** A copy of the extent {!create} received, when tracking: where the
    roll through the logged changes starts. *)

val cardinality : t -> int
val commit_count : t -> int

val extent_changes : t -> int
(** How many {!refresh}es and {!replace}s the view has had: a step that
    moved it refreshed or adapted the view. *)

val commits : t -> commit list
(** Chronological order. *)

val record_commit : t -> at:float -> maintained:int list -> unit
(** Commit without an extent change (irrelevant updates, no-op batches). *)

val refresh : t -> at:float -> maintained:int list -> Relation.t -> unit
(** Apply a signed delta and commit — w(MV) c(MV) of a VM process.
    @raise Invalid_argument naming the view and [maintained] if the delta
    drives a multiplicity negative (a maintenance bug, or the duplication
    anomaly of maintenance without compensation; tests rely on this
    tripwire). *)

val replace : t -> at:float -> maintained:int list -> Relation.t -> unit
(** Install a whole new extent (adaptation after the definition changed
    shape). *)

val pp : Format.formatter -> t -> unit
