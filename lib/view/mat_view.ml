(** The materialized view: extent storage plus a commit log.

    Every successful maintenance process ends with w(MV) c(MV): the extent
    is updated and a commit record appended.  When [track_snapshots] is on
    (tests, consistency checking), each commit also logs how it changed
    the extent — nothing, a copy of the delta it applied, or a copy of the
    extent it installed — and the view keeps a copy of the extent it was
    created with, so every committed extent can be rolled forward offline
    and checked for strong consistency. *)

open Dyno_relational

type change = Unchanged | Delta of Relation.t | Installed of Relation.t

type commit = {
  at : float;  (** simulated commit time *)
  maintained : int list;  (** update-message ids integrated by this commit *)
  logged : (change * Query.t) option;
      (** when tracking: the extent change and the definition it was
          built on *)
}

type t = {
  def : View_def.t;
  mutable extent : Relation.t;
  mutable commits : commit list;  (** newest first *)
  mutable changes : int;  (** refreshes and replacements *)
  initial : Relation.t option;  (** the created extent (when tracking) *)
}

let create ?(track_snapshots = false) def extent =
  {
    def;
    extent;
    commits = [];
    changes = 0;
    initial = (if track_snapshots then Some (Relation.copy extent) else None);
  }

let def v = v.def
let extent v = v.extent
let initial_extent v = v.initial
let cardinality v = Relation.cardinality v.extent

let commit_count v = List.length v.commits
let extent_changes v = v.changes

(** Commits in chronological order. *)
let commits v = List.rev v.commits

let log v ~at ~maintained change =
  let logged =
    if v.initial = None then None else Some (change (), View_def.peek v.def)
  in
  v.commits <- { at; maintained; logged } :: v.commits

let record_commit v ~at ~maintained =
  log v ~at ~maintained (fun () -> Unchanged)

(** [refresh v ~at ~maintained delta] applies a signed delta to the extent
    in place — O(|delta|) — and commits: the w(MV) c(MV) of a VM process.
    @raise Invalid_argument naming the view and [maintained] if the delta
    drives a multiplicity negative (a maintenance bug, or the duplication
    anomaly of maintenance without compensation; tests rely on this
    tripwire).  The delta is checked before anything is applied, so a
    rejected refresh leaves the extent and the commit log untouched. *)
let refresh v ~at ~maintained delta =
  (try Relation.apply_delta_in_place v.extent delta
   with Invalid_argument reason ->
     invalid_arg
       (Fmt.str "view %s rejected the refresh for %a (%s)"
          (View_def.name v.def)
          Fmt.(list ~sep:sp (fmt "#%d"))
          maintained reason));
  v.changes <- v.changes + 1;
  log v ~at ~maintained (fun () -> Delta (Relation.copy delta))

(** [replace v ~at ~maintained extent] installs a whole new extent — used
    by view adaptation when the definition itself changed shape. *)
let replace v ~at ~maintained extent =
  v.extent <- extent;
  v.changes <- v.changes + 1;
  log v ~at ~maintained (fun () -> Installed (Relation.copy extent))

let pp ppf v =
  Fmt.pf ppf "@[<v>%a@,extent: %d tuples, %d commits@]" View_def.pp v.def
    (Relation.cardinality v.extent)
    (commit_count v)
