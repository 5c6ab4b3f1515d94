(** The materialized view: extent storage plus a commit log.

    Every successful maintenance process ends with w(MV) c(MV): the extent
    is updated and a commit record appended.  When [track_snapshots] is on
    (tests, consistency checking), each commit also stores a full copy of
    the extent so that strong consistency can be verified offline. *)

open Dyno_relational

type commit = {
  at : float;  (** simulated commit time *)
  def_version : int;  (** view-definition version the commit was built on *)
  maintained : int list;  (** update-message ids integrated by this commit *)
  snapshot : Relation.t option;
  def_snapshot : (Query.t * (string * Schema.t) list) option;
      (** definition + believed schemas at commit time (when tracking) *)
}

type t = {
  def : View_def.t;
  mutable extent : Relation.t;
  mutable commits : commit list;  (** newest first *)
  track_snapshots : bool;
  applied : (string, int * float) Hashtbl.t;
      (** applied frontier: per source, the highest source version this
          view has integrated (or trivially reflects) and the simulated
          time of that source commit.  Written by the schedulers'
          freshness tracker, read by staleness probes and [dyno report]. *)
}

let create ?(track_snapshots = false) def extent =
  { def; extent; commits = []; track_snapshots; applied = Hashtbl.create 8 }

let def v = v.def
let extent v = v.extent
let cardinality v = Relation.cardinality v.extent

let commit_count v = List.length v.commits

(** Commits in chronological order. *)
let commits v = List.rev v.commits

let record_commit v ~at ~maintained =
  v.commits <-
    {
      at;
      def_version = View_def.version v.def;
      maintained;
      snapshot = (if v.track_snapshots then Some (Relation.copy v.extent) else None);
      def_snapshot =
        (if v.track_snapshots then
           Some (View_def.peek v.def, View_def.schemas v.def)
         else None);
    }
    :: v.commits

(** [refresh v ~at ~maintained delta] applies a signed delta to the extent
    in place — O(|delta|) — and commits: the w(MV) c(MV) of a VM process.
    @raise Invalid_argument if the delta drives a multiplicity negative
    (a maintenance bug; tests rely on this tripwire).  The delta is
    checked before anything is applied, so a rejected refresh leaves the
    extent and the commit log untouched. *)
let refresh v ~at ~maintained delta =
  Relation.apply_delta_in_place v.extent delta;
  record_commit v ~at ~maintained

(** [replace v ~at ~maintained extent] installs a whole new extent — used
    by view adaptation when the definition itself changed shape. *)
let replace v ~at ~maintained extent =
  v.extent <- extent;
  record_commit v ~at ~maintained

(** [note_applied v ~source ~version ~commit_time] advances the applied
    frontier for [source] (monotone: a stale redelivery never moves it
    backwards). *)
let note_applied v ~source ~version ~commit_time =
  match Hashtbl.find_opt v.applied source with
  | Some (have, _) when have >= version -> ()
  | _ -> Hashtbl.replace v.applied source (version, commit_time)

(** [applied_version v source] — highest integrated version of [source],
    if any update from it was ever applied. *)
let applied_version v source =
  Option.map fst (Hashtbl.find_opt v.applied source)

(** The whole applied frontier, sorted by source id:
    [(source, (version, commit_time))]. *)
let applied_frontier v =
  Hashtbl.fold (fun src f acc -> (src, f) :: acc) v.applied []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf v =
  Fmt.pf ppf "@[<v>%a@,extent: %d tuples, %d commits@]" View_def.pp v.def
    (Relation.cardinality v.extent)
    (commit_count v)
