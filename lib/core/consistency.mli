(** Executable consistency criteria (Section 4.4).

    {b Convergence}: the final extent equals a re-evaluation of the
    current view definition over the sources' current states.

    {b Strong consistency} (Zhuge et al.): every committed view state
    equals the view definition at that commit evaluated over a valid
    source-state vector, advancing monotonically in source-commit order.
    The claimed vector is derived from the maintained message ids; states
    are reconstructed from the sources' version histories. *)

open Dyno_view

type mismatch = { commit_index : int; at : float; reason : string }

type report = { checked : int; skipped : int; mismatches : mismatch list }

val ok : report -> bool
(** No mismatch and no skipped commit: a commit without a snapshot was
    never checked, so a run without snapshot tracking is never [ok]. *)

val pp_report : Format.formatter -> report -> unit
(** "consistent" only when {!ok}; skipped commits are reported as not
    checked. *)

val convergent : Query_engine.t -> Mat_view.t -> (bool, string) result
(** [Ok true] when the extent matches a recompute; [Error] when the view
    is undefined (nothing to check against). *)

val check_strong :
  Query_engine.t ->
  Mat_view.t ->
  msg_index:(int * (string * int)) list ->
  report
(** [check_strong w mv ~msg_index] replays every snapshot-tracked commit;
    [msg_index] maps a message id to [(source id, source version)] (see
    [Dyno_workload.Scenario.msg_index]).  Commits without snapshots are
    counted as skipped. *)
