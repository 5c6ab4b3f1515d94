(** Executable consistency criteria (Section 4.4).

    {b Convergence}: the final extent equals a re-evaluation of the
    current view definition over the sources' current states.

    {b Strong consistency} (Zhuge et al.): every committed view state
    equals the view definition at that commit evaluated over a valid
    source-state vector, advancing monotonically in source-commit order.
    The claimed vector is derived from the maintained message ids; the
    committed extents are rolled forward from the view's logged changes
    and the source states from the sources' commit logs. *)

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

val check_strong : Query_engine.t -> Mat_view.t -> report
(** [check_strong w mv] rolls every tracked commit of [mv] forward and
    checks it against the view over the source versions it claims, in
    time linear in the commits.  A maintained message id that none of
    [w]'s queues admitted is a mismatch, and so is a live extent that
    differs from the one the last commit's log leads to.  Commits without
    a logged change are counted as skipped. *)
