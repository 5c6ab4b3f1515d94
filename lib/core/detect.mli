(** Dependency detection (Section 4.1): the pre-exec pass over the UMQ,
    guarded by the schema-change flag (O(1) when only data updates are
    queued — the optimization behind Figure 8).  In-exec detection lives
    in {!Dyno_view.Query_engine.execute_timed}: a failed probe {e is} the
    detection signal, by Theorem 1. *)

open Dyno_view

type outcome = {
  graph : Dep_graph.t option;  (** [None] when the flag fast path fired *)
  unsafe : int;  (** number of unsafe dependencies found *)
}

val pre_exec : View_def.t -> Umq.t -> outcome
(** The pre-exec detection pass.  Consumes the schema-change flag
    ([Test_If_True_Set_False], Figure 6 line 1): if no schema change
    arrived since the last pass, graph construction is skipped entirely. *)

val force : View_def.t -> Umq.t -> outcome
(** Unconditional graph construction (the in-exec correction path after a
    broken query).  Also consumes the flag — this pass subsumes a pending
    pre-exec pass. *)
