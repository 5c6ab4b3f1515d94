(** Dependency detection (Section 4.1).

    Two modes:

    - {b pre-exec} ({!pre_exec}): before maintenance starts, build the
      dependency graph over the UMQ and look for unsafe dependencies.
      Guarded by the schema-change flag: with only data updates queued
      there can be no unsafe dependency and detection is O(1) (the flag
      check) — the optimization behind Figure 8's "almost unobservable"
      overhead.
    - {b in-exec}: broken-query detection inside the query engine; it is
      implemented in {!Dyno_view.Query_engine.execute_timed} (which raises
      the broken-query flag) — by Theorem 1 a broken query implies an
      unsafe dependency, so a failed probe is itself the detection
      signal. *)

open Dyno_view

type outcome = {
  graph : Dep_graph.t option;  (** [None] when the flag fast path fired *)
  unsafe : int;  (** number of unsafe dependencies found *)
}

(** [pre_exec vd umq] — the pre-exec detection pass.  Consumes the
    schema-change flag ([Test_If_True_Set_False] of Figure 6, line 1): if
    no schema change arrived since the last pass, skips graph construction
    entirely. *)
let pre_exec (vd : View_def.t) (umq : Umq.t) : outcome =
  if not (Umq.test_and_clear_schema_change_flag umq) then
    { graph = None; unsafe = 0 }
  else begin
    let query = View_def.peek vd in
    let schemas = View_def.schemas vd in
    let g = Dep_graph.build query schemas (Umq.entries umq) in
    { graph = Some g; unsafe = Dep_graph.unsafe_count g }
  end

(** [force vd umq] — unconditional graph construction (used by the
    in-exec correction path after a broken query, regardless of flag). *)
let force (vd : View_def.t) (umq : Umq.t) : outcome =
  (* Consume the flag too: this pass subsumes a pending pre-exec pass. *)
  ignore (Umq.test_and_clear_schema_change_flag umq);
  let query = View_def.peek vd in
  let schemas = View_def.schemas vd in
  let g = Dep_graph.build query schemas (Umq.entries umq) in
  { graph = Some g; unsafe = Dep_graph.unsafe_count g }
