(** Dependency correction (Section 4.2): install a legal order in the UMQ.
    Cycles are merged — sources cannot abort, so a maintenance deadlock is
    resolved by processing its members as one atomic batch. *)

open Dyno_view

type report = {
  reordered : bool;  (** the queue order actually changed *)
  merged_cycles : int;
  merged_updates : int;
  merged_members : int list list;
      (** message ids of each collapsed cycle — merge provenance *)
  nodes : int;
  edges : int;
}

val apply : Umq.t -> Dep_graph.t -> report
(** [apply umq g] corrects the queue according to graph [g] and installs
    the legal order.  The set of queued updates is preserved exactly
    ({!Umq.replace} enforces it): entries admitted after [g] was built —
    a delivery inside the detection pass's clock charge — stay queued
    after the corrected order, in arrival order. *)

val collapse : Umq.entry list -> Umq.entry list * report
(** The strawman correction the paper argues against, over an entry
    list: every message as a single batch (members in commit order).
    Kept as an experimental baseline; a cross-shard barrier collapses its
    snapshot with it. *)

val merge_all : Umq.t -> report
(** {!collapse} the whole queue and install the result. *)
