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

val order : Umq.entry list -> Dep_graph.t -> Umq.entry list * report
(** [order entries g] — the legal order of [entries] by graph [g], built
    over [entries] or a prefix of it, and what correcting changed.  The
    set of entries' updates is preserved exactly: entries past [g]'s —
    admitted during the detection pass's clock charge — follow the
    corrected order, in arrival order.  [reordered] holds when the entry
    sequence changed: a reorder, or a cycle merged into one batch. *)

val apply : Umq.t -> Dep_graph.t -> report
(** [apply umq g] — {!order} the queue's entries and install the legal
    order ({!Umq.replace} checks that the set of updates is kept). *)

val collapse : Umq.entry list -> Umq.entry list * report
(** The strawman correction the paper argues against, over an entry
    list: every message as a single batch (members in commit order).
    Kept as an experimental baseline; a cross-shard barrier collapses its
    snapshot with it. *)

val merge_all : Umq.t -> report
(** {!collapse} the whole queue and install the result. *)
