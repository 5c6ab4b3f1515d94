(** Dependencies between maintenance processes (Section 3 of the paper).

    [M(X) ← M(Y)] ("M(X) depends on M(Y)") constrains the processing
    order: Y must be maintained before X.  Concurrent dependencies
    (Definition 3) arise from read/write conflicts on the view definition;
    semantic dependencies (Definition 4) from per-source commit order. *)

open Dyno_relational
open Dyno_view

type kind = Concurrent | Semantic

type edge = {
  dependent : int;  (** node index of M(X) *)
  prerequisite : int;  (** node index of M(Y), which must run first *)
  kind : kind;
}
(** An edge [dependent ← prerequisite] between node indices of a
    dependency graph. *)

val pp_edge : Format.formatter -> edge -> unit

val sc_mentioned_in_view :
  Query.t -> (string * Schema.t) list -> Schema_change.t -> bool
(** The paper's literal Section 4.1.1 test: does the schema change modify
    metadata (a relation or attribute) included in the view query? *)

val sc_conflicts_with_view :
  Query.t -> (string * Schema.t) list -> Schema_change.t -> bool
(** The CD-edge test Dyno uses: {!sc_mentioned_in_view} widened to any
    destructive change at a source the view reads, which stays sound under
    chains of unmaintained renames (see the implementation notes). *)

val message_edges :
  Query.t -> (string * Schema.t) list -> Update_msg.t list -> edge list
(** All dependencies among a flat list of update messages (positions in
    the list are node indices). *)

val is_safe : (int -> int) -> edge -> bool
(** [is_safe pos e] — Definition 6: the edge is safe iff the prerequisite
    is positioned before the dependent under [pos]. *)

val unsafe_edges : edge list -> edge list
(** Unsafe edges under the identity position map (list order = queue
    order). *)
