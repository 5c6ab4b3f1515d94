(** The dependency graph over the Update Message Queue and its correction
    (Sections 4.1.1 and 4.2): graph construction in O(m·n + n), unsafe
    detection, Tarjan SCC cycle merging, stable topological sort into a
    legal order (Theorem 2). *)

open Dyno_relational
open Dyno_view

type t

val build : Query.t -> (string * Schema.t) list -> Umq.entry list -> t
(** [build view_query believed_schemas entries] constructs the dependency
    graph for the current queue contents. *)

val build_many :
  (Query.t * (string * Schema.t) list) list -> Umq.entry list -> t
(** Multi-view construction: a schema change induces concurrent
    dependencies as soon as it conflicts with {e any} of the views. *)

val make : nodes:Umq.entry list -> edges:Dependency.edge list -> t
(** Build a graph directly from nodes and edges (analysis of hand-crafted
    dependency structures; [build] is the normal entry point). *)

val nodes : t -> Umq.entry list
val edges : t -> Dependency.edge list
val size : t -> int

val unsafe : t -> Dependency.edge list
(** Unsafe dependencies under the current queue order (Definition 6).
    Cached at construction (node indices are queue positions, and the graph
    is immutable), so this is O(1) per call. *)

val unsafe_count : t -> int
(** [List.length (unsafe g)], without materializing anything new. *)

val has_unsafe : t -> bool

val scc : t -> int list list
(** Strongly connected components (each a list of node indices), Tarjan's
    algorithm, O(n + e).  Multi-node components are the maintenance
    deadlocks of Section 3.5. *)

val describe_edge : t -> Dependency.edge -> string Lazy.t
(** A human-readable account of why the edge exists, naming the message
    ids involved and (for concurrent dependencies) the triggering schema
    change — the provenance [dyno explain] replays.  The edge's entries
    are read now; the text is rendered when the lazy is forced. *)

val edge_dependent_ids : t -> Dependency.edge -> int list
(** Message ids of the edge's dependent entry — where the provenance is
    recorded in the lineage. *)

type correction = {
  order : Umq.entry list;  (** the legal order to install in the UMQ *)
  merged_cycles : int;  (** number of cycles collapsed into batches *)
  merged_updates : int;  (** messages involved in those cycles *)
  merged_members : int list list;
      (** message ids of each collapsed cycle, one list per new batch *)
}

val correct : t -> correction
(** Compute a legal order: cycles merged into batch entries (members in
    commit order), then a stable topological sort — updates are reordered
    only as far as the dependencies force.  By Theorem 2 every dependency
    is safe in the result. *)

val pp : Format.formatter -> t -> unit
