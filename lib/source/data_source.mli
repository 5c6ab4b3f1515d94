(** An autonomous data source: a small versioned relational store that
    commits data updates and schema changes {e autonomously} (they can
    never be aborted by the view manager — the root constraint of the
    paper) and answers maintenance queries against its {e current} state.
    The store is multi-versioned: any past state can be reconstructed,
    which is what lets tests check strong consistency. *)

open Dyno_relational

type t

type broken = { source : string; query_name : string; reason : string }
(** Diagnosis of a broken maintenance query. *)

type answer = {
  rows : Relation.t;
  scanned : int;  (** source tuples scanned to answer (cost input) *)
}

val create : string -> t
val id : t -> string
val catalog : t -> Catalog.t

val version : t -> int
(** Bumped on every commit; 0 = initial state.  Doubles as the
    per-source monotone sequence number stamped on each outgoing update
    message ([Update_msg.seq]): the UMQ's exactly-once sequencer is
    anchored at the version of the source's first commit and expects
    every later commit to follow in order. *)

val relations : t -> string list

val relation : t -> string -> Relation.t
(** @raise Catalog.No_such_relation when absent. *)

val relation_opt : t -> string -> Relation.t option

val add_relation : t -> string -> Schema.t -> unit
(** Register an empty base relation (initial load, not versioned). *)

val load : t -> string -> Value.t list list -> unit
(** Bulk-append initial data (not versioned). *)

val load_counted : t -> string -> (Value.t list * int) list -> unit

(** {1 Autonomous commits} *)

exception Commit_rejected of string

val commit_du : t -> time:float -> Update.t -> int
(** Apply a data update (the delta schema must match the relation's
    current schema); returns the new version.
    @raise Commit_rejected when invalid. *)

val commit_sc : t -> time:float -> Schema_change.t -> int
(** Apply a schema change: catalog surgery plus the corresponding extent
    transformation; returns the new version.
    @raise Commit_rejected when inapplicable. *)

val commit : t -> time:float -> Dyno_sim.Timeline.event -> int

(** {1 Query answering} *)

val answer :
  ?planner:Eval.plan ->
  ?plan:Eval.prepared ->
  t -> Query.t -> bound:(string * Relation.t) list ->
  (answer, broken) result
(** Evaluate against the current state.  Aliases in [bound] resolve to the
    supplied relations (partial results shipped with the query, as SWEEP
    does); other local refs resolve in the catalog.  Any schema
    discrepancy yields [Error] — the in-exec broken-query signal.
    [planner] (default [`Indexed]) picks the physical plan; under
    [`Indexed] repeated probes reuse persistent indexes on the source's
    extents, which commits keep maintained incrementally.  [plan] is the
    query as the view manager prepared it ({!Eval.prepare}); it runs only
    when the bound relations' current schemas equal the prepared ones,
    and the query is re-prepared against the current schemas otherwise,
    so a conflict yields the same [Error] as without a plan. *)

val validate : t -> Query.t -> (unit, broken) result
(** Metadata-only dry run: do the referenced local relations and
    attributes still exist?  One round trip, no scan. *)

(** {1 Version history} *)

val snapshot_at : t -> version:int -> Catalog.t * (string, Relation.t) Hashtbl.t
(** Full state at a version, reconstructed by undoing history (schema
    changes keep pre-images, so it is exact).  Reconstructions are
    memoized per version — a past version never changes retroactively —
    so repeated probes at the same version are O(1) after the first, and
    indexes built on the cached extents persist across probes.  Treat the
    returned state as {b read-only}: it is shared between callers.
    @raise Invalid_argument when out of range. *)

val relation_at : t -> version:int -> string -> Relation.t
(** Extent at a version, from the memoized snapshot (read-only; see
    {!snapshot_at}).
    @raise Catalog.No_such_relation if absent at that version. *)

(** Commit-log entries (oldest first from {!history}). *)
type hist_entry =
  | H_du of { update : Update.t; time : float }
  | H_sc of {
      sc : Schema_change.t;
      time : float;
      saved_catalog : Catalog.t;
      saved_rels : (string * Relation.t) list;
    }

val history : t -> (int * hist_entry) list

val commit_time_of_version : t -> int -> float option
(** Simulated time at which a version was committed; [None] for
    version 0 (initial load, not versioned) or an unknown version.  The
    freshness/staleness tracker's commit-frontier read. *)

val last_commit_time : t -> float option
(** Time of the newest commit, if any. *)

val pp : Format.formatter -> t -> unit
val pp_broken : Format.formatter -> broken -> unit
