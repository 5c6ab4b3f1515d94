(** An autonomous data source: a small versioned relational store that
    commits data updates and schema changes {e autonomously} (they can
    never be aborted by the view manager — the root constraint of the
    paper) and answers maintenance queries against its {e current} state.
    The store is multi-versioned: it logs every commit and rolls a copy
    of version 0 forward to any past state, which is what lets the
    strong-consistency check and self-maintenance re-seeding read the
    exact state a view claims to reflect. *)

open Dyno_relational

type t

type broken = { source : string; query_name : string; reason : string }
(** Diagnosis of a broken maintenance query. *)

type answer = {
  rows : Rows.t;
      (** the caller's own and consolidated: flat when the answer cannot
          repeat a tuple, hashed otherwise ({!Eval.execute_rows}) *)
  scanned : int;  (** source tuples scanned to answer (cost input) *)
}

exception No_such_relation of string
exception Relation_exists of string

val create : string -> t
val id : t -> string

val version : t -> int
(** Bumped on every commit; 0 = initial state.  Doubles as the
    per-source monotone sequence number of each outgoing update message
    ([Update_msg.source_version]): the UMQ's exactly-once sequencer is
    anchored at the version of the source's first commit and expects
    every later commit to follow in order. *)

val relation : t -> string -> Relation.t
(** A relation's extent; its schema is the relation's.
    @raise No_such_relation when absent. *)

val relation_opt : t -> string -> Relation.t option

val add_relation : t -> string -> Schema.t -> unit
(** Register an empty base relation (initial load, not versioned).
    @raise Relation_exists when the name is taken. *)

val load : t -> string -> Value.t list list -> unit
(** Bulk-append initial data (not versioned). *)

val load_counted : t -> string -> (Value.t list * int) list -> unit

(** {1 Autonomous commits} *)

exception Commit_rejected of string

val commit_du : t -> time:float -> Update.t -> int
(** Apply a data update (the delta schema must match the relation's
    current schema, and no count may go negative); returns the new
    version.
    @raise Commit_rejected when invalid, the source unchanged. *)

val commit_sc : t -> time:float -> Schema_change.t -> int
(** Apply a schema change to the tables ({!Schema_change.extent});
    returns the new version.
    @raise Commit_rejected when inapplicable, the source unchanged. *)

val commit : t -> time:float -> Dyno_sim.Timeline.event -> int

(** {1 Query answering} *)

val answer :
  ?planner:Eval.plan ->
  ?plan:Eval.prepared ->
  t -> Query.t -> bound:(string * Rows.t) list ->
  (answer, broken) result
(** Evaluate against the current state.  Aliases in [bound] resolve to the
    supplied rows (partial results shipped with the query, as SWEEP
    does); other local refs resolve to the source's tables, in one pass over the
    FROM list.  Any schema
    discrepancy yields [Error] — the in-exec broken-query signal.
    [planner] (default [`Indexed]) picks the physical plan; under
    [`Indexed] repeated probes reuse persistent indexes on the source's
    extents, which commits keep maintained incrementally.  [plan] is the
    query as the view manager prepared it ({!Eval.prepare}); it runs only
    when the bound relations' current schemas equal the prepared ones,
    and the query is re-prepared against the current schemas otherwise,
    so a conflict yields the same [Error] as without a plan. *)

val fetch : ?planner:Eval.plan -> t -> Query.t -> (answer, broken) result
(** An adaptation's fetch: {!answer} of a query reading one local
    relation, no rows shipped.  A query that selects the relation's
    columns under no predicate is answered with the live extent itself,
    indexes included, {e pinned}: as it stands for an {e identity} query
    (every column in order under its own name), or seen through the
    projection ({!Rows.Projected}) when a registered index shows that
    the projection merges no two tuples ({!Relation.injective_on}).  From
    then on a commit about to touch the relation — any data update on
    it, any schema change to it — first swaps the live state onto a
    copy, so the fetched relation never changes.  It is read-only, and
    pinned until {!unpin}.  Any other query's rows are the caller's own,
    as {!answer}'s. *)

val unpin : t -> Relation.t -> unit
(** Release one pin {!fetch} took on the relation; one that is not
    pinned (an answer the caller owns, or an extent a commit already
    swapped out) is left alone.  Until then every commit on a pinned
    extent copies it once. *)

val validate : t -> Query.t -> (unit, broken) result
(** Metadata-only dry run: do the referenced local relations and
    attributes still exist?  One round trip, no scan. *)

(** {1 Version history} *)

val relation_at : t -> version:int -> string -> Relation.t
(** Extent at a version, read from the source's one private replica of
    its past: the replica rolls forward through the commit log in place
    when asked for its own version or a later one (so the indexes probes
    build on it persist), and is rebuilt from version 0 only when asked
    for an older version.  A reader whose versions never decrease — the
    strong-consistency check, self-maintenance re-seeding at the
    delivered frontier — rebuilds at most once.  Read-only, and valid
    only until the next [relation_at] on the same source.
    @raise No_such_relation if absent at that version.
    @raise Invalid_argument when the version is out of range. *)

val commit_time_of_version : t -> int -> float option
(** Simulated time at which a version was committed; [None] for
    version 0 (initial load, not versioned) or an unknown version.  The
    freshness/staleness tracker's commit-frontier read. *)

val pp_broken : Format.formatter -> broken -> unit
