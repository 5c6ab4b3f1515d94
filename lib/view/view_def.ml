(** The view definition: the critical shared resource of the paper.

    Concurrent dependencies (Definition 3) are read–write conflicts on this
    object: every maintenance process reads it (r(VD)) to construct its
    maintenance queries, and the maintenance of a schema change rewrites it
    (w(VD)).  The definition is versioned so that traces and tests can tell
    exactly which version a maintenance query was built from. *)

open Dyno_relational

(** Values a higher layer derives from one version of the definition —
    the VM's compiled sweeps extend this type.  They are dropped whenever
    the version moves, so a derived value never outlives the definition
    it was derived from. *)
type derived = ..

type t = {
  mutable query : Query.t;
  mutable schemas : (string * Schema.t) list;
      (** the view manager's {e believed} schema of each FROM alias, as of
          the last synchronization — maintenance queries are built from
          this possibly-stale knowledge, which is exactly why they can
          break *)
  mutable version : int;
  mutable valid : bool;
      (** false when synchronization failed to find a rewriting — the view
          is undefined until a later change or operator intervention *)
  mutable reads : int;  (** r(VD) counter (introspection/tests) *)
  mutable derived : derived list;  (** derived from the current version *)
}

let create ~schemas query =
  {
    query;
    schemas;
    version = 0;
    valid = true;
    reads = 0;
    derived = [];
  }

let schemas vd = vd.schemas

let schema_of_alias vd alias = List.assoc_opt alias vd.schemas

(** [read vd] — the r(VD) step of Definition 1: returns the current
    definition together with the version it was read at. *)
let read vd =
  vd.reads <- vd.reads + 1;
  (vd.query, vd.version)

(** [peek vd] returns the definition without counting a maintenance read. *)
let peek vd = vd.query

let version vd = vd.version
let is_valid vd = vd.valid
let reads vd = vd.reads
let derived vd = vd.derived
let remember vd d = vd.derived <- d :: vd.derived

(* Every change of definition, schemas or validity moves the version and
   forgets what was derived from the old one. *)
let bump vd =
  vd.version <- vd.version + 1;
  vd.derived <- []

(** [write vd ~schemas q] — the w(VD) step: installs a rewritten definition
    and the alias schemas it was derived for.  This is the in-memory
    rewrite of Definition 1's footnote; the persistent rewrite happens
    together with w(MV). *)
let write vd ~schemas q =
  vd.query <- q;
  vd.schemas <- schemas;
  bump vd;
  vd.valid <- true

type saved = Query.t * (string * Schema.t) list * bool

(** [save vd] captures the current definition state for rollback. *)
let save vd : saved = (vd.query, vd.schemas, vd.valid)

(** [restore vd saved] rolls the in-memory definition back to a {!save}d
    state — used when a maintenance process aborts after its w(VD) but
    before w(MV): per Definition 1's footnote the physical rewrite only
    happens at w(MV), so an aborted process must leave no trace. *)
let restore vd (query, schemas, valid) =
  vd.query <- query;
  vd.schemas <- schemas;
  vd.valid <- valid;
  bump vd

(** [invalidate vd] marks the view undefined (no rewriting exists). *)
let invalidate vd =
  bump vd;
  vd.valid <- false

let name vd = Query.name vd.query
