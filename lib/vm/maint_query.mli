(** Maintenance-query construction: the decomposition of the view query
    into per-source probes (the paper's Query (2)), partial-result name
    plumbing, sweep ordering and output projection. *)

open Dyno_relational
open Dyno_view

exception Unsupported of string

val partial_alias : string
(** Alias under which the shipped partial result is bound at a source. *)

val owner_of_schemas :
  (string * Schema.t) list -> Attr.Qualified.t -> string
(** Resolve unqualified references against believed alias schemas.
    @raise Eval.Error on unknown/ambiguous references. *)

val needed_attrs : Query.t -> (Attr.Qualified.t -> string) -> string -> string list
(** Deduplicated attributes of an alias used anywhere in the view query. *)

val probe_query :
  Query.t ->
  (Attr.Qualified.t -> string) ->
  Query.table_ref ->
  partial_schema:Schema.t ->
  bound:string list ->
  Query.t
(** The maintenance query probing one table with the current partial
    result shipped along. *)

val fetch_query :
  Query.t -> (Attr.Qualified.t -> string) -> Query.table_ref -> Query.t
(** The adaptation probe: needed attributes under their own names,
    restricted by the view's local filters (no partial shipped). *)

val view_output_schema : Query.t -> (string * Schema.t) list -> Schema.t
(** The schema of the view's extent implied by the select list and the
    believed alias schemas. *)

val sweep_order : Query.t -> string -> Query.table_ref list
(** Aliases other than the pivot, pivot-adjacent first (walk left to the
    start of the FROM list, then right) — the SWEEP processing order that
    keeps chain joins connected. *)

(** {1 Compiled sweeps}

    Everything a sweep needs besides data is compiled once per
    (view-definition version, pivot alias).  Each step is an
    {!Eval.prepared} plan; executing it re-checks the schemas it was
    prepared for and re-prepares otherwise, so a schema change at a
    source still surfaces as the same {!Eval.Error}. *)

type probe = {
  table : Query.table_ref;  (** the probed FROM entry *)
  needed : string list;  (** the table's attributes the view uses *)
  query : Query.t;  (** the maintenance query shipped to its source *)
  plan : Eval.prepared;
      (** [query] prepared against the table's believed schema and the
          partial result's schema at this point of the sweep *)
  local_plan : Eval.prepared Lazy.t;
      (** the same query prepared against the projection of the table on
          its needed attributes, as a self-maintenance auxiliary view
          holds it; prepared when a local sweep first needs it *)
}

type sweep = private {
  version : int;  (** view-definition version compiled from *)
  local_name : string Lazy.t;
      (** name of the span marking a sweep answered locally
          ([local:<view>:<pivot alias>]), rendered when read *)
  pivot : Query.table_ref;
  start : Eval.prepared;
      (** delta → first partial result: the pivot's local filters, its
          needed attributes, prefixed names *)
  probes : probe list;  (** in sweep order *)
  finish : Eval.prepared;
      (** completed partial → view delta: residual atoms, then the
          view's select list under its output names *)
}

val compile :
  version:int -> Query.t -> (string * Schema.t) list -> Query.table_ref -> sweep
(** [compile ~version q schemas pivot] plans the sweep of an update to
    [pivot] through view [q] under the believed alias [schemas].
    @raise Eval.Error when the view does not resolve against [schemas].
    @raise Unsupported for an alias that contributes no attribute. *)

val start : sweep -> Relation.t -> Rows.t
(** Turn the maintained update's delta into the first partial result:
    local filters applied, needed attributes projected, names prefixed.
    The rows are consolidated, so an empty result means the delta
    cancels or is filtered out. *)

val finish : sweep -> Rows.t -> Relation.t
(** Project the completed partial result onto the view's select list
    (applying residual atoms), restoring output names and types: the
    view delta, hashed here, the caller's own. *)

val output_schema : sweep -> Schema.t
(** The schema of the view delta the sweep produces. *)

val sweep_for : View_def.t -> Query.table_ref -> sweep
(** The compiled sweep of [pivot] under the current version of the
    definition: compiled on first use, then kept with the definition
    ({!View_def.remember}) until its version moves. *)
