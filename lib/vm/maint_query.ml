(** Maintenance-query construction.

    A view maintenance process decomposes the view query into per-source
    probe queries (the paper's Query (2)): for each relation joined by the
    view, a probe ships the current partial result to the relation's source
    and asks for the joining tuples.  This module builds those probes and
    the name plumbing around them.

    Partial results use {e prefixed} attribute names [alias__attr] so that
    a single flat schema can carry columns of many view aliases without
    clashes. *)

open Dyno_relational
open Dyno_view

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(** Name of view attribute [alias.attr] inside a partial result. *)
let pname alias attr = alias ^ "__" ^ attr

(** Alias under which the shipped partial result is bound at the source. *)
let partial_alias = "__p"

(** [owner_of_schemas schemas] resolves unqualified references against the
    view manager's believed alias schemas.
    @raise Eval.Error on unknown/ambiguous references. *)
let owner_of_schemas (schemas : (string * Schema.t) list)
    (r : Attr.Qualified.t) =
  let attr = Attr.Qualified.attr r in
  match List.filter (fun (_, s) -> Schema.mem s attr) schemas with
  | [ (a, _) ] -> a
  | [] -> raise (Eval.Error (Fmt.str "unknown attribute %s" attr))
  | many ->
      raise
        (Eval.Error
           (Fmt.str "ambiguous attribute %s (%s)" attr
              (String.concat ", " (List.map fst many))))

(** [alias_of_ref owner r] is the alias a reference belongs to. *)
let alias_of_ref owner (r : Attr.Qualified.t) =
  match Attr.Qualified.rel r with Some a -> a | None -> owner r

(** [needed_attrs q owner alias] is the deduplicated list of attributes of
    [alias] that the view query uses anywhere (select list, predicates). *)
let needed_attrs (q : Query.t) owner alias =
  let names = Query.refs_of_alias q alias owner in
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    [] names

(** Atoms of the view predicate that are local to [alias] (reference only
    that alias and constants), with references qualified explicitly. *)
let local_atoms (q : Query.t) owner alias =
  List.filter_map
    (fun (a : Predicate.atom) ->
      let refs = Predicate.refs [ a ] in
      let aliases =
        List.sort_uniq String.compare (List.map (alias_of_ref owner) refs)
      in
      match aliases with
      | [ x ] when String.equal x alias ->
          let qualify = function
            | Predicate.Ref r ->
                Predicate.Ref (Attr.Qualified.make ~rel:alias (Attr.Qualified.attr r))
            | c -> c
          in
          Some { a with Predicate.lhs = qualify a.lhs; rhs = qualify a.rhs }
      | _ -> None)
    q.Query.where

(** Cross-alias equality atoms between [alias] and any alias in [bound]
    (attributes qualified).  Returned as [(attr_of_alias, bound_alias,
    attr_of_bound)] triples. *)
let join_pairs_with (q : Query.t) owner alias bound =
  List.filter_map
    (fun ((ax, qx), (ay, qy)) ->
      let open Attr.Qualified in
      if String.equal ax alias && List.mem ay bound then
        Some (attr qx, ay, attr qy)
      else if String.equal ay alias && List.mem ax bound then
        Some (attr qy, ax, attr qx)
      else None)
    (Predicate.equijoin_pairs owner q.Query.where)

(** Cross-alias atoms that are not hash-joinable equalities; applied as a
    residual filter once all aliases are joined into the partial. *)
let residual_atoms (q : Query.t) owner =
  List.filter
    (fun (a : Predicate.atom) ->
      let refs = Predicate.refs [ a ] in
      let aliases =
        List.sort_uniq String.compare (List.map (alias_of_ref owner) refs)
      in
      List.length aliases > 1
      &&
      match (a.op, a.lhs, a.rhs) with
      | Predicate.Eq, Predicate.Ref _, Predicate.Ref _ -> false
      | _ -> true)
    q.Query.where

(** [probe_query q owner (tr, partial_schema, bound_aliases)] builds the
    maintenance query probing table [tr] with the current partial result
    shipped along: it selects [tr]'s needed attributes (renamed to their
    prefixed partial names) plus all partial columns, restricted by [tr]'s
    local filters and its join conditions with the already-bound aliases. *)
let probe_query (q : Query.t) owner (tr : Query.table_ref)
    ~(partial_schema : Schema.t) ~(bound : string list) : Query.t =
  let needed = needed_attrs q owner tr.alias in
  if needed = [] then
    (* A relation joined without contributing any attribute: probe its
       cardinality via all attributes of the join keys; in SPJ views this
       cannot happen unless the alias is disconnected, which [make]
       rejects elsewhere. *)
    unsupported "alias %s contributes no attribute to view %s" tr.alias
      (Query.name q);
  let select_t =
    List.map
      (fun a ->
        {
          Query.expr = Attr.Qualified.make ~rel:tr.alias a;
          as_name = pname tr.alias a;
        })
      needed
  in
  let select_p =
    List.map
      (fun a ->
        {
          Query.expr = Attr.Qualified.make ~rel:partial_alias (Attr.name a);
          as_name = Attr.name a;
        })
      (Schema.attrs partial_schema)
  in
  let joins =
    List.map
      (fun (my_attr, b_alias, b_attr) ->
        Predicate.atom
          (Predicate.Ref (Attr.Qualified.make ~rel:tr.alias my_attr))
          Predicate.Eq
          (Predicate.Ref
             (Attr.Qualified.make ~rel:partial_alias (pname b_alias b_attr))))
      (join_pairs_with q owner tr.alias bound)
  in
  Query.make
    ~name:(Fmt.str "maint:%s:%s" (Query.name q) tr.alias)
    ~select:(select_t @ select_p)
    ~from:
      [
        { tr with alias = tr.alias };
        { Query.source = tr.source; rel = partial_alias; alias = partial_alias };
      ]
    ~where:(local_atoms q owner tr.alias @ joins)

(** [fetch_query q owner tr] builds the adaptation probe for table [tr]:
    the relation's needed attributes under their own names, restricted by
    the view's local filters on [tr].  Unlike {!probe_query} no partial
    result is shipped — adaptation re-reads whole (filtered) relations. *)
let fetch_query (q : Query.t) owner (tr : Query.table_ref) : Query.t =
  let needed = needed_attrs q owner tr.alias in
  Query.make
    ~name:(Fmt.str "adapt:%s:%s" (Query.name q) tr.alias)
    ~select:
      (List.map
         (fun a ->
           { Query.expr = Attr.Qualified.make ~rel:tr.alias a; as_name = a })
         needed)
    ~from:[ tr ]
    ~where:(local_atoms q owner tr.alias)

(** [view_output_schema q schemas] is the schema of the view's extent as
    implied by the select list and the believed alias schemas. *)
let view_output_schema (q : Query.t) (schemas : (string * Schema.t) list) :
    Schema.t =
  let owner = owner_of_schemas schemas in
  Schema.of_list
    (List.map
       (fun (it : Query.select_item) ->
         let alias = alias_of_ref owner it.expr in
         let s =
           match List.assoc_opt alias schemas with
           | Some s -> s
           | None ->
               raise (Eval.Error (Fmt.str "no believed schema for alias %s" alias))
         in
         let a = Schema.find s (Attr.Qualified.attr it.expr) in
         Attr.make it.as_name (Attr.ty a))
       (Query.select q))

(** Sweep order: aliases other than the pivot, pivot-adjacent first — walk
    left to the start of the FROM list, then right to its end (the SWEEP
    processing order, which keeps chain joins connected). *)
let sweep_order (q : Query.t) pivot_alias =
  let refs = Query.from q in
  let idx =
    match
      List.mapi (fun i tr -> (i, tr)) refs
      |> List.find_opt (fun (_, (tr : Query.table_ref)) ->
             String.equal tr.alias pivot_alias)
    with
    | Some (i, _) -> i
    | None -> unsupported "alias %s not in view %s" pivot_alias (Query.name q)
  in
  let arr = Array.of_list refs in
  let left = List.init idx (fun k -> arr.(idx - 1 - k)) in
  let right =
    List.init (Array.length arr - idx - 1) (fun k -> arr.(idx + 1 + k))
  in
  left @ right

(** {1 Compiled sweeps}

    Everything a sweep needs besides data depends only on the view
    definition and the pivot alias, so it is compiled once per
    (view-definition version, pivot) and reused for every update the
    sweep maintains.  Each step is an {!Eval.prepared} plan; executing a
    plan re-checks the schemas it was prepared for, so a schema change
    at a source still surfaces as the same {!Eval.Error}. *)

type probe = {
  table : Query.table_ref;  (** the probed FROM entry *)
  needed : string list;  (** the table's attributes the view uses *)
  query : Query.t;  (** the maintenance query shipped to its source *)
  plan : Eval.prepared;
      (** [query] prepared against the table's believed schema and the
          partial result's schema at this point of the sweep *)
  local_plan : Eval.prepared Lazy.t;
      (** the same query prepared against the projection of the table on
          its needed attributes — what a self-maintenance auxiliary view
          holds — when a local sweep first needs it *)
}

type sweep = {
  version : int;  (** view-definition version compiled from *)
  local_name : string Lazy.t;
      (** name of the span marking a sweep answered locally, built once
          per compiled sweep and rendered when read *)
  pivot : Query.table_ref;
  start : Eval.prepared;
      (** delta → first partial result: the pivot's local filters, its
          needed attributes, prefixed names *)
  probes : probe list;  (** in sweep order *)
  finish : Eval.prepared;
      (** completed partial → view delta: residual atoms, then the
          view's select list under its output names *)
}

(** [compile ~version q schemas pivot] plans the sweep of an update to
    [pivot] through view [q], given the believed alias [schemas].
    @raise Eval.Error when the view does not resolve against [schemas].
    @raise Unsupported for an alias that contributes no attribute. *)
let compile ~version (q : Query.t) (schemas : (string * Schema.t) list)
    (pivot : Query.table_ref) : sweep =
  let owner = owner_of_schemas schemas in
  let believed (tr : Query.table_ref) =
    match List.assoc_opt tr.alias schemas with
    | Some s -> s
    | None ->
        raise (Eval.Error (Fmt.str "no believed schema for alias %s" tr.alias))
  in
  let start =
    Eval.prepare
      (Query.make ~name:(Query.name q)
         ~select:
           (List.map
              (fun a ->
                {
                  Query.expr = Attr.Qualified.make ~rel:pivot.alias a;
                  as_name = pname pivot.alias a;
                })
              (needed_attrs q owner pivot.alias))
         ~from:[ pivot ]
         ~where:(local_atoms q owner pivot.alias))
      [ (pivot.alias, believed pivot) ]
  in
  let partial = ref (Eval.output_schema start) in
  let bound = ref [ pivot.alias ] in
  let probes =
    List.map
      (fun (tr : Query.table_ref) ->
        let needed = needed_attrs q owner tr.alias in
        let query =
          probe_query q owner tr ~partial_schema:!partial ~bound:!bound
        in
        let here = !partial in
        let prepare s =
          Eval.prepare query [ (tr.alias, s); (partial_alias, here) ]
        in
        let plan = prepare (believed tr) in
        (* It cannot fail where [plan] did not: its schema keeps every
           attribute of the table the query reads. *)
        let local_plan =
          lazy (prepare (Schema.project (believed tr) needed))
        in
        partial := Eval.output_schema plan;
        bound := tr.alias :: !bound;
        { table = tr; needed; query; plan; local_plan })
      (sweep_order q pivot.alias)
  in
  let in_partial r =
    Attr.Qualified.make ~rel:partial_alias
      (pname (alias_of_ref owner r) (Attr.Qualified.attr r))
  in
  let finish =
    Eval.prepare
      (Query.make ~name:(Query.name q)
         ~select:
           (List.map
              (fun (it : Query.select_item) -> { it with expr = in_partial it.expr })
              (Query.select q))
         ~from:[ { pivot with rel = partial_alias; alias = partial_alias } ]
         ~where:(Predicate.map_refs in_partial (residual_atoms q owner)))
      [ (partial_alias, !partial) ]
  in
  let view = Query.name q and alias = pivot.alias in
  {
    version;
    local_name = lazy (Fmt.str "local:%s:%s" view alias);
    pivot;
    start;
    probes;
    finish;
  }

(* The single-table plans run under the reference planner: it scans, and
   never registers an index on the delta or on a partial result. *)

(** [start sw delta] turns the delta of the maintained update into the
    first partial result: rows, flat unless the pivot's kept columns
    could make two delta tuples one.  A sweep only streams its partials,
    so an identity start lays the delta's own tuples flat instead of
    copying its table. *)
let start sw delta =
  Eval.execute_rows ~planner:`Nested_loop ~copy:false sw.start
    [ Rows.of_relation delta ]

(** [finish sw partial] projects the completed partial result onto the
    view's select list: the sweep's one hashing of its result. *)
let finish sw partial =
  Rows.relation (Eval.execute_rows ~planner:`Nested_loop sw.finish [ partial ])

(** The schema of the view delta a sweep produces. *)
let output_schema sw = Eval.output_schema sw.finish

type View_def.derived += Compiled of sweep

(** [sweep_for vd pivot] — the compiled sweep of the current version of
    [vd] for [pivot], compiled on first use and kept with the definition
    until its version moves. *)
let sweep_for vd (pivot : Query.table_ref) =
  let version = View_def.version vd in
  match
    List.find_map
      (function
        | Compiled sw
          when sw.version = version
               && String.equal sw.pivot.alias pivot.alias ->
            Some sw
        | _ -> None)
      (View_def.derived vd)
  with
  | Some sw -> sw
  | None ->
      let sw =
        compile ~version (View_def.peek vd) (View_def.schemas vd) pivot
      in
      View_def.remember vd (Compiled sw);
      sw
