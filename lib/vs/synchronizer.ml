(** View Synchronization (VS): evolving the view definition under source
    schema changes — an EVE-style rewriter [9].

    Given a schema change and the meta knowledge registry, the synchronizer
    produces a {e possibly non-equivalent} rewriting of the view (the
    paper's Queries (3)–(5)):

    - renames are propagated through the definition;
    - a dropped attribute that the view uses is replaced through a
      registered attribute replacement (joining in a substitute relation,
      as [ReaderDigest.Comments] replaces [Catalog.Review]), or silently
      dropped from the select list when marked dispensable;
    - a dropped relation is substituted by a registered replacement
      relation with its attribute mapping (as [StoreItems] replaces
      [Store ⋈ Item]);
    - when no rewriting exists the synchronization fails and the view
      becomes undefined.

    The rewriting also maintains the view manager's {e believed schemas} —
    the metadata from which future maintenance queries are built. *)

open Dyno_relational
open Dyno_source

exception Failed of string

let fail fmt = Fmt.kstr (fun s -> raise (Failed s)) fmt

(** What the synchronizer did, for traces and tests. *)
type action =
  | No_effect
  | Propagated_rename of string  (** human-readable description *)
  | Schema_tracked of string  (** believed schema updated, query unchanged *)
  | Dropped_dispensable of { alias : string; attr : string }
  | Replaced_attribute of {
      alias : string;
      attr : string;
      via_alias : string;
      new_rel : string;
    }
  | Replaced_relation of { alias : string; old_rel : string; new_rel : string }

let pp_action ppf = function
  | No_effect -> Fmt.string ppf "no effect on view"
  | Propagated_rename d -> Fmt.pf ppf "propagated rename: %s" d
  | Schema_tracked d -> Fmt.pf ppf "tracked schema: %s" d
  | Dropped_dispensable { alias; attr } ->
      Fmt.pf ppf "dropped dispensable %s.%s from view" alias attr
  | Replaced_attribute { alias; attr; via_alias; new_rel } ->
      Fmt.pf ppf "replaced %s.%s via %s (alias %s)" alias attr new_rel via_alias
  | Replaced_relation { alias; old_rel; new_rel } ->
      Fmt.pf ppf "replaced relation %s (alias %s) by %s" old_rel alias new_rel

type result = {
  query : Query.t;
  schemas : (string * Schema.t) list;
  actions : action list;
}

(* -- helpers -------------------------------------------------------- *)

let owner_fn schemas (r : Attr.Qualified.t) =
  let attr = Attr.Qualified.attr r in
  match List.filter (fun (_, s) -> Schema.mem s attr) schemas with
  | [ (a, _) ] -> a
  | [] -> fail "unknown attribute %s in view" attr
  | many ->
      fail "ambiguous attribute %s (%s)" attr
        (String.concat ", " (List.map fst many))

let set_schema schemas alias s =
  (alias, s) :: List.remove_assoc alias schemas

(** Does the view use attribute [attr] of [alias] anywhere? *)
let uses_attr query schemas alias attr =
  let owner = owner_fn schemas in
  List.exists (String.equal attr) (Query.refs_of_alias query alias owner)

let fresh_alias query base =
  let taken = Query.aliases query in
  let rec go i =
    let cand = if i = 0 then base else Fmt.str "%s%d" base i in
    if List.mem cand taken then go (i + 1) else cand
  in
  go 0

(** Rewrite every reference to [alias.attr] into [to_alias.to_attr]. *)
let redirect_refs query schemas ~alias ~attr ~to_alias ~to_attr =
  let owner = owner_fn schemas in
  Query.map_refs
    (fun r ->
      let a =
        match Attr.Qualified.rel r with Some x -> x | None -> owner r
      in
      if String.equal a alias && String.equal (Attr.Qualified.attr r) attr
      then Attr.Qualified.make ~rel:to_alias to_attr
      else r)
    query

(** The schema of a replacement relation, as reported by its wrapper. *)
let replacement_schema registry ~source ~rel =
  match Registry.find_opt registry source with
  | None -> fail "replacement source %s is not registered" source
  | Some s -> (
      match Data_source.relation_opt s rel with
      | Some r -> Relation.schema r
      | None -> fail "replacement relation %s@%s does not exist" rel source)

(** [replace_relations] substitutes every view relation subsumed by [repl]
    with the single replacement relation.  When the replacement covers
    several view relations (the XML remapping of Example 1.b: [StoreItems]
    covers both [Store] and [Item]), their aliases collapse into one and
    the join conditions the replacement internalizes (on unmapped
    attributes such as [SID]) are removed — producing Query (3). *)
let replace_relations _mk registry ~(query : Query.t) ~schemas ~source
    ~dropped (repl : Meta_knowledge.rel_replacement) : result =
  let repl_schema =
    replacement_schema registry ~source:repl.Meta_knowledge.repl_source
      ~rel:repl.Meta_knowledge.repl_rel
  in
  let covered =
    List.filter
      (fun (tr : Query.table_ref) ->
        String.equal tr.source source
        && List.mem_assoc tr.rel repl.Meta_knowledge.covers)
      (Query.from query)
  in
  if covered = [] then
    fail "replacement for %s@%s covers no view relation" dropped source;
  let covered_aliases = List.map (fun (tr : Query.table_ref) -> tr.alias) covered in
  (* The collapsed alias keeps the first covered alias's name, as the
     paper's Query (3) keeps alias S for StoreItems. *)
  let via = (List.hd covered).Query.alias in
  let owner = owner_fn schemas in
  (* 1. Fully qualify references so rewriting is purely syntactic. *)
  let query =
    Query.map_refs
      (fun r ->
        match Attr.Qualified.rel r with
        | Some _ -> r
        | None -> Attr.Qualified.make ~rel:(owner r) (Attr.Qualified.attr r))
      query
  in
  (* 2. Redirect every mapped attribute to the replacement alias. *)
  let query =
    List.fold_left
      (fun q (tr : Query.table_ref) ->
        let amap = List.assoc tr.Query.rel repl.Meta_knowledge.covers in
        List.fold_left
          (fun q (old_a, new_a) ->
            if not (Schema.mem repl_schema new_a) then
              fail "replacement %s has no attribute %s"
                repl.Meta_knowledge.repl_rel new_a;
            Query.map_refs
              (fun (r : Attr.Qualified.t) ->
                if
                  Attr.Qualified.rel r = Some tr.Query.alias
                  && String.equal (Attr.Qualified.attr r) old_a
                then Attr.Qualified.make ~rel:via new_a
                else r)
              q)
          q amap)
      query covered
  in
  (* 3. Leftover references to covered aliases are unmapped attributes.
     An atom entirely inside the covered group expressed a join the
     replacement internalizes — drop it; anything else is unrewritable. *)
  let leftover (r : Attr.Qualified.t) =
    match Attr.Qualified.rel r with
    | Some a when String.equal a via ->
        not (Schema.mem repl_schema (Attr.Qualified.attr r))
    | Some a -> List.mem a covered_aliases
    | None -> false
  in
  List.iter
    (fun (it : Query.select_item) ->
      if leftover it.Query.expr then
        fail "select-list attribute %a is not mapped by the replacement"
          Attr.Qualified.pp it.Query.expr)
    (Query.select query);
  let where' =
    List.filter
      (fun (a : Predicate.atom) ->
        let refs = Predicate.refs [ a ] in
        if List.exists leftover refs then
          if
            List.for_all
              (fun (r : Attr.Qualified.t) ->
                match Attr.Qualified.rel r with
                | Some al ->
                    String.equal al via || List.mem al covered_aliases
                | None -> false)
              refs
          then false (* internalized join condition *)
          else
            fail "predicate %a uses an unmapped attribute" Predicate.pp_atom a
        else true)
      (Query.where query)
  in
  (* 4. Remove reflexive atoms produced by the collapse (via.x = via.x). *)
  let where' =
    List.filter
      (fun (a : Predicate.atom) ->
        match (a.Predicate.op, a.Predicate.lhs, a.Predicate.rhs) with
        | Predicate.Eq, Predicate.Ref x, Predicate.Ref y ->
            not (Attr.Qualified.equal x y)
        | _ -> true)
      where'
  in
  (* 5. Rebuild FROM: the first covered entry becomes the replacement, the
     other covered entries disappear. *)
  let from' =
    List.filter_map
      (fun (tr : Query.table_ref) ->
        if String.equal tr.alias via then
          Some
            {
              Query.source = repl.Meta_knowledge.repl_source;
              rel = repl.Meta_knowledge.repl_rel;
              alias = via;
            }
        else if List.mem tr.alias covered_aliases then None
        else Some tr)
      (Query.from query)
  in
  let query = { query with Query.from = from'; where = where' } in
  let schemas =
    set_schema
      (List.filter (fun (a, _) -> not (List.mem a covered_aliases)) schemas)
      via repl_schema
  in
  {
    query;
    schemas;
    actions =
      List.map
        (fun (tr : Query.table_ref) ->
          Replaced_relation
            {
              alias = tr.Query.alias;
              old_rel = tr.Query.rel;
              new_rel = repl.Meta_knowledge.repl_rel;
            })
        covered;
  }

(* -- the rewriter, one primitive change at a time ------------------- *)

(** [sync_one mk registry ~query ~schemas sc] rewrites [query] (and the
    believed [schemas]) for one schema change.
    @raise Failed when no legal rewriting exists. *)
let sync_one (mk : Meta_knowledge.t) (registry : Registry.t)
    ~(query : Query.t) ~(schemas : (string * Schema.t) list)
    (sc : Schema_change.t) : result =
  let aliases_of ~source ~rel =
    List.filter
      (fun (tr : Query.table_ref) ->
        String.equal tr.source source && String.equal tr.rel rel)
      (Query.from query)
  in
  match sc with
  | Add_relation _ -> { query; schemas; actions = [ No_effect ] }
  | Rename_relation { source; old_name; new_name } -> (
      (* The wrapper keeps meta knowledge keyed by current names. *)
      Meta_knowledge.rename_relation mk ~source ~old_rel:old_name
        ~new_rel:new_name;
      match aliases_of ~source ~rel:old_name with
      | [] -> { query; schemas; actions = [ No_effect ] }
      | _ ->
          {
            query = Query.rename_relation query ~source ~old_rel:old_name ~new_rel:new_name;
            schemas;
            actions =
              [ Propagated_rename (Fmt.str "%s -> %s at %s" old_name new_name source) ];
          })
  | Rename_attribute { source; rel; old_name; new_name } ->
      Meta_knowledge.rename_attribute mk ~source ~rel ~old_attr:old_name
        ~new_attr:new_name;
      let touched = aliases_of ~source ~rel in
      if touched = [] then { query; schemas; actions = [ No_effect ] }
      else
        let query, schemas, actions =
          List.fold_left
            (fun (q, ss, acts) (tr : Query.table_ref) ->
              let owner = owner_fn ss in
              let q' =
                if uses_attr q ss tr.alias old_name then
                  Query.rename_attribute q ~alias:tr.alias ~old_name ~new_name owner
                else q
              in
              let ss' =
                match List.assoc_opt tr.alias ss with
                | Some s -> set_schema ss tr.alias (Schema_change.schema sc s)
                | None -> ss
              in
              ( q',
                ss',
                Propagated_rename
                  (Fmt.str "%s.%s -> %s" tr.alias old_name new_name)
                :: acts ))
            (query, schemas, []) touched
        in
        { query; schemas; actions }
  | Add_attribute { source; rel; attr; _ } ->
      let touched = aliases_of ~source ~rel in
      if touched = [] then { query; schemas; actions = [ No_effect ] }
      else
        let schemas =
          List.fold_left
            (fun ss (tr : Query.table_ref) ->
              match List.assoc_opt tr.alias ss with
              | Some s -> set_schema ss tr.alias (Schema_change.schema sc s)
              | None -> ss)
            schemas touched
        in
        {
          query;
          schemas;
          actions =
            [ Schema_tracked (Fmt.str "added %s to %s" (Attr.name attr) rel) ];
        }
  | Drop_attribute { source; rel; attr } ->
      let touched = aliases_of ~source ~rel in
      if touched = [] then { query; schemas; actions = [ No_effect ] }
      else
        List.fold_left
          (fun acc (tr : Query.table_ref) ->
            let query, schemas, actions = (acc.query, acc.schemas, acc.actions) in
            let used = uses_attr query schemas tr.alias attr in
            let drop_from_schema ss =
              match List.assoc_opt tr.alias ss with
              | Some s -> set_schema ss tr.alias (Schema_change.schema sc s)
              | None -> ss
            in
            if not used then
              {
                query;
                schemas = drop_from_schema schemas;
                actions =
                  Schema_tracked (Fmt.str "dropped unused %s of %s" attr rel)
                  :: actions;
              }
            else begin
              match
                Meta_knowledge.attr_replacement mk ~source ~rel ~attr
              with
              | Some repl ->
                  let via =
                    match repl.Meta_knowledge.via_alias with
                    | Some a -> a
                    | None -> fresh_alias query repl.Meta_knowledge.new_rel
                  in
                  let repl_schema =
                    replacement_schema registry
                      ~source:repl.Meta_knowledge.new_source
                      ~rel:repl.Meta_knowledge.new_rel
                  in
                  (* Add the substitute relation (if not already joined). *)
                  let query =
                    if List.mem via (Query.aliases query) then query
                    else
                      {
                        query with
                        Query.from =
                          Query.from query
                          @ [
                              {
                                Query.source = repl.Meta_knowledge.new_source;
                                rel = repl.Meta_knowledge.new_rel;
                                alias = via;
                              };
                            ];
                      }
                  in
                  let schemas = set_schema schemas via repl_schema in
                  (* Link it in through the registered join conditions. *)
                  let owner = owner_fn (drop_from_schema schemas) in
                  let join_atoms =
                    List.map
                      (fun (local, remote) ->
                        let local_q = Attr.Qualified.of_string local in
                        let local_q =
                          match Attr.Qualified.rel local_q with
                          | Some _ -> local_q
                          | None ->
                              Attr.Qualified.make ~rel:(owner local_q)
                                (Attr.Qualified.attr local_q)
                        in
                        Predicate.atom (Predicate.Ref local_q) Predicate.Eq
                          (Predicate.Ref (Attr.Qualified.make ~rel:via remote)))
                      repl.Meta_knowledge.join_on
                  in
                  let new_atoms =
                    List.filter
                      (fun a -> not (List.mem a (Query.where query)))
                      join_atoms
                  in
                  let query =
                    { query with Query.where = Query.where query @ new_atoms }
                  in
                  (* Redirect every use of the dropped attribute.  Owner
                     resolution must run against the PRE-drop schemas —
                     the references being rewritten still use the old
                     name. *)
                  let query =
                    redirect_refs query schemas ~alias:tr.alias ~attr
                      ~to_alias:via ~to_attr:repl.Meta_knowledge.new_attr
                  in
                  {
                    query;
                    schemas = drop_from_schema schemas;
                    actions =
                      Replaced_attribute
                        {
                          alias = tr.alias;
                          attr;
                          via_alias = via;
                          new_rel = repl.Meta_knowledge.new_rel;
                        }
                      :: actions;
                  }
              | None ->
                  if Meta_knowledge.is_dispensable mk ~source ~rel ~attr then begin
                    (* Only select-list uses can be silently dropped; a
                       dropped join attribute leaves the view undefined. *)
                    let owner = owner_fn schemas in
                    let in_where =
                      List.exists
                        (fun (r : Attr.Qualified.t) ->
                          String.equal
                            (match Attr.Qualified.rel r with
                            | Some a -> a
                            | None -> owner r)
                            tr.alias
                          && String.equal (Attr.Qualified.attr r) attr)
                        (Predicate.refs (Query.where query))
                    in
                    if in_where then
                      fail
                        "attribute %s of %s is used in a join/filter and has \
                         no replacement"
                        attr rel;
                    let select' =
                      List.filter
                        (fun (it : Query.select_item) ->
                          not
                            (String.equal
                               (match Attr.Qualified.rel it.Query.expr with
                               | Some a -> a
                               | None -> owner it.Query.expr)
                               tr.alias
                            && String.equal
                                 (Attr.Qualified.attr it.Query.expr)
                                 attr))
                        (Query.select query)
                    in
                    if select' = [] then
                      fail "dropping %s would empty the select list" attr;
                    {
                      query = { query with Query.select = select' };
                      schemas = drop_from_schema schemas;
                      actions =
                        Dropped_dispensable { alias = tr.alias; attr } :: actions;
                    }
                  end
                  else
                    fail
                      "no replacement and not dispensable: %s.%s@%s (view %s)"
                      rel attr source (Query.name query)
            end)
          { query; schemas; actions = [] }
          touched
  | Drop_relation { source; name } -> (
      match aliases_of ~source ~rel:name with
      | [] -> { query; schemas; actions = [ No_effect ] }
      | _touched -> (
          match Meta_knowledge.rel_replacement mk ~source ~rel:name with
          | None -> fail "no replacement for dropped relation %s@%s" name source
          | Some repl ->
              replace_relations mk registry ~query ~schemas ~source ~dropped:name
                repl))

(** [sync_many mk registry ~query ~schemas scs] folds a sequence of changes
    (used for merged batch nodes, Section 5: the combined schema changes
    are applied to the view definition in one synchronization step). *)
let sync_many mk registry ~query ~schemas scs =
  List.fold_left
    (fun acc sc ->
      let r = sync_one mk registry ~query:acc.query ~schemas:acc.schemas sc in
      { r with actions = acc.actions @ r.actions })
    { query; schemas; actions = [] }
    scs
