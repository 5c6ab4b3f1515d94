(** Select–project–join queries: the view-definition language.

    A query reads relations hosted at named sources (the [source] field of a
    {!table_ref} identifies the data source, as in the paper's
    [r(DS_1)…r(DS_n)] decomposition), joins them under a conjunctive
    predicate and projects a select list. *)

type table_ref = {
  source : string;  (** data-source identifier hosting the relation *)
  rel : string;  (** relation name at that source *)
  alias : string;  (** alias used in references; defaults to [rel] *)
}

type select_item = {
  expr : Attr.Qualified.t;  (** attribute reference *)
  as_name : string;  (** output column name *)
}

type t = {
  name : string;  (** view / query name *)
  select : select_item list;
  from : table_ref list;
  where : Predicate.t;
}

exception Malformed of string

let table ?alias source rel =
  { source; rel; alias = Option.value alias ~default:rel }

let item ?as_ expr_s =
  let expr = Attr.Qualified.of_string expr_s in
  { expr; as_name = Option.value as_ ~default:(Attr.Qualified.attr expr) }

let make ~name ~select ~from ~where =
  if from = [] then raise (Malformed "empty FROM clause");
  let aliases = List.map (fun tr -> tr.alias) from in
  let sorted = List.sort String.compare aliases in
  let rec dup = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some a -> raise (Malformed ("duplicate alias " ^ a))
  | None -> ());
  { name; select; from; where }

let name q = q.name
let select q = q.select
let from q = q.from
let where q = q.where

let aliases q = List.map (fun tr -> tr.alias) q.from

(** Every attribute reference appearing anywhere in the query. *)
let all_refs q =
  List.map (fun it -> it.expr) q.select @ Predicate.refs q.where

(** [sources q] is the distinct list of source ids read by the query, in
    FROM order — the [DS_1 … DS_n] of Definition 1. *)
let sources q =
  List.fold_left
    (fun acc tr -> if List.mem tr.source acc then acc else acc @ [ tr.source ])
    [] q.from

(** [mentions_relation q ~source ~rel] holds when the query reads [rel] at
    [source] — the metadata test used when drawing concurrent-dependency
    edges (Section 4.1.1). *)
let mentions_relation q ~source ~rel =
  List.exists
    (fun tr -> String.equal tr.source source && String.equal tr.rel rel)
    q.from

(** [refs_of_alias q alias resolve_owner] is the attribute names of [alias]
    used by the query.  [resolve_owner] maps an unqualified reference to its
    owning alias (supplied by the binder, which knows the schemas). *)
let refs_of_alias q alias owner =
  List.filter_map
    (fun (r : Attr.Qualified.t) ->
      let a =
        match Attr.Qualified.rel r with Some x -> x | None -> owner r
      in
      if String.equal a alias then Some (Attr.Qualified.attr r) else None)
    (all_refs q)

(** [mentions_attribute q ~source ~rel ~attr owner] holds when the query
    uses attribute [attr] of relation [rel] at [source]. *)
let mentions_attribute q ~source ~rel ~attr owner =
  List.exists
    (fun tr ->
      String.equal tr.source source
      && String.equal tr.rel rel
      && List.exists (String.equal attr) (refs_of_alias q tr.alias owner))
    q.from

(** Rewriting helpers used by view synchronization. *)

let map_tables f q = { q with from = List.map f q.from }

let map_refs f q =
  {
    q with
    select = List.map (fun it -> { it with expr = f it.expr }) q.select;
    where = Predicate.map_refs f q.where;
  }

(** [rename_relation q ~source ~old_rel ~new_rel] repoints table refs; the
    alias is kept, so references need no rewriting. *)
let rename_relation q ~source ~old_rel ~new_rel =
  map_tables
    (fun tr ->
      if String.equal tr.source source && String.equal tr.rel old_rel then
        { tr with rel = new_rel }
      else tr)
    q

(** [rename_attribute q ~alias ~old_name ~new_name] rewrites references to
    [alias.old_name].  Unqualified refs are rewritten when [owner] says they
    belong to [alias]. *)
let rename_attribute q ~alias ~old_name ~new_name owner =
  map_refs
    (fun r ->
      let owner_alias =
        match Attr.Qualified.rel r with Some x -> x | None -> owner r
      in
      if String.equal owner_alias alias
         && String.equal (Attr.Qualified.attr r) old_name
      then Attr.Qualified.make ?rel:(Attr.Qualified.rel r) new_name
      else r)
    q

let pp_table ppf tr =
  if String.equal tr.rel tr.alias then
    Fmt.pf ppf "%s@%s" tr.rel tr.source
  else Fmt.pf ppf "%s@%s AS %s" tr.rel tr.source tr.alias

let pp_item ppf it =
  if String.equal (Attr.Qualified.attr it.expr) it.as_name then
    Attr.Qualified.pp ppf it.expr
  else Fmt.pf ppf "%a AS %s" Attr.Qualified.pp it.expr it.as_name

let pp ppf q =
  Fmt.pf ppf "@[<v2>SELECT %a@,FROM %a@,WHERE %a@]"
    Fmt.(list ~sep:(any ", ") pp_item)
    q.select
    Fmt.(list ~sep:(any ", ") pp_table)
    q.from Predicate.pp q.where

let to_string q = Fmt.str "%a" pp q
