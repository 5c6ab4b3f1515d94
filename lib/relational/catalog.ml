(** A source-local catalog: relation name → schema, with schema-change
    application.

    One catalog instance lives inside every simulated data source; the view
    manager keeps {e stale copies} of them (that staleness is precisely what
    produces broken queries). *)

type t = { mutable rels : (string * Schema.t) list }

exception No_such_relation of string
exception Relation_exists of string

let create () = { rels = [] }

let copy c = { rels = c.rels }

let relations c = List.map fst c.rels

let mem c name = List.mem_assoc name c.rels

let schema_of c name =
  match List.assoc_opt name c.rels with
  | Some s -> s
  | None -> raise (No_such_relation name)

let schema_of_opt c name = List.assoc_opt name c.rels

let add_relation c name schema =
  if mem c name then raise (Relation_exists name);
  c.rels <- c.rels @ [ (name, schema) ]

let drop_relation c name =
  if not (mem c name) then raise (No_such_relation name);
  c.rels <- List.filter (fun (n, _) -> not (String.equal n name)) c.rels

let replace_schema c name schema =
  if not (mem c name) then raise (No_such_relation name);
  c.rels <-
    List.map
      (fun (n, s) -> if String.equal n name then (n, schema) else (n, s))
      c.rels

let rename_relation c ~old_name ~new_name =
  if not (mem c old_name) then raise (No_such_relation old_name);
  if mem c new_name && not (String.equal old_name new_name) then
    raise (Relation_exists new_name);
  c.rels <-
    List.map
      (fun (n, s) ->
        if String.equal n old_name then (new_name, s) else (n, s))
      c.rels

(** [apply c sc] mutates the catalog per one schema change.
    @raise No_such_relation / Relation_exists / Schema exceptions when the
    change does not apply (autonomous sources validate their own DDL). *)
let apply c (sc : Schema_change.t) =
  match sc with
  | Rename_relation { old_name; new_name; _ } ->
      rename_relation c ~old_name ~new_name
  | Drop_relation { name; _ } -> drop_relation c name
  | Add_relation { name; schema; _ } -> add_relation c name schema
  | Rename_attribute { rel; old_name; new_name; _ } ->
      replace_schema c rel (Schema.rename (schema_of c rel) ~old_name ~new_name)
  | Drop_attribute { rel; attr; _ } ->
      replace_schema c rel (Schema.drop (schema_of c rel) attr)
  | Add_attribute { rel; attr; _ } ->
      replace_schema c rel (Schema.add (schema_of c rel) attr)

(** [validates c sc] — would [apply] succeed?  Used by workload generators
    to only emit applicable DDL. *)
let validates c sc =
  match apply (copy c) sc with () -> true | exception _ -> false
