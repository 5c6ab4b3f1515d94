(** Source schema changes (SC), and what one change does to a relation.

    {!t} is the wire-level change.  {!schema} and {!extent} are the one
    definition of how a change moves a relation: sources, the paper's
    Section 5 batch preprocessing, the synchronizer's believed schemas and
    the workload generator's mirror all go through them. *)

type t =
  | Rename_relation of { source : string; old_name : string; new_name : string }
  | Drop_relation of { source : string; name : string }
  | Add_relation of { source : string; name : string; schema : Schema.t }
  | Rename_attribute of {
      source : string;
      rel : string;
      old_name : string;
      new_name : string;
    }
  | Drop_attribute of { source : string; rel : string; attr : string }
  | Add_attribute of {
      source : string;
      rel : string;
      attr : Attr.t;
      default : Value.t;
    }

let source = function
  | Rename_relation { source; _ }
  | Drop_relation { source; _ }
  | Add_relation { source; _ }
  | Rename_attribute { source; _ }
  | Drop_attribute { source; _ }
  | Add_attribute { source; _ } ->
      source

(** The relation the change applies to (its name {e before} the change). *)
let rel = function
  | Rename_relation { old_name; _ } -> old_name
  | Drop_relation { name; _ } -> name
  | Add_relation { name; _ } -> name
  | Rename_attribute { rel; _ } | Drop_attribute { rel; _ }
  | Add_attribute { rel; _ } ->
      rel

(** Does this change remove or rename metadata (as opposed to only adding
    new metadata)?  Add-only changes can never break an existing query. *)
let destructive = function
  | Add_relation _ | Add_attribute _ -> false
  | Rename_relation _ | Drop_relation _ | Rename_attribute _
  | Drop_attribute _ ->
      true

let pp ppf = function
  | Rename_relation { source; old_name; new_name } ->
      Fmt.pf ppf "ALTER SOURCE %s RENAME TABLE %s TO %s" source old_name
        new_name
  | Drop_relation { source; name } ->
      Fmt.pf ppf "ALTER SOURCE %s DROP TABLE %s" source name
  | Add_relation { source; name; schema } ->
      Fmt.pf ppf "ALTER SOURCE %s ADD TABLE %s %a" source name Schema.pp schema
  | Rename_attribute { source; rel; old_name; new_name } ->
      Fmt.pf ppf "ALTER TABLE %s@%s RENAME COLUMN %s TO %s" rel source old_name
        new_name
  | Drop_attribute { source; rel; attr } ->
      Fmt.pf ppf "ALTER TABLE %s@%s DROP COLUMN %s" rel source attr
  | Add_attribute { source; rel; attr; default } ->
      Fmt.pf ppf "ALTER TABLE %s@%s ADD COLUMN %a DEFAULT %a" rel source
        Attr.pp attr Value.pp default

let to_string sc = Fmt.str "%a" pp sc

(* A relation drop or add has no relation before and after it. *)
let carries_none sc = invalid_arg (Fmt.str "%a carries no relation across" pp sc)

let schema sc s =
  match sc with
  | Rename_relation _ -> s
  | Drop_relation _ | Add_relation _ -> carries_none sc
  | Rename_attribute { old_name; new_name; _ } ->
      Schema.rename s ~old_name ~new_name
  | Drop_attribute { attr; _ } -> Schema.drop s attr
  | Add_attribute { attr; _ } -> Schema.add s attr

(* An attribute rename shares [r]'s table and indexes (their keys are
   positions); a drop or an add carries each index on kept columns. *)
let extent sc r =
  match sc with
  | Rename_relation _ -> r
  | Rename_attribute { old_name; new_name; _ } ->
      Relation.rename_attr r ~old_name ~new_name
  | Drop_attribute _ ->
      Relation.project ~keep_indexes:true r
        (Schema.names (schema sc (Relation.schema r)))
  | Add_attribute { default; _ } ->
      Relation.map_tuples ~keys:Option.some
        (schema sc (Relation.schema r))
        (fun t -> Tuple.append t default)
        r
  | Drop_relation _ | Add_relation _ -> carries_none sc
