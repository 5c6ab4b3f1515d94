(** Source schema changes (SC), and what one change does to a relation.

    {!t} is the wire-level change a source commits.  {!schema} and
    {!extent} move a relation across one change: sources apply them to
    their tables, Section 5 preprocessing carries a batch's merged data
    updates through them ("insert (3,4)", "drop first attribute",
    "insert (5)" → "insert (4),(5)"), and the synchronizer and the
    workload generator track schemas with {!schema}. *)

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

val source : t -> string

val rel : t -> string
(** The relation the change applies to, under its name {e before} the
    change. *)

val destructive : t -> bool
(** Does the change remove or rename existing metadata?  Add-only changes
    can never break an existing query. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val schema : t -> Schema.t -> Schema.t
(** [schema sc s] is a relation's schema [s] after [sc]: the attribute
    renamed, dropped or appended; a relation rename keeps it.
    @raise Schema.No_such_attribute / Schema.Duplicate_attribute when
    the attribute change does not apply to [s].
    @raise Invalid_argument for a relation drop or add, which carry no
    relation across. *)

val extent : t -> Relation.t -> Relation.t
(** [extent sc r] is [r] after [sc], under [schema sc (Relation.schema r)]:
    [r] itself across a relation rename, [r]'s table shared under the
    new names across an attribute rename, the projection with counts
    re-aggregated across a drop, and each tuple extended with the
    default across an add.  Each index of [r] keyed on kept columns is
    carried.  The result may share [r]'s storage: [r] is not read
    afterwards.
    @raise Schema.No_such_attribute / Schema.Duplicate_attribute /
    Invalid_argument as {!schema}. *)
