(** Meta knowledge for view synchronization (the EVE model): where to find
    {e replacements} when a source drops a relation or attribute the view
    uses — alternative relations/attributes linked through join
    conditions — plus the dispensable-attribute evolution preference.
    Extracted by the "intelligent wrappers" of the paper's Section 2. *)

type attr_replacement = {
  new_source : string;
  new_rel : string;
  new_attr : string;
  join_on : (string * string) list;
      (** (attribute of the view's surviving relations, attribute of
          [new_rel]) equality pairs linking the replacement in *)
  via_alias : string option;
      (** bind the replacement under this alias; default: fresh *)
}

type rel_replacement = {
  repl_source : string;
  repl_rel : string;
  covers : (string * (string * string) list) list;
      (** every relation this replacement subsumes, with its attribute
          mapping.  A multi-entry list collapses several view aliases into
          one (the paper's StoreItems replacing Store ⋈ Item); unmapped
          attributes are joins the replacement internalizes. *)
}

type t

val create : unit -> t

val add_attr_replacement :
  t -> source:string -> rel:string -> attr:string -> attr_replacement -> unit

val add_rel_replacement : t -> source:string -> rel:string -> rel_replacement -> unit

val mark_dispensable : t -> source:string -> rel:string -> attr:string -> unit
(** Allow the view to silently lose this attribute. *)

val attr_replacement :
  t -> source:string -> rel:string -> attr:string -> attr_replacement option

val rel_replacement : t -> source:string -> rel:string -> rel_replacement option
(** Finds a replacement registered for the relation itself or one whose
    [covers] list subsumes it. *)

val is_dispensable : t -> source:string -> rel:string -> attr:string -> bool

(** {1 Name maintenance and rollback} *)

val rename_relation : t -> source:string -> old_rel:string -> new_rel:string -> unit
(** Re-key every entry mentioning the relation — the wrappers keep meta
    knowledge aligned with the sources' current names. *)

val rename_attribute :
  t -> source:string -> rel:string -> old_attr:string -> new_attr:string -> unit

type snapshot

val save : t -> snapshot
val restore : t -> snapshot -> unit
(** The synchronizer re-keys entries as it propagates renames; an aborted
    maintenance process must roll that back together with the view
    definition. *)
