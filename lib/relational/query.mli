(** Select–project–join queries: the view-definition language.  A query
    reads relations hosted at named sources, joins them under a
    conjunctive predicate and projects a select list. *)

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
  name : string;
  select : select_item list;
  from : table_ref list;
  where : Predicate.t;
}

exception Malformed of string

val table : ?alias:string -> string -> string -> table_ref
(** [table source rel]. *)

val item : ?as_:string -> string -> select_item
(** [item "I.Author"] / [item ~as_:"Review" "R.Comments"]. *)

val make :
  name:string ->
  select:select_item list ->
  from:table_ref list ->
  where:Predicate.t ->
  t
(** @raise Malformed on an empty FROM or duplicate aliases. *)

val name : t -> string
val select : t -> select_item list
val from : t -> table_ref list
val where : t -> Predicate.t
val aliases : t -> string list

val all_refs : t -> Attr.Qualified.t list
(** Every attribute reference anywhere in the query. *)

val sources : t -> string list
(** Distinct source ids read, in FROM order — the [DS_1 … DS_n] of the
    paper's Definition 1. *)

val mentions_relation : t -> source:string -> rel:string -> bool
(** The metadata test used when drawing concurrent-dependency edges. *)

val refs_of_alias : t -> string -> (Attr.Qualified.t -> string) -> string list
(** Attribute names of the alias used by the query; the function resolves
    unqualified references to their owning alias. *)

val mentions_attribute :
  t ->
  source:string ->
  rel:string ->
  attr:string ->
  (Attr.Qualified.t -> string) ->
  bool

(** {1 Rewriting helpers (view synchronization)} *)

val map_refs : (Attr.Qualified.t -> Attr.Qualified.t) -> t -> t

val rename_relation : t -> source:string -> old_rel:string -> new_rel:string -> t
(** Repoints table refs; aliases (and hence references) are unchanged. *)

val rename_attribute :
  t ->
  alias:string ->
  old_name:string ->
  new_name:string ->
  (Attr.Qualified.t -> string) ->
  t
(** Rewrites references to [alias.old_name]; select-item output names
    ([as_name]) survive. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
