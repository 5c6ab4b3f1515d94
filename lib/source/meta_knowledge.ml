(** Meta knowledge for view synchronization (the EVE model [9]).

    When a source drops a relation or an attribute that a view uses, view
    synchronization tries to rewrite the view using {e replacements}:
    alternative relations/attributes at (possibly other) sources that carry
    the same information, linked through join conditions.  This module is
    the registry of such information — extracted by the intelligent
    wrappers of Section 2, which report "not only raw data, but also
    metadata information, such as … relationships with other sources".

    The paper's running example registers [ReaderDigest.Comments] as a
    replacement for [Catalog.Review] (joining [Catalog.Title =
    ReaderDigest.Article], Query (4)), and [StoreItems] as a replacement
    for both [Store] and [Item]. *)


type attr_replacement = {
  new_source : string;
  new_rel : string;
  new_attr : string;
  join_on : (string * string) list;
      (** (attribute of the view's surviving relations, attribute of
          [new_rel]) equality pairs that link the replacement in *)
  via_alias : string option;
      (** if [Some a], reuse/bind the replacement relation under alias [a];
          default: a fresh alias derived from [new_rel] *)
}

type rel_replacement = {
  repl_source : string;
  repl_rel : string;
  covers : (string * (string * string) list) list;
      (** every relation (at the dropped relation's source) this replacement
          subsumes, with its attribute mapping (old name → name in the
          replacement).  A singleton list is the ordinary one-for-one
          substitution; Example 1.b registers
          [StoreItems covers Store{Store→Store} and
          Item{Book→Book; Author→Author; Price→Price}] — the [SID] join
          attribute is unmapped because the replacement {e internalizes}
          the Store ⋈ Item join, so synchronization drops that join
          condition (Query (3)). *)
}

type t = {
  mutable attr_repl : ((string * string * string) * attr_replacement) list;
      (** (source, rel, attr) → replacement *)
  mutable rel_repl : ((string * string) * rel_replacement) list;
      (** (source, rel) → replacement *)
  mutable dispensable : (string * string * string) list;
      (** attributes the view owner allows to silently disappear *)
}

let create () = { attr_repl = []; rel_repl = []; dispensable = [] }

(** [add_attr_replacement t ~source ~rel ~attr repl] registers where to find
    attribute [attr] of [rel@source] if it disappears. *)
let add_attr_replacement t ~source ~rel ~attr repl =
  t.attr_repl <- ((source, rel, attr), repl) :: t.attr_repl

(** [add_rel_replacement t ~source ~rel repl] registers a substitute
    relation for [rel@source]. *)
let add_rel_replacement t ~source ~rel repl =
  t.rel_repl <- ((source, rel), repl) :: t.rel_repl

(** [mark_dispensable t ~source ~rel ~attr] allows the view to simply lose
    this attribute (EVE's "dispensable" evolution preference). *)
let mark_dispensable t ~source ~rel ~attr =
  t.dispensable <- (source, rel, attr) :: t.dispensable

let attr_replacement t ~source ~rel ~attr =
  List.assoc_opt (source, rel, attr) t.attr_repl

(** [rel_replacement t ~source ~rel] finds a replacement registered for
    [rel] itself or one whose [covers] list subsumes [rel]. *)
let rel_replacement t ~source ~rel =
  match List.assoc_opt (source, rel) t.rel_repl with
  | Some r -> Some r
  | None ->
      List.find_map
        (fun ((s, _), (r : rel_replacement)) ->
          if String.equal s source && List.mem_assoc rel r.covers then Some r
          else None)
        t.rel_repl

let is_dispensable t ~source ~rel ~attr =
  List.mem (source, rel, attr) t.dispensable

type snapshot = {
  s_attr_repl : ((string * string * string) * attr_replacement) list;
  s_rel_repl : ((string * string) * rel_replacement) list;
  s_dispensable : (string * string * string) list;
}

(** [save t] / [restore t s] — the synchronizer re-keys entries as it
    propagates renames; an aborted maintenance process must roll that back
    together with the view definition, or retries will no longer find
    their replacements. *)
let save t =
  { s_attr_repl = t.attr_repl; s_rel_repl = t.rel_repl; s_dispensable = t.dispensable }

let restore t s =
  t.attr_repl <- s.s_attr_repl;
  t.rel_repl <- s.s_rel_repl;
  t.dispensable <- s.s_dispensable

(** [rename_relation t ~source ~old_rel ~new_rel] re-keys every entry that
    mentions [old_rel] at [source] — the wrappers keep the meta knowledge
    aligned with the sources' current names, so that later changes to a
    renamed relation still find their replacements. *)
let rename_relation t ~source ~old_rel ~new_rel =
  let rekey (s, r) = if String.equal s source && String.equal r old_rel then (s, new_rel) else (s, r) in
  t.attr_repl <-
    List.map (fun ((s, r, a), v) ->
        let s', r' = rekey (s, r) in
        ((s', r', a), v))
      t.attr_repl;
  t.rel_repl <- List.map (fun (k, v) -> (rekey k, v)) t.rel_repl;
  t.dispensable <-
    List.map (fun (s, r, a) ->
        let s', r' = rekey (s, r) in
        (s', r', a))
      t.dispensable

(** [rename_attribute t ~source ~rel ~old_attr ~new_attr] re-keys
    attribute-level entries after a column rename. *)
let rename_attribute t ~source ~rel ~old_attr ~new_attr =
  let rekey (s, r, a) =
    if String.equal s source && String.equal r rel && String.equal a old_attr
    then (s, r, new_attr)
    else (s, r, a)
  in
  t.attr_repl <- List.map (fun (k, v) -> (rekey k, v)) t.attr_repl;
  t.dispensable <- List.map rekey t.dispensable
