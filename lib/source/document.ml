(** A miniature semi-structured (XML-like) document store.

    The paper's Figure 1 integrates a {e Retailer} whose native format is
    XML; a wrapper maps it into relational tables.  This module is that
    native side: immutable element trees with tags and text, plus the
    handful of traversals the {!Xml_wrapper} needs (path selection,
    ancestor context). *)

type node = {
  tag : string;
  text : string option;  (** leaf text content *)
  children : node list;
}

(** Element constructors. *)
let elem tag children = { tag; text = None; children }

let leaf tag text = { tag; text = Some text; children = [] }

let tag n = n.tag
let children n = n.children

(** [text_of n] is the text directly carried by [n] ([""] when none). *)
let text_of n = Option.value ~default:"" n.text

(** [child n tag] — first child with the tag. *)
let child n t = List.find_opt (fun c -> String.equal c.tag t) n.children

(** [select_with_context path roots] returns every node reached by
    following [path] (a list of tags): the first component matches the
    roots themselves, subsequent components match children.  Each result
    carries its ancestor chain (outermost first, excluding the node
    itself), so column extraction can look upwards ("the Store name this
    Book belongs to").  Document order. *)
let select_with_context (path : string list) (roots : node list) :
    (node list * node) list =
  let rec descend ctx node = function
    | [] -> [ (List.rev ctx, node) ]
    | t :: rest ->
        List.concat_map
          (fun c ->
            if String.equal c.tag t then descend (node :: ctx) c rest else [])
          node.children
  in
  match path with
  | [] -> []
  | t :: rest ->
      List.concat_map
        (fun r -> if String.equal r.tag t then descend [] r rest else [])
        roots

(** [select path roots] — {!select_with_context} without the contexts. *)
let select path roots = List.map snd (select_with_context path roots)

let rec pp ppf n =
  match (n.text, n.children) with
  | Some t, [] -> Fmt.pf ppf "<%s>%s</%s>" n.tag t n.tag
  | _, cs ->
      Fmt.pf ppf "@[<v2><%s>@,%a@]@,</%s>" n.tag
        Fmt.(list ~sep:cut pp)
        cs n.tag
