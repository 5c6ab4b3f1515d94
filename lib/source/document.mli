(** A miniature semi-structured (XML-like) document store: immutable
    element trees with tags and text, plus the traversals the
    {!Xml_wrapper} needs.  This is the native format of the paper's
    Retailer source (Figure 1), which a wrapper maps into relational
    tables. *)

type node = { tag : string; text : string option; children : node list }

val elem : string -> node list -> node
val leaf : string -> string -> node
val tag : node -> string
val children : node -> node list

val text_of : node -> string
(** Text directly carried by the node ([""] when none). *)

val child : node -> string -> node option
(** First child with the tag. *)

val select_with_context : string list -> node list -> (node list * node) list
(** Every node reached by following a tag path (first component matches
    the roots themselves); each result carries its ancestor chain
    (outermost first, excluding the node itself).  Document order. *)

val select : string list -> node list -> node list

val pp : Format.formatter -> node -> unit
