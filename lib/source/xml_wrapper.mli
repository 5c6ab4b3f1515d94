(** The XML-to-relational wrapper of the paper's Figures 1–2: mappings
    from element forests to relational tables, plus the translation of
    document-level operations into the source-update events the rest of
    the system consumes — including the mapping {e retuning} of Example
    1.b, which becomes the add/populate/drop schema-change sequence that
    breaks in-flight maintenance queries.

    {b Transport contract.}  Every event a wrapper emits is committed at
    the source first ({!Dyno_source.Data_source.commit_du} /
    [commit_sc]), which assigns it the source's next commit version —
    and that version doubles as the message's per-source monotone
    sequence number on the wire ([Update_msg.source_version]).
    Wrappers are assumed to send on a FIFO stream and to retransmit lost
    messages ({!Dyno_net.Channel}); the UMQ's sequencer relies on these
    numbers to drop duplicates and re-order late arrivals, restoring the
    exactly-once, commit-ordered delivery the maintenance algorithms
    assume. *)

open Dyno_relational

(** Where a column's value comes from, relative to a row node. *)
type column_src =
  | Text of string list
      (** text of the node reached by a relative path ([[]] = the row
          node's own text) *)
  | Ancestor_text of string * string list
      (** climb to the nearest ancestor with the tag, then follow the
          relative path *)
  | Ancestor_index of string
      (** 1-based document-order index of the nearest ancestor with the
          tag — the synthetic id of the Figure 1 mapping's [SID] *)
  | Row_index  (** 1-based index of the row node among selected rows *)

type rule = {
  rel : string;
  schema : Schema.t;
  row_path : string list;
  columns : (string * column_src) list;
}

type mapping = rule list

exception Extraction_error of string

val extract : mapping -> Document.node list -> (string * Relation.t) list

val install : mapping -> Data_source.t -> Document.node list -> unit
(** Create and load the mapped relations in the relational facade
    (initial wiring; not versioned). *)

val diff_events :
  source:string ->
  mapping ->
  old_roots:Document.node list ->
  new_roots:Document.node list ->
  time:float ->
  (float * Dyno_sim.Timeline.event) list
(** The autonomous commits a document change induces: one data update per
    mapped relation whose extracted extent changed. *)

val remap_events :
  source:string ->
  old_mapping:mapping ->
  new_mapping:mapping ->
  roots:Document.node list ->
  time:float ->
  (float * Dyno_sim.Timeline.event) list
(** The schema-change sequence of a mapping retuning: new relations added
    (and populated), relations no longer mapped dropped, shared relations
    data-diffed.  All events share [time]. *)

(** {1 The paper's two Retailer mappings} *)

val retailer_two_tables : mapping
(** Figure 1: [Store(SID, Store)] + [Item(SID, Book, Author, Price)]. *)

val retailer_single_table : mapping
(** Figure 2: the retuned single table [StoreItems]. *)

val store_doc :
  name:string -> books:(string * string * float) list -> Document.node
(** A Retailer store document with its books. *)
