(** Source data updates (DU): a signed delta against one relation at one
    source.

    A DU carries the delta as a signed multiset (insertions positive,
    deletions negative) plus the schema the delta was expressed against —
    needed by the batch preprocessing of Section 5, which must re-project
    deltas when schema changes intervene between data updates. *)

type t = {
  source : string;  (** data source committing the update *)
  rel : string;  (** relation name at commit time *)
  delta : Relation.t;  (** signed multiset of changed tuples *)
}

let make ~source ~rel delta = { source; rel; delta }

let source u = u.source
let rel u = u.rel
let delta u = u.delta
let schema u = Relation.schema u.delta

(** Single-tuple insert/delete constructors. *)
let insert ~source ~rel schema tup =
  let d = Relation.create schema in
  Relation.add d (Tuple.of_list tup) 1;
  { source; rel; delta = d }

let delete ~source ~rel schema tup =
  let d = Relation.create schema in
  Relation.add d (Tuple.of_list tup) (-1);
  { source; rel; delta = d }

(** Number of elementary tuple changes carried (absolute mass). *)
let size u = Relation.mass u.delta

let pp ppf u =
  Fmt.pf ppf "@[<v2>DU %s@%s:@,%a@]" u.rel u.source Relation.pp u.delta
