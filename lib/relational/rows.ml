(** A query answer's rows: a consolidated signed multiset, either hashed
    or flat.

    [Hashed r] is a {!Relation.t} — a base extent with the indexes
    registered on it, or an answer that had to be consolidated by
    hashing.  [Flat] is the same content laid out in two arrays in the
    order the evaluator produced it, never hashed.  Either way no tuple
    repeats and no count is zero, so every count read here is the
    consolidated relation's count.  The evaluator builds a [Flat] answer
    only when its output cannot repeat a tuple; a SWEEP carries its
    partial result between probes this way and hashes it once, at the
    end.  [Projected] is a relation seen through a projection that
    merges no two of its tuples — a source extent answering a fetch that
    drops columns, read in place. *)

type t =
  | Hashed of Relation.t
  | Flat of {
      schema : Schema.t;
      tuples : Tuple.t array;
      counts : int array;
      len : int;
    }
  | Projected of { rel : Relation.t; cols : int array; schema : Schema.t }

let of_relation r = Hashed r

let flat schema tuples counts len = Flat { schema; tuples; counts; len }

let projected rel cols schema = Projected { rel; cols; schema }

let schema = function
  | Hashed r -> Relation.schema r
  | Flat f -> f.schema
  | Projected p -> p.schema

let support = function
  | Hashed r -> Relation.support r
  | Flat f -> f.len
  | Projected p -> Relation.support p.rel

let is_empty rows = support rows = 0

let iter fn = function
  | Hashed r -> Relation.iter fn r
  | Flat f ->
      for i = 0 to f.len - 1 do
        fn (Array.unsafe_get f.tuples i) (Array.unsafe_get f.counts i)
      done
  | Projected p -> Relation.iter (fun t c -> fn (Tuple.project_idx t p.cols) c) p.rel

let mass = function
  | Hashed r -> Relation.mass r
  | Projected p -> Relation.mass p.rel
  | Flat f ->
      let m = ref 0 in
      for i = 0 to f.len - 1 do
        m := !m + abs (Array.unsafe_get f.counts i)
      done;
      !m

(* Flat rows repeat no tuple: each is hashed once. *)
let hash schema tuples counts len =
  let r = Relation.sized schema len in
  for i = 0 to len - 1 do
    Relation.add_absent r (Array.unsafe_get tuples i) (Array.unsafe_get counts i)
  done;
  r

let relation = function
  | Hashed r -> r
  | Flat f -> hash f.schema f.tuples f.counts f.len
  | Projected p ->
      let r = Relation.sized p.schema (Relation.support p.rel) in
      Relation.iter
        (fun t c -> Relation.add_absent r (Tuple.project_idx t p.cols) c)
        p.rel;
      r

let subtract a b =
  let r = relation a in
  if not (Schema.equal (Relation.schema r) (schema b)) then
    raise
      (Relation.Schema_mismatch
         (Fmt.str "subtract: %a vs %a" Schema.pp (Relation.schema r) Schema.pp
            (schema b)));
  iter (fun t c -> Relation.add_unchecked r t (-c)) b;
  Hashed r
