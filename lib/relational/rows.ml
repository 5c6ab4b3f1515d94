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
    end. *)

type t =
  | Hashed of Relation.t
  | Flat of {
      schema : Schema.t;
      tuples : Tuple.t array;
      counts : int array;
      len : int;
    }

let of_relation r = Hashed r

let flat schema tuples counts len = Flat { schema; tuples; counts; len }

let schema = function Hashed r -> Relation.schema r | Flat f -> f.schema

let support = function Hashed r -> Relation.support r | Flat f -> f.len

let is_empty rows = support rows = 0

let iter fn = function
  | Hashed r -> Relation.iter fn r
  | Flat f ->
      for i = 0 to f.len - 1 do
        fn (Array.unsafe_get f.tuples i) (Array.unsafe_get f.counts i)
      done

let mass = function
  | Hashed r -> Relation.mass r
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

let subtract a b =
  let r = relation a in
  if not (Schema.equal (Relation.schema r) (schema b)) then
    raise
      (Relation.Schema_mismatch
         (Fmt.str "subtract: %a vs %a" Schema.pp (Relation.schema r) Schema.pp
            (schema b)));
  iter (fun t c -> Relation.add_unchecked r t (-c)) b;
  Hashed r
