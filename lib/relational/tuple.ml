(** Tuples: immutable positional arrays of {!Value.t}.

    A tuple is meaningful only relative to a {!Schema.t}; all name-based
    access goes through the schema.  Tuples are used as hash-table keys by
    {!Relation}, so [equal]/[hash]/[compare] are structural. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let of_array (a : Value.t array) : t = Array.copy a
let arity (t : t) = Array.length t
let get (t : t) i = t.(i)

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

(* Allocation-free, like {!Value.hash}: a tuple is hashed twice per
   [Relation.add] and once per index probe. *)
let hash (t : t) =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

let to_string t = Fmt.str "%a" pp t

(** [field schema t name] is name-based access via the schema. *)
let field schema (t : t) name = t.(Schema.index_of schema name)

(** [project schema t names] builds a new tuple containing [names] in the
    given order. *)
let project schema (t : t) names : t =
  Array.of_list (List.map (fun n -> field schema t n) names)

(** [project_idx t idxs] positional projection (precomputed index list),
    the hot path used by the evaluator. *)
let project_idx (t : t) idxs : t =
  Array.map (fun i -> t.(i)) idxs

(** [concat a b] juxtaposes two tuples (join product). *)
let concat (a : t) (b : t) : t = Array.append a b

(** [update_at t i v] functional single-field update. *)
let update_at (t : t) i v : t =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

(** [drop_at t i] removes position [i] (drop-attribute schema change). *)
let drop_at (t : t) i : t =
  Array.init (Array.length t - 1) (fun j -> if j < i then t.(j) else t.(j + 1))

(** [append t v] appends a value (add-attribute schema change with default). *)
let append (t : t) v : t = Array.append t [| v |]

(** First-class hashed-key module for use in [Hashtbl.Make]. *)
module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Key)
