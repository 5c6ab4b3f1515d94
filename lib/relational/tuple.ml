(** Tuples: immutable positional arrays of {!Value.t}.

    A tuple is meaningful only relative to a {!Schema.t}; all name-based
    access goes through the schema.  Tuples are used as hash-table keys by
    {!Relation}, so [equal]/[hash]/[compare] are structural. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let get (t : t) i = t.(i)

let rec equal_from (a : t) (b : t) n i =
  i = n
  || Value.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && equal_from a b n (i + 1)

let equal (a : t) (b : t) =
  a == b || (Array.length a = Array.length b && equal_from a b (Array.length a) 0)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

(* Allocation-free, like {!Value.hash}.  A {!Table} entry keeps its
   key's hash, so a tuple is hashed once on its way into a table. *)
let hash (t : t) =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

(** [field schema t name] is name-based access via the schema. *)
let field schema (t : t) name = t.(Schema.index_of schema name)

(** [project_idx t idxs] positional projection (precomputed index list),
    the hot path used by the evaluator. *)
let project_idx (t : t) idxs : t =
  let n = Array.length idxs in
  if n = 0 then [||]
  else begin
    let out = Array.make n t.(idxs.(0)) in
    for j = 1 to n - 1 do
      Array.unsafe_set out j t.(Array.unsafe_get idxs j)
    done;
    out
  end

(** [concat a b] juxtaposes two tuples (join product). *)
let concat (a : t) (b : t) : t = Array.append a b

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

(* A chained hash table that keeps each entry's hash, under the bucket
   rules of [Hashtbl.Make (Key)] (see the interface): every rule below
   mirrors one of [Stdlib.Hashtbl]'s, so both iterate in one order. *)
module Table = struct
  type key = t

  type 'a bucket =
    | Empty
    | Cons of {
        key : key;
        hash : int;
        mutable data : 'a;
        mutable next : 'a bucket;
      }

  type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

  let rec power_2_above x n =
    if x >= n then x
    else if x * 2 > Sys.max_array_length then x
    else power_2_above (x * 2) n

  let create n = { size = 0; buckets = Array.make (power_2_above 16 n) Empty }
  let length t = t.size
  let buckets t = Array.length t.buckets
  let index t h = h land (Array.length t.buckets - 1)

  let[@tail_mod_cons] rec copy_chain = function
    | Empty -> Empty
    | Cons { key; hash; data; next } ->
        Cons { key; hash; data; next = copy_chain next }

  let copy t = { size = t.size; buckets = Array.map copy_chain t.buckets }

  (* Doubling from [half] buckets: the cells of old bucket [i] go, in
     order, to bucket [i] or [i + half] by their hash's bit [half];
     [lo] and [hi] are the last cell placed in each. *)
  let rec split fresh i half lo hi = function
    | Empty ->
        (match lo with Cons c -> c.next <- Empty | Empty -> ());
        (match hi with Cons c -> c.next <- Empty | Empty -> ())
    | Cons c as cell ->
        let next = c.next in
        if c.hash land half = 0 then begin
          (match lo with Cons l -> l.next <- cell | Empty -> fresh.(i) <- cell);
          split fresh i half cell hi next
        end
        else begin
          (match hi with
          | Cons h -> h.next <- cell
          | Empty -> fresh.(i + half) <- cell);
          split fresh i half lo cell next
        end

  let resize t =
    let old = t.buckets in
    let half = Array.length old in
    if 2 * half < Sys.max_array_length then begin
      let fresh = Array.make (2 * half) Empty in
      for i = 0 to half - 1 do
        split fresh i half Empty Empty old.(i)
      done;
      t.buckets <- fresh
    end

  let add t h key data =
    let i = index t h in
    t.buckets.(i) <- Cons { key; hash = h; data; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > Array.length t.buckets lsl 1 then resize t

  let rec find_in h key default = function
    | Empty -> default
    | Cons c ->
        if c.hash = h && equal c.key key then c.data
        else find_in h key default c.next

  let find_or t h key default =
    find_in h key default (Array.unsafe_get t.buckets (index t h))

  let rec replace_in h key data = function
    | Empty -> true
    | Cons c ->
        if c.hash = h && equal c.key key then begin
          c.data <- data;
          false
        end
        else replace_in h key data c.next

  let replace t h key data =
    let i = index t h in
    let chain = t.buckets.(i) in
    if replace_in h key data chain then begin
      t.buckets.(i) <- Cons { key; hash = h; data; next = chain };
      t.size <- t.size + 1;
      if t.size > Array.length t.buckets lsl 1 then resize t
    end

  let unlink t i prev next =
    t.size <- t.size - 1;
    match prev with Empty -> t.buckets.(i) <- next | Cons p -> p.next <- next

  let rec remove_in t i h key prev = function
    | Empty -> ()
    | Cons c as cell ->
        if c.hash = h && equal c.key key then unlink t i prev c.next
        else remove_in t i h key cell c.next

  let remove t h key =
    let i = index t h in
    remove_in t i h key Empty t.buckets.(i)

  let rec count_in (t : int t) i h key k prev = function
    | Empty -> add t h key k
    | Cons c as cell ->
        if c.hash = h && equal c.key key then begin
          let n = c.data + k in
          if n = 0 then unlink t i prev c.next else c.data <- n
        end
        else count_in t i h key k cell c.next

  let add_count t h key k =
    let i = index t h in
    count_in t i h key k Empty t.buckets.(i)

  let rec iter_chain f = function
    | Empty -> ()
    | Cons { key; data; next; _ } ->
        f key data;
        iter_chain f next

  let iter f t =
    let b = t.buckets in
    for i = 0 to Array.length b - 1 do
      iter_chain f (Array.unsafe_get b i)
    done

  let rec iter_chain_h f env = function
    | Empty -> ()
    | Cons { key; hash; data; next } ->
        f env key hash data;
        iter_chain_h f env next

  let iter_h f env t =
    let b = t.buckets in
    for i = 0 to Array.length b - 1 do
      iter_chain_h f env (Array.unsafe_get b i)
    done

  let rec fold_chain f acc = function
    | Empty -> acc
    | Cons { key; data; next; _ } -> fold_chain f (f key data acc) next

  let fold f t init =
    let b = t.buckets in
    let acc = ref init in
    for i = 0 to Array.length b - 1 do
      acc := fold_chain f !acc (Array.unsafe_get b i)
    done;
    !acc
end
