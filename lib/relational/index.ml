(** Secondary hash indexes over signed multisets.

    An index maps a {e key} — the projection of a tuple onto a fixed set of
    column positions — to the bucket of tuples currently sharing that key,
    each with its signed multiplicity.  Buckets are compact association
    lists: real workloads have small buckets (a handful of tuples per key),
    and probing — the hot path of every indexed join — then streams a few
    cons cells instead of walking a nested hash table's slot array, which
    is what used to cost the indexed plan its lead over the ephemeral hash
    join.  Maintenance is O(bucket) per changed tuple, a lookup O(bucket).

    Indexes are position-based, not name-based: a rename of an attribute
    leaves every index valid, and {!Relation} can register indexes against
    its own storage and keep them fresh from [Relation.add] — the
    incremental maintenance that makes repeated maintenance probes against
    a large, slowly-changing extent cheap (build once, probe forever). *)

type t = {
  positions : int array;  (** key columns, in key order *)
  buckets : (Tuple.t * int) list Tuple.Table.t;
      (** key -> assoc of (tuple, non-zero multiplicity) *)
}

let create positions = { positions = Array.copy positions; buckets = Tuple.Table.create 64 }

(** [copy ix] — an index with the same entries that evolves on its own:
    the bucket table is copied, the buckets themselves are shared.  That
    is safe because a bucket is an immutable list that {!update} replaces
    and never mutates. *)
let copy ix = { ix with buckets = Tuple.Table.copy ix.buckets }

let positions ix = ix.positions

(** [same_key ix positions] — does [ix] index exactly these columns? *)
let same_key ix ps =
  let n = Array.length ps in
  let rec from i = i = n || (ix.positions.(i) = ps.(i) && from (i + 1)) in
  Array.length ix.positions = n && from 0

let key_of ix tup = Tuple.project_idx tup ix.positions

(* [bucket] with [k] added to [tup]'s count, the entry dropped at zero. *)
let rec adjust tup k = function
  | [] -> [ (tup, k) ]
  | (t, c) :: rest ->
      if Tuple.equal t tup then
        let c' = c + k in
        if c' = 0 then rest else (t, c') :: rest
      else (t, c) :: adjust tup k rest

(** [update ix tup k] adjusts the indexed multiplicity of [tup] by [k],
    dropping entries (and empty buckets) at zero — mirror of
    [Relation.add].  The key is hashed once. *)
let update ix tup k =
  if k <> 0 then begin
    let key = key_of ix tup in
    let h = Tuple.hash key in
    match adjust tup k (Tuple.Table.find_or ix.buckets h key []) with
    | [] -> Tuple.Table.remove ix.buckets h key
    | b -> Tuple.Table.replace ix.buckets h key b
  end

(** [lookup ix key] — the matching bucket (unspecified order), [[]] on a
    miss: the stored list itself, which {!update} replaces and never
    mutates, so nothing is allocated — the probe side of an indexed
    join. *)
let lookup ix key = Tuple.Table.find_or ix.buckets (Tuple.hash key) key []

(** Number of distinct keys currently indexed. *)
let key_count ix = Tuple.Table.length ix.buckets

(** [separates ix cols] — do the tuples of every bucket differ on the
    columns [cols]?  When [cols] include the key, two tuples equal on
    [cols] share a bucket, so this says that projecting onto [cols]
    merges no two indexed tuples.  One pass over the buckets, comparing
    only within the few that hold several tuples. *)
let separates ix cols =
  let same a b =
    Array.for_all (fun p -> Value.equal (Tuple.get a p) (Tuple.get b p)) cols
  in
  let rec clash = function
    | [] -> false
    | (t, _) :: rest -> List.exists (fun (u, _) -> same t u) rest || clash rest
  in
  Array.for_all (fun p -> Array.mem p cols) ix.positions
  &&
  try
    Tuple.Table.iter
      (fun _ bucket ->
        match bucket with [] | [ _ ] -> () | b -> if clash b then raise Exit)
      ix.buckets;
    true
  with Exit -> false

(** Number of distinct tuples across all buckets. *)
let support ix =
  Tuple.Table.fold (fun _ b acc -> acc + List.length b) ix.buckets 0
