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
  Array.length ix.positions = Array.length ps
  && (let ok = ref true in
      Array.iteri (fun i p -> if p <> ps.(i) then ok := false) ix.positions;
      !ok)

let key_of ix tup = Tuple.project_idx tup ix.positions

(** [update ix tup k] adjusts the indexed multiplicity of [tup] by [k],
    dropping entries (and empty buckets) at zero — mirror of
    [Relation.add]. *)
let update ix tup k =
  if k <> 0 then begin
    let key = key_of ix tup in
    let bucket =
      match Tuple.Table.find ix.buckets key with
      | b -> b
      | exception Not_found -> []
    in
    let rec adjust = function
      | [] -> [ (tup, k) ]
      | (t, c) :: rest ->
          if Tuple.equal t tup then
            let c' = c + k in
            if c' = 0 then rest else (t, c') :: rest
          else (t, c) :: adjust rest
    in
    match adjust bucket with
    | [] -> Tuple.Table.remove ix.buckets key
    | b -> Tuple.Table.replace ix.buckets key b
  end

(** [iter_matches ix key f] streams every (tuple, multiplicity) whose key
    projection equals [key] — the probe side of an indexed join. *)
let iter_matches ix key f =
  match Tuple.Table.find ix.buckets key with
  | bucket -> List.iter (fun (t, c) -> f t c) bucket
  | exception Not_found -> ()

(** [lookup ix key] — snapshot of the matching bucket (unspecified order). *)
let lookup ix key =
  Option.value ~default:[] (Tuple.Table.find_opt ix.buckets key)

(** Number of distinct keys currently indexed. *)
let key_count ix = Tuple.Table.length ix.buckets

(** Number of distinct tuples across all buckets. *)
let support ix =
  Tuple.Table.fold (fun _ b acc -> acc + List.length b) ix.buckets 0

let pp ppf ix =
  Fmt.pf ppf "index on columns (%a): %d key(s), %d tuple(s)"
    Fmt.(array ~sep:(any ",") int)
    ix.positions (key_count ix) (support ix)
