(** Relations as {e signed multisets} of tuples, carrying their schema.

    Multiplicities may be negative: a relation with mixed signs represents a
    {e delta} (insertions with positive counts, deletions with negative
    counts), the uniform representation used throughout incremental view
    maintenance (Griffin–Libkin counting semantics).  All algebra operators
    ([select], [project], [join], [sum], [diff]) are linear in that
    representation, which is exactly what Equation 6 of the paper needs. *)

type t = {
  schema : Schema.t;
  data : int Tuple.Table.t; (* tuple -> non-zero signed multiplicity *)
  indexes : Index.t list ref;
      (* registered secondary indexes, kept fresh by [add].  A [ref] so
         that O(1) re-schemings ([rename_attr]) sharing [data] also share
         the registry — an index built through either alias stays fresh
         through both. *)
}

exception Schema_mismatch of string

(* [sized schema n] — an empty relation whose table is built for about
   [n] tuples, so filling it never resizes (a resize re-hashes every
   tuple).  Most relations are small partials: 16 buckets to start. *)
let sized schema n =
  { schema; data = Tuple.Table.create (max 16 n); indexes = ref [] }

let create schema = sized schema 16

let schema r = r.schema

(** Number of distinct tuples (support size). *)
let support r = Tuple.Table.length r.data

(** Sum of multiplicities (can be negative for deltas). *)
let cardinality r = Tuple.Table.fold (fun _ c acc -> acc + c) r.data 0

(** Sum of absolute multiplicities. *)
let mass r = Tuple.Table.fold (fun _ c acc -> acc + abs c) r.data 0

let is_empty r = support r = 0

let count r tup =
  match Tuple.Table.find r.data tup with c -> c | exception Not_found -> 0

let mem r tup = count r tup <> 0

(** [add_unchecked r tup k] — {!add} minus the schema typecheck, for
    output tuples that are type-correct by construction (projections and
    concatenations of tuples already in a relation).  The hot loops of
    every physical join and of the algebra operators below run through
    it; external writers go through the checked {!add}. *)
let add_unchecked r tup k =
  if k <> 0 then begin
    (match Tuple.Table.find r.data tup with
    | c ->
        let c = c + k in
        if c = 0 then Tuple.Table.remove r.data tup
        else Tuple.Table.replace r.data tup c
    | exception Not_found -> Tuple.Table.add r.data tup k);
    match !(r.indexes) with
    | [] -> ()
    | ixs -> List.iter (fun ix -> Index.update ix tup k) ixs
  end

(** [add r tup k] adjusts the multiplicity of [tup] by [k], dropping the
    entry when it reaches zero.  Typechecks against the schema. *)
let add r tup k =
  if k <> 0 then begin
    if not (Schema.typecheck r.schema tup) then
      raise
        (Schema_mismatch
           (Fmt.str "tuple %a does not match schema %a" Tuple.pp tup Schema.pp
              r.schema));
    add_unchecked r tup k
  end

let insert r tup = add r tup 1
let delete r tup = add r tup (-1)

let of_list schema tuples =
  let r = create schema in
  List.iter (fun t -> insert r (Tuple.of_list t)) tuples;
  r

let of_counted schema pairs =
  let r = create schema in
  List.iter (fun (t, c) -> add r (Tuple.of_list t) c) pairs;
  r

let iter f r = Tuple.Table.iter f r.data
let fold f r acc = Tuple.Table.fold f r.data acc

let to_counted r =
  List.sort
    (fun (a, _) (b, _) -> Tuple.compare a b)
    (fold (fun t c acc -> (t, c) :: acc) r [])

let to_list r =
  List.concat_map
    (fun (t, c) -> if c > 0 then List.init c (fun _ -> t) else [])
    (to_counted r)

(* The copy shares the (immutable) tuples but no mutable state: its
   table and every registered index are copied, so both sides evolve
   independently and the copy's indexes stay maintained by its own
   [add]s — no rescan, no re-hash. *)
let copy r =
  {
    schema = r.schema;
    data = Tuple.Table.copy r.data;
    indexes = ref (List.map Index.copy !(r.indexes));
  }

let copy_as schema r =
  let n = Schema.arity schema in
  let rec positional i =
    i = n
    || Value.Vtype.equal
         (Attr.ty (Schema.attr_at schema i))
         (Attr.ty (Schema.attr_at r.schema i))
       && positional (i + 1)
  in
  if n <> Schema.arity r.schema || not (positional 0) then
    raise
      (Schema_mismatch
         (Fmt.str "copy_as: %a is not positionally %a" Schema.pp schema
            Schema.pp r.schema));
  { (copy r) with schema }

(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                  *)
(* ------------------------------------------------------------------ *)

(** [ensure_index_pos r positions] returns the registered index keyed on
    exactly [positions], building (one O(n) scan) and registering it first
    if absent.  Once registered it is maintained incrementally by {!add}. *)
let ensure_index_pos r (positions : int array) =
  match List.find_opt (fun ix -> Index.same_key ix positions) !(r.indexes) with
  | Some ix -> ix
  | None ->
      let ix = Index.create positions in
      iter (fun t c -> Index.update ix t c) r;
      r.indexes := ix :: !(r.indexes);
      ix

(** [find_index_pos r positions] — the registered index keyed on exactly
    [positions], if one has already been built: {!ensure_index_pos}
    without the build side effect, so a planner can ask "is there a
    maintained index?" without committing to one. *)
let find_index_pos r (positions : int array) =
  List.find_opt (fun ix -> Index.same_key ix positions) !(r.indexes)

(** [ensure_index r names] — {!ensure_index_pos} with the key given as
    attribute names resolved against the current schema. *)
let ensure_index r names =
  ensure_index_pos r
    (Array.of_list (List.map (Schema.index_of r.schema) names))

let index_count r = List.length !(r.indexes)

(** Multiset equality: same schema (by attribute equality) and identical
    multiplicity for every tuple. *)
let equal a b =
  Schema.equal a.schema b.schema
  && support a = support b
  && (try
        iter (fun t c -> if count b t <> c then raise Exit) a;
        true
      with Exit -> false)

(** Equality up to attribute names (positional contents only) — used when a
    rewritten view renames columns but preserves extent. *)
let equal_contents a b =
  Schema.arity a.schema = Schema.arity b.schema
  && support a = support b
  && (try
        iter (fun t c -> if count b t <> c then raise Exit) a;
        true
      with Exit -> false)

let pp ppf r =
  let rows = to_counted r in
  Fmt.pf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    Fmt.(
      list ~sep:cut (fun ppf (t, c) ->
          if c = 1 then Tuple.pp ppf t else Fmt.pf ppf "%a x%d" Tuple.pp t c))
    rows

(* ------------------------------------------------------------------ *)
(* Algebra                                                            *)
(* ------------------------------------------------------------------ *)

(** [select p r] keeps tuples satisfying [p] (multiplicities preserved). *)
let select p r =
  let out = create r.schema in
  iter (fun t c -> if p t then add_unchecked out t c) r;
  out

(** [map_tuples schema' f r] applies a tuple transformation, re-aggregating
    multiplicities under the image (projection semantics on multisets). *)
let map_tuples schema' f r =
  let out = sized schema' (support r) in
  iter (fun t c -> add_unchecked out (f t) c) r;
  out

(** [project r names] multiset projection onto [names] (in order). *)
let project r names =
  let idxs = Array.of_list (List.map (Schema.index_of r.schema) names) in
  let schema' = Schema.project r.schema names in
  map_tuples schema' (fun t -> Tuple.project_idx t idxs) r

(** [rename_attr r ~old_name ~new_name] renames a column (data unchanged). *)
let rename_attr r ~old_name ~new_name =
  let schema' = Schema.rename r.schema ~old_name ~new_name in
  { r with schema = schema' }

(** [sum_in_place ?scale acc d] turns [acc] into [acc ⊎ scale·d] in place:
    O(|d|), and indexes registered on [acc] are maintained incrementally.
    Counts may go negative — [acc] is a signed accumulator. *)
let sum_in_place ?(scale = 1) acc d =
  if not (Schema.equal acc.schema d.schema) then
    raise
      (Schema_mismatch
         (Fmt.str "sum: %a vs %a" Schema.pp acc.schema Schema.pp d.schema));
  iter (fun t c -> add_unchecked acc t (scale * c)) d

(** [sum a b] multiset union with signed multiplicities (a ⊎ b). *)
let sum a b =
  let out = copy a in
  sum_in_place out b;
  out

(** [negate r] flips every multiplicity (turns insertions into deletions). *)
let negate r =
  let out = create r.schema in
  iter (fun t c -> add_unchecked out t (-c)) r;
  out

(** [diff a b] is [sum a (negate b)], subtracted in place from a copy
    of [a] (which keeps [a]'s indexes). *)
let diff a b =
  let out = copy a in
  sum_in_place ~scale:(-1) out b;
  out

(** [positive r] / [negative r] split a delta into its insert/delete parts;
    [negative] returns the deletions with positive counts. *)
let positive r =
  let out = create r.schema in
  iter (fun t c -> if c > 0 then add_unchecked out t c) r;
  out

let negative r =
  let out = create r.schema in
  iter (fun t c -> if c < 0 then add_unchecked out t (-c)) r;
  out

(** [product a b] Cartesian product; output schema is [Schema.concat].
    Multiplicities multiply (counting semantics). *)
let product a b =
  let schema' = Schema.concat a.schema b.schema in
  let out = create schema' in
  iter
    (fun ta ca ->
      iter (fun tb cb -> add_unchecked out (Tuple.concat ta tb) (ca * cb)) b)
    a;
  out

(** [equijoin a b pairs] hash equi-join on [(left_attr, right_attr)] pairs.
    Output schema is [Schema.concat a b] (right-side clashes suffixed).
    The smaller side is hashed.  Works on signed multisets: output
    multiplicity is the product of input multiplicities. *)
let equijoin a b pairs =
  let la = List.map (fun (x, _) -> Schema.index_of a.schema x) pairs in
  let lb = List.map (fun (_, y) -> Schema.index_of b.schema y) pairs in
  let la = Array.of_list la and lb = Array.of_list lb in
  let schema' = Schema.concat a.schema b.schema in
  let out = create schema' in
  (* Hash the right side on its key; stream the left. *)
  let index = Tuple.Table.create (max 16 (support b)) in
  iter
    (fun tb cb ->
      let key = Tuple.project_idx tb lb in
      let prev = Option.value ~default:[] (Tuple.Table.find_opt index key) in
      Tuple.Table.replace index key ((tb, cb) :: prev))
    b;
  iter
    (fun ta ca ->
      let key = Tuple.project_idx ta la in
      match Tuple.Table.find_opt index key with
      | None -> ()
      | Some matches ->
          List.iter
            (fun (tb, cb) -> add_unchecked out (Tuple.concat ta tb) (ca * cb))
            matches)
    a;
  out

(** [distinct r] collapses positive multiplicities to 1 and drops negative
    ones (SQL [SELECT DISTINCT] over the positive support). *)
let distinct r =
  let out = create r.schema in
  iter (fun t c -> if c > 0 then add_unchecked out t 1) r;
  out

(** [scale k r] multiplies every multiplicity by [k]. *)
let scale k r =
  let out = create r.schema in
  if k <> 0 then iter (fun t c -> add_unchecked out t (k * c)) r;
  out

(** [is_subset a b]: every positive tuple of [a] occurs in [b] with at least
    the same multiplicity. *)
let is_subset a b =
  try
    iter (fun t c -> if c > 0 && count b t < c then raise Exit) a;
    true
  with Exit -> false

(** [min_zero r] clips negative multiplicities to zero — applying a delta to
    a materialized extent must never leave phantom negative tuples; a
    negative residue indicates a maintenance bug and is reported by
    {!apply_delta}. *)
let has_negative r =
  try
    iter (fun _ c -> if c < 0 then raise Exit) r;
    false
  with Exit -> true

(** [apply_delta base delta] = [sum base delta], checking that the result is
    a proper (non-negative) multiset.
    @raise Schema_mismatch on schema disagreement.
    @raise Invalid_argument on negative residue. *)
let apply_delta base delta =
  let r = sum base delta in
  if has_negative r then
    invalid_arg
      (Fmt.str "apply_delta: negative multiplicity in result (delta %a)"
         Schema.pp delta.schema);
  r

(** [apply_delta_in_place base delta] — same contract as {!apply_delta},
    but mutates [base]: O(|delta|) instead of O(|base|), and registered
    indexes on [base] stay alive and are maintained incrementally.  The
    non-negativity precheck runs before any mutation, so a rejected delta
    leaves [base] untouched. *)
let apply_delta_in_place base delta =
  if not (Schema.equal base.schema delta.schema) then
    raise
      (Schema_mismatch
         (Fmt.str "apply_delta_in_place: %a vs %a" Schema.pp base.schema
            Schema.pp delta.schema));
  iter
    (fun t c ->
      if count base t + c < 0 then
        invalid_arg
          (Fmt.str "apply_delta_in_place: negative multiplicity for %a"
             Tuple.pp t))
    delta;
  iter (fun t c -> add_unchecked base t c) delta
