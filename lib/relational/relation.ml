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
   [n] tuples, so filling it never resizes (a resize relinks every
   entry).  Most relations are small partials: 16 buckets to start. *)
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

let count r tup = Tuple.Table.find_or r.data (Tuple.hash tup) tup 0

(* Registered indexes follow every change of a tuple's count; a loop,
   not [List.iter], so the change allocates no closure. *)
let rec update_all tup k = function
  | [] -> ()
  | ix :: rest ->
      Index.update ix tup k;
      update_all tup k rest

let update_indexes r tup k = update_all tup k !(r.indexes)

(* [add_hashed r tup h k] adds [k <> 0] to the count of [tup], whose
   hash is [h]: one probe of the table, then the registered indexes.
   Its arguments come in {!Tuple.Table.iter_h}'s order, so a delta's
   stored hashes feed it directly. *)
let add_hashed r tup h k =
  Tuple.Table.add_count r.data h tup k;
  update_indexes r tup k

(** [add_unchecked r tup k] — {!add} minus the schema typecheck, for
    output tuples that are type-correct by construction (projections and
    concatenations of tuples already in a relation).  The hot loops of
    every physical join and of the algebra operators below run through
    it; external writers go through the checked {!add}. *)
let add_unchecked r tup k =
  if k <> 0 then add_hashed r tup (Tuple.hash tup) k

(** [add_absent r tup k] — {!add_unchecked} for a tuple [r] does not
    hold: no walk of its bucket.  The evaluator's output, when it
    cannot repeat a tuple, is built this way. *)
let add_absent r tup k =
  if k <> 0 then begin
    Tuple.Table.add r.data (Tuple.hash tup) tup k;
    update_indexes r tup k
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

(* The registered index keyed on exactly [positions].
   @raise Not_found when there is none. *)
let rec index_on positions = function
  | [] -> raise Not_found
  | ix :: rest -> if Index.same_key ix positions then ix else index_on positions rest

(** [ensure_index_pos r positions] returns the registered index keyed on
    exactly [positions], building (one O(n) scan) and registering it first
    if absent.  Once registered it is maintained incrementally by {!add}. *)
let ensure_index_pos r (positions : int array) =
  match index_on positions !(r.indexes) with
  | ix -> ix
  | exception Not_found ->
      let ix = Index.create positions in
      iter (fun t c -> Index.update ix t c) r;
      r.indexes := ix :: !(r.indexes);
      ix

(** [find_index_pos r positions] — the registered index keyed on exactly
    [positions], if one has already been built: {!ensure_index_pos}
    without the build side effect, so a planner can ask "is there a
    maintained index?" without committing to one. *)
let find_index_pos r (positions : int array) =
  match index_on positions !(r.indexes) with
  | ix -> Some ix
  | exception Not_found -> None

(** [ensure_index r names] — {!ensure_index_pos} with the key given as
    attribute names resolved against the current schema. *)
let ensure_index r names =
  ensure_index_pos r
    (Array.of_list (List.map (Schema.index_of r.schema) names))

let index_count r = List.length !(r.indexes)

let buckets r = Tuple.Table.buckets r.data

(** [injective_on r cols] — some registered index keys only columns among
    [cols], and within each of its buckets the tuples differ on [cols]
    ({!Index.separates}): projecting onto [cols] merges no two tuples.
    [false] when no registered index shows it. *)
let injective_on r cols =
  List.exists (fun ix -> Index.separates ix cols) !(r.indexes)

(* The looked-up side of a comparison is probed by each tuple's stored
   hash: comparing relations hashes nothing. *)
let differs b t h c = if Tuple.Table.find_or b.data h t 0 <> c then raise Exit

(* Every tuple of [a] has the same count in [b]. *)
let same_counts a b =
  match Tuple.Table.iter_h differs b a.data with
  | () -> true
  | exception Exit -> false

(** Multiset equality: same schema (by attribute equality) and identical
    multiplicity for every tuple. *)
let equal a b =
  Schema.equal a.schema b.schema && support a = support b && same_counts a b

(** Equality up to attribute names (positional contents only) — used when a
    rewritten view renames columns but preserves extent. *)
let equal_contents a b =
  Schema.arity a.schema = Schema.arity b.schema
  && support a = support b
  && same_counts a b

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

(* An empty index on the image of [r] for each index of [r] whose key
   columns [at] all keeps, keyed where [at] moves them. *)
let carried r at =
  List.filter_map
    (fun ix ->
      let pos = Array.map at (Index.positions ix) in
      if Array.for_all Option.is_some pos then
        Some (Index.create (Array.map Option.get pos))
      else None)
    !(r.indexes)

(** [map_tuples ?keys schema' f r] applies a tuple transformation,
    re-aggregating multiplicities under the image (projection semantics
    on multisets).  [keys i] is where [f] moves column [i], [None] when
    it drops it: every index of [r] whose key columns [f] all keeps is
    registered on the image, filled as the image is. *)
let map_tuples ?keys schema' f r =
  let out = sized schema' (support r) in
  (match keys with None -> () | Some at -> out.indexes := carried r at);
  iter (fun t c -> add_unchecked out (f t) c) r;
  out

(* Where a projection onto columns [idxs] moves column [i], from [j]. *)
let rec landing idxs i j =
  if j = Array.length idxs then None
  else if idxs.(j) = i then Some j
  else landing idxs i (j + 1)

(** [project ?keep_indexes r names] multiset projection onto [names] (in
    order); [keep_indexes] carries every index of [r] keyed on kept
    columns. *)
let project ?(keep_indexes = false) r names =
  let idxs = Array.of_list (List.map (Schema.index_of r.schema) names) in
  let schema' = Schema.project r.schema names in
  map_tuples
    ?keys:(if keep_indexes then Some (fun i -> landing idxs i 0) else None)
    schema' (fun t -> Tuple.project_idx t idxs) r

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
  if scale = 1 then Tuple.Table.iter_h add_hashed acc d.data
  else if scale <> 0 then
    Tuple.Table.iter_h (fun acc t h c -> add_hashed acc t h (scale * c)) acc d.data

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
      let h = Tuple.hash key in
      Tuple.Table.replace index h key
        ((tb, cb) :: Tuple.Table.find_or index h key []))
    b;
  iter
    (fun ta ca ->
      let key = Tuple.project_idx ta la in
      List.iter
        (fun (tb, cb) -> add_unchecked out (Tuple.concat ta tb) (ca * cb))
        (Tuple.Table.find_or index (Tuple.hash key) key []))
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

let short_of b t h c =
  if c > 0 && Tuple.Table.find_or b.data h t 0 < c then raise Exit

(** [is_subset a b]: every positive tuple of [a] occurs in [b] with at least
    the same multiplicity. *)
let is_subset a b =
  match Tuple.Table.iter_h short_of b a.data with
  | () -> true
  | exception Exit -> false

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

let goes_negative base t h c =
  if Tuple.Table.find_or base.data h t 0 + c < 0 then
    invalid_arg
      (Fmt.str "apply_delta_in_place: negative multiplicity for %a" Tuple.pp t)

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
  Tuple.Table.iter_h goes_negative base delta.data;
  Tuple.Table.iter_h add_hashed base delta.data
