(** SPJ query evaluation over signed-multiset relations.

    The evaluator binds each FROM entry to a relation, performs a
    left-deep join pipeline with selection push-down, applies residual
    predicates, and projects the select list.  It works in two halves:
    {!prepare} does everything that depends only on the query and its
    input schemas, once — bindings, positions, the pushed-down filters,
    each step's join keys and the output projection fused into the last
    step; {!execute} runs that plan over data, keeping only the
    data-dependent choices, and its [?planner] selects the physical plan:
    [`Indexed] (default) probes persistent hash indexes on base relations
    for equi-joins and constant-equality selections, falling back to
    ephemeral hash joins; [`Nested_loop] forces the quadratic reference
    plan.  Rows flow between join steps flat, never hashed; only the
    output is hashed ({!execute}), or not even that when it cannot repeat
    a tuple ({!execute_rows}).  {!run} is [execute (prepare …)], the
    one-shot form.  The module is deliberately free of any
    source/distribution concerns — the distributed decomposition lives in
    [Dyno_vm]; this module is also what each simulated {e source server}
    runs locally to answer maintenance queries. *)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(** A binding: alias bound to a relation, its original schema kept for
    name resolution (joined schemas may have suffix-renamed columns, but
    positions are stable). *)
type binding = { alias : string; schema : Schema.t; offset : int }

type binder = {
  bindings : binding list;
  owner : Attr.Qualified.t -> string;  (** owning alias of an unqualified ref *)
}

(** [make_binder q schemas] resolves reference ownership for query [q] given
    the schema of each alias.  @raise Error on unknown or ambiguous refs. *)
let make_binder (q : Query.t) (schemas : (string * Schema.t) list) =
  let bindings =
    let rec go offset acc = function
      | [] -> List.rev acc
      | (tr : Query.table_ref) :: rest ->
          let schema =
            match List.assoc_opt tr.alias schemas with
            | Some s -> s
            | None -> err "no schema bound for alias %s" tr.alias
          in
          go
            (offset + Schema.arity schema)
            ({ alias = tr.alias; schema; offset } :: acc)
            rest
    in
    go 0 [] (Query.from q)
  in
  let owner (r : Attr.Qualified.t) =
    let attr = Attr.Qualified.attr r in
    match
      List.filter (fun b -> Schema.mem b.schema attr) bindings
    with
    | [ b ] -> b.alias
    | [] -> err "unknown attribute %s" attr
    | bs ->
        err "ambiguous attribute %s (in %s)" attr
          (String.concat ", " (List.map (fun b -> b.alias) bs))
  in
  { bindings; owner }

(* [alias]'s binding, by a loop that allocates nothing.
   @raise Not_found when FROM has no such alias. *)
let rec binding alias = function
  | [] -> raise Not_found
  | b :: rest -> if String.equal b.alias alias then b else binding alias rest

(** [resolve binder r] is the absolute position of reference [r] in the
    join-product tuple. *)
let resolve binder (r : Attr.Qualified.t) =
  let alias =
    match Attr.Qualified.rel r with
    | Some a -> a
    | None -> binder.owner r
  in
  match binding alias binder.bindings with
  | exception Not_found ->
      err "unknown alias %s in reference %a" alias Attr.Qualified.pp r
  | b -> (
      match Schema.index_of b.schema (Attr.Qualified.attr r) with
      | i -> b.offset + i
      | exception Schema.No_such_attribute _ ->
          err "relation %s has no attribute %s" alias (Attr.Qualified.attr r))

(** [resolve_in_alias binder alias attr] is the position of [attr] within
    the single relation bound to [alias] (not the join product). *)
let resolve_in_alias binder alias attr =
  match binding alias binder.bindings with
  | exception Not_found -> err "unknown alias %s" alias
  | b -> (
      match Schema.index_of b.schema attr with
      | i -> i
      | exception Schema.No_such_attribute _ ->
          err "relation %s has no attribute %s" alias attr)

(* ------------------------------------------------------------------ *)
(* Join kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Rows in flight between join steps: tuples and counts appended in the
   order they are produced, never hashed.  Every input is consolidated
   and a step's output is the concatenation of its two inputs' tuples,
   so intermediate rows never repeat a tuple either. *)
type buf = {
  mutable tuples : Tuple.t array;
  mutable counts : int array;
  mutable len : int;
}

let buf () = { tuples = [||]; counts = [||]; len = 0 }

let push b t c =
  if b.len = Array.length b.tuples then begin
    let cap = max 4 (2 * b.len) in
    let tuples = Array.make cap t and counts = Array.make cap 0 in
    Array.blit b.tuples 0 tuples 0 b.len;
    Array.blit b.counts 0 counts 0 b.len;
    b.tuples <- tuples;
    b.counts <- counts
  end;
  Array.unsafe_set b.tuples b.len t;
  Array.unsafe_set b.counts b.len c;
  b.len <- b.len + 1

(* One operand of a join step, its pushed-down filter already applied:
   a relation as given, rows, a relation seen through a projection
   ({!Rows.Projected}), or any of them plus signed parts
   ([side + Σ k·part], a sum input left unconsolidated: a tuple may
   repeat across the terms). *)
type side =
  | Rel of Relation.t
  | Buf of buf
  | Proj of Relation.t * int array
  | Plus of side * (int * Relation.t) list

let rec side_len = function
  | Rel r | Proj (r, _) -> Relation.support r
  | Buf b -> b.len
  | Plus (s, parts) ->
      List.fold_left (fun n (_, r) -> n + Relation.support r) (side_len s) parts

let rec side_iter f = function
  | Rel r -> Relation.iter f r
  | Buf b ->
      for i = 0 to b.len - 1 do
        f (Array.unsafe_get b.tuples i) (Array.unsafe_get b.counts i)
      done
  | Proj (r, cols) -> Relation.iter (fun t c -> f (Tuple.project_idx t cols) c) r
  | Plus (s, parts) ->
      side_iter f s;
      List.iter (fun (k, r) -> Relation.iter (fun t c -> f t (k * c)) r) parts

(* [emit] with every count multiplied by [k]: a part's matches. *)
let scaled emit k = if k = 1 then emit else fun l r c -> emit l r (k * c)

(* [emit] for matches drawn from a projected base's index: each base
   tuple projected onto [cols], then its pushed-down filter [pred]. *)
let through cols pred ~base_is_left emit =
  if base_is_left then fun l r c ->
    let l = Tuple.project_idx l cols in
    match pred with Some p when not (p l) -> () | _ -> emit l r c
  else fun l r c ->
    let r = Tuple.project_idx r cols in
    match pred with Some p when not (p r) -> () | _ -> emit l r c

(* A kernel hands each joined pair to [emit left right count], in
   product order: left = the accumulated side, right = the new entry. *)

(* The matches of one streamed tuple [ts] in a base's index bucket,
   filtered by the base's pushed-down predicate. *)
let rec probe_bucket emit pred base_is_left ts cs = function
  | [] -> ()
  | (tb, cb) :: rest ->
      (match pred with
      | Some p when not (p tb) -> ()
      | _ -> if base_is_left then emit tb ts (cs * cb) else emit ts tb (cs * cb));
      probe_bucket emit pred base_is_left ts cs rest

(* Index probe: stream [stream] against [ix], a maintained index of a
   base relation on its join key, filtering matches by the base's local
   predicate [pred] on the fly. *)
let index_probe emit ix ~pred ~base_is_left ~stream ~stream_pos =
  match stream with
  | Buf b ->
      for i = 0 to b.len - 1 do
        let ts = Array.unsafe_get b.tuples i in
        probe_bucket emit pred base_is_left ts
          (Array.unsafe_get b.counts i)
          (Index.lookup ix (Tuple.project_idx ts stream_pos))
      done
  | (Rel _ | Proj _ | Plus _) as s ->
      side_iter
        (fun ts cs ->
          probe_bucket emit pred base_is_left ts cs
            (Index.lookup ix (Tuple.project_idx ts stream_pos)))
        s

(* The built side's matches [(t', c')] of a streamed tuple [t], in
   product order. *)
let rec emit_matches emit hash_left t c = function
  | [] -> ()
  | (t', c') :: rest ->
      if hash_left then emit t' t (c' * c) else emit t t' (c * c');
      emit_matches emit hash_left t c rest

(* Ephemeral hash join: the smaller side is hashed on its key and the
   larger streamed — a maintenance probe joins a few partial tuples
   against a large relation, so this is one pass with cheap lookups. *)
let hash_join emit ~left ~lpos ~right ~rpos =
  let hash_left = side_len left <= side_len right in
  let build, build_pos, stream, stream_pos =
    if hash_left then (left, lpos, right, rpos) else (right, rpos, left, lpos)
  in
  let table = Tuple.Table.create (max 16 (side_len build)) in
  side_iter
    (fun t c ->
      let key = Tuple.project_idx t build_pos in
      let h = Tuple.hash key in
      Tuple.Table.replace table h key
        ((t, c) :: Tuple.Table.find_or table h key []))
    build;
  side_iter
    (fun t c ->
      let key = Tuple.project_idx t stream_pos in
      emit_matches emit hash_left t c
        (Tuple.Table.find_or table (Tuple.hash key) key []))
    stream

(* Nested loop: every pair compared on the key positions, no hashing, no
   index — the O(n·m) reference plan, and with no key the product. *)
let nested_loop emit ~left ~lpos ~right ~rpos =
  let n = Array.length lpos in
  side_iter
    (fun ta ca ->
      side_iter
        (fun tb cb ->
          let rec matches i =
            i >= n
            || Value.equal (Tuple.get ta lpos.(i)) (Tuple.get tb rpos.(i))
               && matches (i + 1)
          in
          if matches 0 then emit ta tb (ca * cb))
        right)
    left

let key_positions pairs =
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let joined_into left right =
  let out =
    Relation.create (Schema.concat (Relation.schema left) (Relation.schema right))
  in
  (out, fun l r c -> Relation.add_unchecked out (Tuple.concat l r) c)

let positional_join left right pairs =
  let lpos, rpos = key_positions pairs in
  let out, emit = joined_into left right in
  hash_join emit ~left:(Rel left) ~lpos ~right:(Rel right) ~rpos;
  out

type plan = [ `Indexed | `Nested_loop ]

type catalog = Query.table_ref -> Relation.t

let catalog (env : (string * Relation.t) list) : catalog =
 fun tr ->
  match List.assoc_opt tr.alias env with
  | Some r -> r
  | None -> err "no relation bound for alias %s" tr.alias

(* Split positional local atoms into constant-equality conjuncts (usable
   as an index key) and the rest. *)
let split_const_eqs res (atoms : Predicate.atom list) =
  List.fold_right
    (fun (a : Predicate.atom) (eqs, rest) ->
      match (a.op, a.lhs, a.rhs) with
      | Predicate.Eq, Predicate.Ref r, Predicate.Const v
      | Predicate.Eq, Predicate.Const v, Predicate.Ref r ->
          ((res r, v) :: eqs, rest)
      | _ -> (eqs, a :: rest))
    atoms ([], [])

(* The selection pushed down onto one FROM entry, resolved against that
   entry's own schema. *)
type scan = {
  filter : (Tuple.t -> bool) option;  (** every local atom; [None]: none *)
  eq_pos : int array;
      (** positions of the constant-equality conjuncts, an index key;
          empty when there are none *)
  eq_key : Tuple.t;  (** their constants, in [eq_pos] order *)
  rest : (Tuple.t -> bool) option;  (** the local atoms besides those *)
}

let no_scan = { filter = None; eq_pos = [||]; eq_key = [||]; rest = None }

(* One left-deep join step: key positions in the accumulated product and
   in the joined entry. *)
type step = { pairs : (int * int) list; lpos : int array; rpos : int array }

type prepared = {
  query : Query.t;
  inputs : Schema.t array;  (** per FROM entry, the schema prepared for *)
  scans : scan array;  (** per FROM entry *)
  steps : step array;  (** [steps.(i - 1)] joins FROM entry [i] *)
  residual : (Tuple.t -> bool) option;
      (** cross-alias atoms that are not equi-joins, over the product *)
  out_schema : Schema.t;
  out_idxs : int array;  (** product positions of the select list *)
  identity : bool;
      (** one FROM entry, no predicate, every column selected in order:
          the answer is a copy of the input under [out_schema] *)
  fused : int array option;
      (** the select list picked straight from the last join step's pair,
          left position [p] as [p] and right position [p] as [-1 - p];
          [None] without a join step or with a residual predicate *)
  covering : bool;
      (** the select list keeps every column of the product, so the
          output repeats no tuple when no input does *)
  mutable restaged : (Schema.t array * (prepared, string) result) option;
      (** the query re-prepared for other input schemas, keyed by them *)
}

let output_schema p = p.out_schema
let is_identity p = p.identity

let columns p =
  if Array.length p.steps = 0 && p.scans.(0).filter = None && p.residual = None
  then Some p.out_idxs
  else None

(** [prepare q schemas] — everything about evaluating [q] that depends
    only on the query and the schema bound to each alias: name binding,
    the predicate partition, every position, the compiled predicates,
    constant-equality index keys, per-step join keys and the output
    projection.  References resolve in a fixed order: the predicate
    partition, the select list, then every WHERE reference, so an atom
    naming an alias outside FROM is an error, not an atom no step
    applies — the first failure is the one reported.
    @raise Error on binding or resolution failure. *)
let prepare (q : Query.t) (schemas : (string * Schema.t) list) : prepared =
  let binder = make_binder q schemas in
  let owner r = binder.owner r in
  let alias_of r =
    match Attr.Qualified.rel r with Some a -> a | None -> owner r
  in
  let local, global = Predicate.partition_by_alias owner (Query.where q) in
  let join_pairs = Predicate.equijoin_pairs owner global in
  let residual =
    List.filter
      (fun (a : Predicate.atom) ->
        match (a.op, a.lhs, a.rhs) with
        | Predicate.Eq, Predicate.Ref x, Predicate.Ref y ->
            String.equal (alias_of x) (alias_of y)
        | _ -> true)
      global
  in
  let out_attrs =
    List.map
      (fun (it : Query.select_item) ->
        let pos = resolve binder it.expr in
        let alias = alias_of it.expr in
        let b = List.find (fun b -> String.equal b.alias alias) binder.bindings in
        let src_attr = Schema.find b.schema (Attr.Qualified.attr it.expr) in
        (pos, Attr.make it.as_name (Attr.ty src_attr)))
      (Query.select q)
  in
  let check = function
    | Predicate.Ref r -> ignore (resolve binder r)
    | Predicate.Const _ -> ()
  in
  List.iter
    (fun (a : Predicate.atom) ->
      check a.lhs;
      check a.rhs)
    (Query.where q);
  let from = Query.from q in
  if from = [] then err "empty FROM";
  let steps =
    let bound = ref [ (List.hd from).alias ] in
    List.map
      (fun (tr : Query.table_ref) ->
        let pairs =
          List.filter_map
            (fun ((ax, qx), (ay, qy)) ->
              let pos_in_new qa =
                resolve_in_alias binder tr.alias (Attr.Qualified.attr qa)
              in
              if List.mem ax !bound && String.equal ay tr.alias then
                Some (resolve binder qx, pos_in_new qy)
              else if List.mem ay !bound && String.equal ax tr.alias then
                Some (resolve binder qy, pos_in_new qx)
              else None)
            join_pairs
        in
        bound := tr.alias :: !bound;
        {
          pairs;
          lpos = Array.of_list (List.map fst pairs);
          rpos = Array.of_list (List.map snd pairs);
        })
      (List.tl from)
  in
  let scan (tr : Query.table_ref) =
    let mine =
      List.filter
        (fun a ->
          List.exists
            (fun r -> String.equal (alias_of r) tr.alias)
            (Predicate.refs [ a ]))
        local
    in
    if mine = [] then no_scan
    else
      let res r = resolve_in_alias binder tr.alias (Attr.Qualified.attr r) in
      let filter = Predicate.compile res mine in
      let eqs, rest = split_const_eqs res mine in
      {
        filter = Some filter;
        eq_pos = Array.of_list (List.map fst eqs);
        eq_key = Tuple.of_list (List.map snd eqs);
        rest = (if rest = [] then None else Some (Predicate.compile res rest));
      }
  in
  let scans = Array.of_list (List.map scan from) in
  let residual =
    if residual = [] then None
    else Some (Predicate.compile (resolve binder) residual)
  in
  let inputs = Array.of_list (List.map (fun b -> b.schema) binder.bindings) in
  let out_idxs = Array.of_list (List.map fst out_attrs) in
  let width = Array.fold_left (fun n s -> n + Schema.arity s) 0 inputs in
  let identity =
    steps = [] && scans.(0).filter = None && residual = None
    && out_idxs = Array.init width Fun.id
  in
  let fused =
    if steps = [] || residual <> None then None
    else
      let left = width - Schema.arity inputs.(Array.length inputs - 1) in
      Some (Array.map (fun i -> if i < left then i else -1 - (i - left)) out_idxs)
  in
  {
    query = q;
    inputs;
    scans;
    steps = Array.of_list steps;
    residual;
    out_schema = Schema.of_list (List.map snd out_attrs);
    out_idxs;
    identity;
    fused;
    covering =
      List.for_all (fun i -> Array.mem i out_idxs) (List.init width Fun.id);
    restaged = None;
  }

(* The select list picked from a joined pair without building the pair:
   the fused output projection of the last join step. *)
let project_pair (src : int array) (l : Tuple.t) (r : Tuple.t) : Tuple.t =
  let n = Array.length src in
  if n = 0 then [||]
  else begin
    let s0 = Array.unsafe_get src 0 in
    let out =
      Array.make n
        (if s0 >= 0 then Array.unsafe_get l s0 else Array.unsafe_get r (-1 - s0))
    in
    for j = 1 to n - 1 do
      let s = Array.unsafe_get src j in
      Array.unsafe_set out j
        (if s >= 0 then Array.unsafe_get l s else Array.unsafe_get r (-1 - s))
    done;
    out
  end

(* The signed parts of input [i]: none unless the inputs are sums. *)
let parts_at (parts : (int * Relation.t) list array) i =
  if Array.length parts = 0 then [] else Array.unsafe_get parts i

(* The rows of input [i], its parts included: with parts, a bound on the
   consolidated support, which is all a size decision needs. *)
let input_size (inputs : Rows.t array) parts i =
  match parts_at parts i with
  | [] -> Rows.support inputs.(i)
  | ps ->
      List.fold_left
        (fun n (_, r) -> n + Relation.support r)
        (Rows.support inputs.(i)) ps

(* Entry [i] of [inputs] with its pushed-down selection applied.  Under
   [`Indexed], constant-equality conjuncts on a relation become one index
   lookup instead of a scan.  A sum's parts ride along, filtered and
   scaled into fresh rows, or beside an unfiltered base as [Plus]. *)
let materialize planner p (inputs : Rows.t array) parts i =
  let s = p.scans.(i) in
  let base =
    match (s.filter, inputs.(i)) with
    | None, Rows.Hashed r -> Rel r
    | None, Rows.Flat f -> Buf { tuples = f.tuples; counts = f.counts; len = f.len }
    | None, Rows.Projected p -> Proj (p.rel, p.cols)
    | Some _, Rows.Hashed r when planner = `Indexed && Array.length s.eq_pos > 0
      ->
        let b = buf () in
        List.iter
          (fun (t, c) ->
            match s.rest with Some pr when not (pr t) -> () | _ -> push b t c)
          (Index.lookup (Relation.ensure_index_pos r s.eq_pos) s.eq_key);
        Buf b
    | Some filter, input ->
        let b = buf () in
        Rows.iter (fun t c -> if filter t then push b t c) input;
        Buf b
  in
  match (parts_at parts i, s.filter, base) with
  | [], _, _ -> base
  | ps, Some filter, Buf b ->
      List.iter
        (fun (k, r) -> Relation.iter (fun t c -> if filter t then push b t (k * c)) r)
        ps;
      base
  | ps, _, _ -> Plus (base, ps)

(* A persistent index wins when it is already built and maintained, or
   when the probing side is much smaller than the relation it would
   index — the maintenance-probe shape (build once, probe forever).
   Otherwise an ephemeral hash join: building, then forever maintaining,
   an index the query streams past about once is pure overhead. *)
let index_wins raw ~probes pos =
  Option.is_some (Relation.find_index_pos raw pos)
  || probes * 4 <= Relation.support raw

(* The index a join step keyed at [pos] probes on a projected base: its
   relation's, at the positions the key has there, when one wins. *)
let projected_index rel cols ~probes pos =
  let at = Array.map (fun i -> cols.(i)) pos in
  if index_wins rel ~probes at then Some (Relation.ensure_index_pos rel at)
  else None

(* Probe a sum's base through [ix] — projecting each match onto
   [through_cols] for a projected base — and each of its parts through
   the part's own index, [stream] joining all of them. *)
let probe_sum emit ix through_cols parts ~pred ~base_is_left ~stream
    ~stream_pos ~pos =
  (match through_cols with
  | None -> index_probe emit ix ~pred ~base_is_left ~stream ~stream_pos
  | Some cols ->
      index_probe
        (through cols pred ~base_is_left emit)
        ix ~pred:None ~base_is_left ~stream ~stream_pos);
  match parts with
  | [] -> ()
  | ps ->
      List.iter
        (fun (k, r) ->
          index_probe (scaled emit k)
            (Relation.ensure_index_pos r pos)
            ~pred ~base_is_left ~stream ~stream_pos)
        ps

(* One [`Indexed] equi-join step joining entry [k] to the accumulated
   side: [acc] is [None] while the leftmost entry is still pristine, so
   its persistent index remains usable. *)
let accumulated p inputs parts = function
  | Some a -> a
  | None -> materialize `Indexed p inputs parts 0

let indexed_step emit p (inputs : Rows.t array) parts acc k
    ({ lpos; rpos; _ } : step) =
  let lsize =
    match acc with None -> input_size inputs parts 0 | Some a -> side_len a
  in
  let rsize = input_size inputs parts k in
  (* Probe the (large) new relation's index with the accumulated (small)
     side. *)
  let probe_right ix through_cols =
    probe_sum emit ix through_cols (parts_at parts k) ~pred:p.scans.(k).filter
      ~base_is_left:false
      ~stream:(accumulated p inputs parts acc) ~stream_pos:lpos ~pos:rpos
  in
  (* The accumulated side is still a pristine (large) relation: probe ITS
     index with the new (small) side — the maintenance-probe fast path. *)
  let probe_left ix through_cols =
    probe_sum emit ix through_cols (parts_at parts 0) ~pred:p.scans.(0).filter
      ~base_is_left:true
      ~stream:(materialize `Indexed p inputs parts k) ~stream_pos:rpos ~pos:lpos
  in
  let hash () =
    hash_join emit ~left:(accumulated p inputs parts acc) ~lpos
      ~right:(materialize `Indexed p inputs parts k) ~rpos
  in
  if rsize >= lsize then
    match inputs.(k) with
    | Rows.Hashed raw when index_wins raw ~probes:lsize rpos ->
        probe_right (Relation.ensure_index_pos raw rpos) None
    | Rows.Projected pr -> (
        match projected_index pr.rel pr.cols ~probes:lsize rpos with
        | Some ix -> probe_right ix (Some pr.cols)
        | None -> hash ())
    | _ -> hash ()
  else
    match (acc, inputs.(0)) with
    | None, Rows.Hashed lraw when index_wins lraw ~probes:rsize lpos ->
        probe_left (Relation.ensure_index_pos lraw lpos) None
    | None, Rows.Projected pr -> (
        match projected_index pr.rel pr.cols ~probes:rsize lpos with
        | Some ix -> probe_left ix (Some pr.cols)
        | None -> hash ())
    | _ -> hash ()

(* The last step's pairs, projected onto the select list — straight from
   the pair when the projection is fused, otherwise through the residual
   predicate. *)
let final p out l r c =
  match p.fused with
  | Some src -> out (project_pair src l r) c
  | None -> (
      let t = Tuple.concat l r in
      match p.residual with
      | Some pr when not (pr t) -> ()
      | _ -> out (Tuple.project_idx t p.out_idxs) c)

(* The data-dependent half of the pipeline, over inputs whose schemas are
   the ones [p] was prepared for, with [parts] their sums' parts (empty
   for plain rows): each output tuple goes to [out]. *)
let run_prepared planner p (inputs : Rows.t array) parts
    (out : Tuple.t -> int -> unit) =
  let last = Array.length p.steps - 1 in
  if last < 0 then
    (* No join step: the one entry's rows go to [out]. *)
    side_iter
      (fun t c ->
        match p.residual with
        | Some pr when not (pr t) -> ()
        | _ -> out (Tuple.project_idx t p.out_idxs) c)
      (materialize planner p inputs parts 0)
  else begin
    let acc = ref None in
    for i = 0 to last do
      let step = p.steps.(i) and k = i + 1 in
      let next = if i = last then None else Some (buf ()) in
      let emit =
        match next with
        | None -> final p out
        | Some b -> fun l r c -> push b (Tuple.concat l r) c
      in
      (match planner with
      | `Indexed when step.pairs <> [] ->
          indexed_step emit p inputs parts !acc k step
      | `Indexed | `Nested_loop ->
          let left =
            match !acc with
            | Some a -> a
            | None -> materialize planner p inputs parts 0
          in
          nested_loop emit ~left ~lpos:step.lpos
            ~right:(materialize planner p inputs parts k)
            ~rpos:step.rpos);
      acc := match next with Some b -> Some (Buf b) | None -> None
    done
  end

(* [p] itself when every input carries the schema [p] was prepared for;
   otherwise [p] re-prepared for the actual schemas — once per schema
   set, remembered in [p.restaged], a failure included. *)
let rec carry (inputs : Rows.t array) schemas i =
  i = Array.length schemas
  ||
  let s = Rows.schema inputs.(i) in
  (s == schemas.(i) || Schema.equal s schemas.(i)) && carry inputs schemas (i + 1)

let current (p : prepared) (inputs : Rows.t array) =
  if carry inputs p.inputs 0 then p
  else
    let restaged =
      match p.restaged with
      | Some (schemas, r) when carry inputs schemas 0 -> r
      | _ ->
          let r =
            match
              prepare p.query
                (List.mapi
                   (fun i (tr : Query.table_ref) ->
                     (tr.alias, Rows.schema inputs.(i)))
                   (Query.from p.query))
            with
            | q -> Ok q
            | exception Error reason -> Error reason
          in
          p.restaged <- Some (Array.map Rows.schema inputs, r);
          r
    in
    match restaged with Ok q -> q | Error reason -> raise (Error reason)

let restaged p =
  match p.restaged with Some (_, Ok q) -> Some q | Some (_, Error _) | None -> None

(* The rows of [r] laid flat under [schema], in its table's order: a
   relation is consolidated, so no tuple repeats and no count is 0. *)
let flat_rows schema r =
  let n = Relation.support r in
  let tuples = Array.make n [||] and counts = Array.make n 0 in
  let (_ : int) =
    Relation.fold
      (fun t c i ->
        tuples.(i) <- t;
        counts.(i) <- c;
        i + 1)
      r 0
  in
  Rows.flat schema tuples counts n

(* The table an answer starts with: sized to the one input when there is
   no join step and no filter, since such an answer cannot outgrow its
   input and filling a sized table never re-hashes; a join can outgrow
   its inputs, and a filter may keep a sliver of its input, whose
   oversized table every later scan would walk. *)
let answer_table p size =
  if Array.length p.steps = 0 && p.scans.(0).filter = None then
    Relation.sized p.out_schema size
  else Relation.create p.out_schema

let check_arity p n =
  if n <> Array.length p.inputs then
    invalid_arg
      (Fmt.str "Eval.execute: %d input(s) for %d FROM entries" n
         (Array.length p.inputs))

(* No input carries parts. *)
let no_parts : (int * Relation.t) list array = [||]

(** [execute_rows ?planner p inputs] evaluates the prepared query over
    [inputs], one per FROM entry in FROM order.  It first checks that
    every input carries the schema [p] was prepared for, and re-prepares
    against the actual schemas otherwise — once per set of schemas, kept
    with [p] — so a stale plan never yields a wrong answer, and a schema
    conflict raises the same {!Error} that {!run} raises, every time.
    What is left is data-dependent: which side of a join to hash, and
    whether a persistent index wins.

    [`Indexed] (the default) routes equi-join steps against a base
    relation through a {e persistent} hash index registered on that
    relation ({!Relation.ensure_index_pos} — built once, maintained
    incrementally, reused across queries), turns constant-equality
    selections on a base relation into index lookups, and falls back to
    ephemeral hash joins for everything else.  [`Nested_loop] forces the
    quadratic compare-everything plan — the reference the property tests
    hold the indexed plans to.  Under either planner a query with one FROM
    entry, no predicate and every column selected in order (output names
    may differ) answers a copy of its input ({!Relation.copy_as} of a
    hashed one), or with [~copy:false] a hashed input's rows laid flat.

    The answer is flat when it cannot repeat a tuple — the select list
    keeps every column of the join and every input is consolidated — and
    hashed otherwise, in a table sized to the input when it has one
    input and no filter.  It is always the caller's own: never an input,
    and sharing nothing mutable with one, so callers may mutate it in
    place.

    @raise Error on resolution failure against changed schemas.
    @raise Invalid_argument when [inputs] does not match the FROM list. *)
let execute_rows ?(planner : plan = `Indexed) ?(copy = true) (p : prepared)
    (inputs : Rows.t list) =
  let inputs = Array.of_list inputs in
  check_arity p (Array.length inputs);
  let p = current p inputs in
  match inputs.(0) with
  | Rows.Hashed r when p.identity && not copy -> flat_rows p.out_schema r
  | Rows.Hashed r when p.identity ->
      (* The same tuples, the input's indexes kept, nothing re-hashed. *)
      Rows.of_relation (Relation.copy_as p.out_schema r)
  | Rows.Flat f when p.identity -> Rows.flat p.out_schema f.tuples f.counts f.len
  | _ when p.covering ->
      let b = buf () in
      run_prepared planner p inputs no_parts (push b);
      Rows.flat p.out_schema b.tuples b.counts b.len
  | first ->
      let out = answer_table p (Rows.support first) in
      run_prepared planner p inputs no_parts (Relation.add_unchecked out);
      Rows.of_relation out

(** [execute ?planner p inputs] is {!execute_rows} over relations, its
    answer hashed. *)
let execute ?planner p inputs =
  Rows.relation (execute_rows ?planner p (List.map Rows.of_relation inputs))

(** [run ?planner ~catalog q] = [execute ?planner (prepare q schemas)]
    over the relations [catalog] binds (asked once per FROM entry): the
    one-shot entry point for a query evaluated once.
    @raise Error on binding or resolution failure. *)
let run ?planner ~(catalog : catalog) (q : Query.t) =
  let inputs = List.map catalog (Query.from q) in
  execute ?planner
    (prepare q
       (List.map2
          (fun (tr : Query.table_ref) r -> (tr.alias, Relation.schema r))
          (Query.from q) inputs))
    inputs

(* ------------------------------------------------------------------ *)
(* Sum inputs                                                         *)
(* ------------------------------------------------------------------ *)

(** A relation plus a few small signed parts, [base + Σ k·part], kept
    apart: a base extent compensated, or an old state as a new state
    minus its delta, without copying the base. *)
type sum = { base : Rows.t; parts : (int * Relation.t) list }

let sum base = { base; parts = [] }

let sum_schema s = Rows.schema s.base

(** [add_part s k r] is [s + k·r].
    @raise Relation.Schema_mismatch when [r]'s schema is not [s]'s. *)
let add_part s k r =
  if not (Schema.equal (Rows.schema s.base) (Relation.schema r)) then
    raise
      (Relation.Schema_mismatch
         (Fmt.str "sum part: %a vs %a" Schema.pp (Relation.schema r) Schema.pp
            (Rows.schema s.base)));
  { s with parts = s.parts @ [ (k, r) ] }

(** [execute_sums ?planner p sums] evaluates [p] over one sum per FROM
    entry.  By linearity each join step joins a base and every part
    alike: a base through its maintained index (or an ephemeral hash),
    a part through its own index.  The answer is hashed, so the terms
    consolidate and cancel; it is the caller's own, and no base, part
    or index of one is changed, except that an index a join step wants
    may be registered on a base or a part.
    @raise Error when re-preparing fails — a broken query.
    @raise Invalid_argument when [sums] does not match the FROM list. *)
let execute_sums ?(planner : plan = `Indexed) (p : prepared) (sums : sum list) =
  let inputs = Array.of_list (List.map (fun s -> s.base) sums) in
  let parts = Array.of_list (List.map (fun s -> s.parts) sums) in
  check_arity p (Array.length inputs);
  let p = current p inputs in
  let out = answer_table p (input_size inputs parts 0) in
  run_prepared planner p inputs parts (Relation.add_unchecked out);
  out

(** [run_sums ?planner lookup q] is {!execute_sums} of [q] prepared
    against the sums [lookup] binds to its FROM entries. *)
let run_sums ?planner (lookup : Query.table_ref -> sum) (q : Query.t) =
  let sums = List.map lookup (Query.from q) in
  execute_sums ?planner
    (prepare q
       (List.map2
          (fun (tr : Query.table_ref) s -> (tr.alias, sum_schema s))
          (Query.from q) sums))
    sums
