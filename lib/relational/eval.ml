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

(** [resolve binder r] is the absolute position of reference [r] in the
    join-product tuple. *)
let resolve binder (r : Attr.Qualified.t) =
  let alias =
    match Attr.Qualified.rel r with
    | Some a -> a
    | None -> binder.owner r
  in
  match List.find_opt (fun b -> String.equal b.alias alias) binder.bindings with
  | None -> err "unknown alias %s in reference %a" alias Attr.Qualified.pp r
  | Some b -> (
      match Schema.index_of_opt b.schema (Attr.Qualified.attr r) with
      | Some i -> b.offset + i
      | None ->
          err "relation %s has no attribute %s" alias (Attr.Qualified.attr r))

(** [resolve_in_alias binder alias attr] is the position of [attr] within
    the single relation bound to [alias] (not the join product). *)
let resolve_in_alias binder alias attr =
  match List.find_opt (fun b -> String.equal b.alias alias) binder.bindings with
  | None -> err "unknown alias %s" alias
  | Some b -> (
      match Schema.index_of_opt b.schema attr with
      | Some i -> i
      | None -> err "relation %s has no attribute %s" alias attr)

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
   a relation as given, or rows. *)
type side = Rel of Relation.t | Buf of buf

let side_len = function Rel r -> Relation.support r | Buf b -> b.len

let side_iter f = function
  | Rel r -> Relation.iter f r
  | Buf b ->
      for i = 0 to b.len - 1 do
        f (Array.unsafe_get b.tuples i) (Array.unsafe_get b.counts i)
      done

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
  | Rel r ->
      Relation.iter
        (fun ts cs ->
          probe_bucket emit pred base_is_left ts cs
            (Index.lookup ix (Tuple.project_idx ts stream_pos)))
        r

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
      let prev =
        match Tuple.Table.find table key with
        | l -> l
        | exception Not_found -> []
      in
      Tuple.Table.replace table key ((t, c) :: prev))
    build;
  side_iter
    (fun t c ->
      match Tuple.Table.find table (Tuple.project_idx t stream_pos) with
      | matches ->
          List.iter
            (fun (t', c') ->
              if hash_left then emit t' t (c' * c) else emit t t' (c * c'))
            matches
      | exception Not_found -> ())
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

(** [prepare q schemas] — everything about evaluating [q] that depends
    only on the query and the schema bound to each alias: name binding,
    the predicate partition, every position, the compiled predicates,
    constant-equality index keys, per-step join keys and the output
    projection.  References resolve in a fixed order: the predicate
    partition, the select list, join keys, local predicates, residual
    atoms — the first failure is the one reported.
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

(* Entry [i] of [inputs] with its pushed-down selection applied.  Under
   [`Indexed], constant-equality conjuncts on a relation become one index
   lookup instead of a scan. *)
let materialize planner p (inputs : Rows.t array) i =
  let s = p.scans.(i) in
  match (s.filter, inputs.(i)) with
  | None, Rows.Hashed r -> Rel r
  | None, Rows.Flat f -> Buf { tuples = f.tuples; counts = f.counts; len = f.len }
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

(* A persistent index wins when it is already built and maintained, or
   when the probing side is much smaller than the relation it would
   index — the maintenance-probe shape (build once, probe forever).
   Otherwise an ephemeral hash join: building, then forever maintaining,
   an index the query streams past about once is pure overhead. *)
let index_wins raw ~probes pos =
  Option.is_some (Relation.find_index_pos raw pos)
  || probes * 4 <= Relation.support raw

(* One [`Indexed] equi-join step joining entry [k] to the accumulated
   side: [acc] is [None] while the leftmost entry is still pristine, so
   its persistent index remains usable. *)
let indexed_step emit p (inputs : Rows.t array) acc k ({ lpos; rpos; _ } : step)
    =
  let accumulated () =
    match acc with Some a -> a | None -> materialize `Indexed p inputs 0
  in
  let lsize =
    match acc with None -> Rows.support inputs.(0) | Some a -> side_len a
  in
  let r = inputs.(k) in
  if Rows.support r >= lsize then
    match r with
    | Rows.Hashed raw when index_wins raw ~probes:lsize rpos ->
        (* Probe the (large) new relation's index with the accumulated
           (small) side. *)
        index_probe emit
          (Relation.ensure_index_pos raw rpos)
          ~pred:p.scans.(k).filter ~base_is_left:false ~stream:(accumulated ())
          ~stream_pos:lpos
    | _ ->
        hash_join emit ~left:(accumulated ()) ~lpos
          ~right:(materialize `Indexed p inputs k) ~rpos
  else
    match (acc, inputs.(0)) with
    | None, Rows.Hashed lraw when index_wins lraw ~probes:(Rows.support r) lpos
      ->
        (* The accumulated side is still a pristine (large) relation:
           probe ITS index with the new (small) side — the
           maintenance-probe fast path. *)
        index_probe emit
          (Relation.ensure_index_pos lraw lpos)
          ~pred:p.scans.(0).filter ~base_is_left:true
          ~stream:(materialize `Indexed p inputs k) ~stream_pos:rpos
    | _ ->
        hash_join emit ~left:(accumulated ()) ~lpos
          ~right:(materialize `Indexed p inputs k) ~rpos

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
   the ones [p] was prepared for: each output tuple goes to [out]. *)
let run_prepared planner p (inputs : Rows.t array) (out : Tuple.t -> int -> unit)
    =
  let last = Array.length p.steps - 1 in
  if last < 0 then
    (* No join step: the one entry's rows go to [out]. *)
    side_iter
      (fun t c ->
        match p.residual with
        | Some pr when not (pr t) -> ()
        | _ -> out (Tuple.project_idx t p.out_idxs) c)
      (materialize planner p inputs 0)
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
      | `Indexed when step.pairs <> [] -> indexed_step emit p inputs !acc k step
      | `Indexed | `Nested_loop ->
          let left =
            match !acc with
            | Some a -> a
            | None -> materialize planner p inputs 0
          in
          nested_loop emit ~left ~lpos:step.lpos
            ~right:(materialize planner p inputs k)
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
    hashed otherwise.  It is always the caller's own: never an input, and
    sharing nothing mutable with one, so callers may mutate it in place.

    @raise Error on resolution failure against changed schemas.
    @raise Invalid_argument when [inputs] does not match the FROM list. *)
let execute_rows ?(planner : plan = `Indexed) ?(copy = true) (p : prepared)
    (inputs : Rows.t list) =
  let inputs = Array.of_list inputs in
  if Array.length inputs <> Array.length p.inputs then
    invalid_arg
      (Fmt.str "Eval.execute: %d input(s) for %d FROM entries"
         (Array.length inputs) (Array.length p.inputs));
  let p = current p inputs in
  match inputs.(0) with
  | Rows.Hashed r when p.identity && not copy -> flat_rows p.out_schema r
  | Rows.Hashed r when p.identity ->
      (* The same tuples, the input's indexes kept, nothing re-hashed. *)
      Rows.of_relation (Relation.copy_as p.out_schema r)
  | Rows.Flat f when p.identity -> Rows.flat p.out_schema f.tuples f.counts f.len
  | _ when p.covering ->
      let b = buf () in
      run_prepared planner p inputs (push b);
      Rows.flat p.out_schema b.tuples b.counts b.len
  | _ ->
      let out = Relation.create p.out_schema in
      run_prepared planner p inputs (Relation.add_unchecked out);
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
