(** SPJ query evaluation over signed-multiset relations.

    The evaluator binds each FROM entry to a relation, performs a
    left-deep join pipeline with selection push-down, applies residual
    predicates, and projects the select list.  It works in two halves:
    {!prepare} does everything that depends only on the query and its
    input schemas, once; {!execute} runs that plan over data, keeping the
    data-dependent choices, and its [?planner] selects the physical plan:
    [`Indexed] (default) probes persistent hash indexes on base relations
    for equi-joins and constant-equality selections, falling back to
    ephemeral hash joins; [`Nested_loop] forces the quadratic reference
    plan.  {!run} is [execute (prepare …)], the one-shot form.  The module is deliberately free of any
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

(* Positional hash join: join [left] (arbitrary join-product schema) with
   [right] on (left position, right position) pairs.  The smaller side is
   hashed and the larger streamed — maintenance probes typically join a
   partial result of a handful of tuples against a large base relation, so
   this keeps the per-probe cost at one pass with cheap lookups. *)
let positional_join ?project left right (pairs : (int * int) list) =
  let lpos = Array.of_list (List.map fst pairs) in
  let rpos = Array.of_list (List.map snd pairs) in
  let schema', emit =
    match project with
    | None ->
        ( Schema.concat (Relation.schema left) (Relation.schema right),
          fun t -> t )
    | Some (sch, f) -> (sch, f)
  in
  let out = Relation.create schema' in
  let hash_left = Relation.support left <= Relation.support right in
  let build, build_pos, stream, stream_pos =
    if hash_left then (left, lpos, right, rpos) else (right, rpos, left, lpos)
  in
  let index = Tuple.Table.create (max 16 (Relation.support build)) in
  Relation.iter
    (fun t c ->
      let key = Tuple.project_idx t build_pos in
      let prev = Option.value ~default:[] (Tuple.Table.find_opt index key) in
      Tuple.Table.replace index key ((t, c) :: prev))
    build;
  Relation.iter
    (fun t c ->
      let key = Tuple.project_idx t stream_pos in
      match Tuple.Table.find_opt index key with
      | None -> ()
      | Some matches ->
          List.iter
            (fun (t', c') ->
              (* Output order is always (left, right). *)
              let tup =
                if hash_left then Tuple.concat t' t else Tuple.concat t t'
              in
              Relation.add_unchecked out (emit tup) (c * c'))
            matches)
    stream;
  out

(* Positional nested-loop join: every pair of tuples compared on the key
   positions, no hashing, no index — the O(n·m) reference plan the planner
   falls back to and the baseline the micro-benchmarks measure the indexed
   plans against.  Materializes only matches (never the full product). *)
let nested_loop_join left right (pairs : (int * int) list) =
  let lpos = Array.of_list (List.map fst pairs) in
  let rpos = Array.of_list (List.map snd pairs) in
  let n = Array.length lpos in
  let schema' = Schema.concat (Relation.schema left) (Relation.schema right) in
  let out = Relation.create schema' in
  Relation.iter
    (fun ta ca ->
      Relation.iter
        (fun tb cb ->
          let rec matches i =
            i >= n
            || Value.equal (Tuple.get ta lpos.(i)) (Tuple.get tb rpos.(i))
               && matches (i + 1)
          in
          if matches 0 then Relation.add_unchecked out (Tuple.concat ta tb) (ca * cb))
        right)
    left;
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
  let identity =
    steps = [] && scans.(0).filter = None && residual = None
    && out_idxs = Array.init (Schema.arity inputs.(0)) Fun.id
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
  }

(* The data-dependent half of the pipeline, over inputs whose schemas are
   the ones [p] was prepared for. *)
let run_prepared planner p rels =
  (* Per-alias selection push-down.  Under [`Indexed], constant-equality
     conjuncts become one index lookup instead of a scan. *)
  let materialize i rel =
    let s = p.scans.(i) in
    match (s.filter, planner) with
    | None, _ -> rel
    | Some filter, `Nested_loop -> Relation.select filter rel
    | Some filter, `Indexed when Array.length s.eq_pos = 0 ->
        Relation.select filter rel
    | Some _, `Indexed ->
        let ix = Relation.ensure_index_pos rel s.eq_pos in
        let out = Relation.create (Relation.schema rel) in
        Index.iter_matches ix s.eq_key (fun t c ->
            if match s.rest with None -> true | Some pr -> pr t then
              Relation.add_unchecked out t c);
        out
  in
  (* One join step streaming [stream] against the persistent index of the
     pristine base [raw]: each stream tuple's key is probed, matches are
     filtered by the base's local predicate on the fly.  Output tuple
     order stays (left, right) = (accumulated, new). *)
  let index_probe ~emit ~stream ~stream_pos ~raw ~raw_pos ~raw_pred
      ~raw_is_left out =
    let ix = Relation.ensure_index_pos raw raw_pos in
    Relation.iter
      (fun ts cs ->
        let key = Tuple.project_idx ts stream_pos in
        Index.iter_matches ix key (fun ti ci ->
            if match raw_pred with None -> true | Some pr -> pr ti then
              let tup =
                if raw_is_left then Tuple.concat ti ts else Tuple.concat ts ti
              in
              Relation.add_unchecked out (emit tup) (cs * ci)))
      stream
  in
  (* Projection fused into the final join step: when no residual predicate
     needs the full join product, the last hash join emits projected
     tuples directly, saving one whole materialize-and-rehash pass over
     the wide intermediate. *)
  let fused = ref false in
  let last = Array.length p.steps - 1 in
  (* [acc] is the materialized intermediate; until the first join
     consumes it, the leftmost base stays pristine so its persistent
     index remains usable. *)
  let acc = ref None in
  let pristine = ref (Some rels.(0)) in
  let acc_mat () =
    match !acc with
    | Some m -> m
    | None ->
        let m = materialize 0 rels.(0) in
        pristine := None;
        acc := Some m;
        m
  in
  Array.iteri
    (fun i ({ pairs; lpos; rpos } : step) ->
      let k = i + 1 and r = rels.(i + 1) in
      (* The fused-projection sink, available only on the final step
         (positions in [out_idxs] refer to the full product) and only
         when no residual predicate needs the wide tuple. *)
      let sink () =
        if i = last && p.residual = None then begin
          fused := true;
          Some (p.out_schema, fun t -> Tuple.project_idx t p.out_idxs)
        end
        else None
      in
      let step =
        match planner with
        | `Nested_loop -> nested_loop_join (acc_mat ()) (materialize k r) pairs
        | `Indexed when pairs = [] ->
            Relation.product (acc_mat ()) (materialize k r)
        | `Indexed -> (
            let lsize =
              match !pristine with
              | Some lraw -> Relation.support lraw
              | None -> Relation.support (acc_mat ())
            in
            (* A persistent index wins when it is already built and
               maintained, or when the probing side is much smaller than
               the base it would index — the maintenance-probe shape
               (build once, probe forever).  Otherwise fall back to an
               ephemeral hash join: building, then forever maintaining,
               an index the query streams past about once is pure
               overhead. *)
            let index_wins ~raw ~probes pos =
              Option.is_some (Relation.find_index_pos raw pos)
              || probes * 4 <= Relation.support raw
            in
            if Relation.support r >= lsize then begin
              if not (index_wins ~raw:r ~probes:lsize rpos) then
                positional_join ?project:(sink ()) (acc_mat ())
                  (materialize k r) pairs
              else begin
                (* Probe the (large) new base's persistent index with the
                   accumulated (small) side. *)
                let left = acc_mat () in
                let sch, emit =
                  match sink () with
                  | Some (sch, f) -> (sch, f)
                  | None ->
                      ( Schema.concat (Relation.schema left) (Relation.schema r),
                        fun t -> t )
                in
                let out = Relation.create sch in
                index_probe ~emit ~stream:left ~stream_pos:lpos ~raw:r
                  ~raw_pos:rpos ~raw_pred:p.scans.(k).filter
                  ~raw_is_left:false out;
                out
              end
            end
            else
              match !pristine with
              | Some lraw
                when index_wins ~raw:lraw ~probes:(Relation.support r) lpos ->
                  (* The accumulated side is still a pristine (large)
                     base: probe ITS persistent index with the new (small)
                     side — the maintenance-probe fast path. *)
                  let right = materialize k r in
                  let sch, emit =
                    match sink () with
                    | Some (sch, f) -> (sch, f)
                    | None ->
                        ( Schema.concat (Relation.schema lraw)
                            (Relation.schema right),
                          fun t -> t )
                  in
                  let out = Relation.create sch in
                  index_probe ~emit ~stream:right ~stream_pos:rpos ~raw:lraw
                    ~raw_pos:lpos ~raw_pred:p.scans.(0).filter
                    ~raw_is_left:true out;
                  pristine := None;
                  out
              | Some _ | None ->
                  (* Two intermediates, or no index worth building:
                     ephemeral hash join, smaller side hashed. *)
                  positional_join ?project:(sink ()) (acc_mat ())
                    (materialize k r) pairs)
      in
      pristine := None;
      acc := Some step)
    p.steps;
  let joined = acc_mat () in
  let joined =
    match p.residual with
    | None -> joined
    | Some pr -> Relation.select pr joined
  in
  (* Final projection (already emitted by the last join step when fused). *)
  if !fused then joined
  else Relation.map_tuples p.out_schema (fun t -> Tuple.project_idx t p.out_idxs) joined

(** [execute ?planner p inputs] evaluates the prepared query over
    [inputs], one relation per FROM entry in FROM order.  It first checks
    that every input carries the schema [p] was prepared for, and
    re-prepares against the actual schemas otherwise — so a stale plan
    never yields a wrong answer, and a schema conflict raises the same
    {!Error} that {!run} raises.  What is left is data-dependent: which
    side of a join to hash, and whether a persistent index wins.

    [`Indexed] (the default) routes equi-join steps against a base
    relation through a {e persistent} hash index registered on that
    relation ({!Relation.ensure_index_pos} — built once, maintained
    incrementally, reused across queries), turns constant-equality
    selections on a base relation into index lookups, and falls back to
    ephemeral hash joins for everything else.  [`Nested_loop] forces the
    quadratic compare-everything plan — the reference the property tests
    hold the indexed plans to.  Under either planner a query with one FROM
    entry, no predicate and every column selected in order (output names
    may differ) is answered by {!Relation.copy_as} of its input.

    The result is always a relation only the caller holds — never an
    input, and sharing nothing mutable with one — so callers may mutate
    it in place.

    @raise Error on resolution failure against changed schemas.
    @raise Invalid_argument when [inputs] does not match the FROM list. *)
let execute ?(planner : plan = `Indexed) (p : prepared)
    (inputs : Relation.t list) =
  let rels = Array.of_list inputs in
  if Array.length rels <> Array.length p.inputs then
    invalid_arg
      (Fmt.str "Eval.execute: %d input(s) for %d FROM entries"
         (Array.length rels) (Array.length p.inputs));
  let prepared_for r s =
    let s' = Relation.schema r in
    s' == s || Schema.equal s' s
  in
  let p =
    if Array.for_all2 prepared_for rels p.inputs then p
    else
      prepare p.query
        (List.map2
           (fun (tr : Query.table_ref) r -> (tr.alias, Relation.schema r))
           (Query.from p.query) inputs)
  in
  (* An identity query is a copy of its input: the same tuples, the
     input's indexes kept, nothing re-hashed. *)
  if p.identity then Relation.copy_as p.out_schema rels.(0)
  else run_prepared planner p rels

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
