(** View Adaptation (VA): bringing the materialized extent in line with a
    (possibly rewritten) view definition.

    Two mechanisms:

    - {!equation6} — the incremental delta of Section 5:
      [ΔV = ΔR₁ ⋈ R₂ ⋈ … ⋈ Rₙ + R₁ⁿᵉʷ ⋈ ΔR₂ ⋈ R₃ ⋈ … + … +
      R₁ⁿᵉʷ ⋈ … ⋈ Rₙ₋₁ⁿᵉʷ ⋈ ΔRₙ], evaluated over signed multisets so
      insertions and deletions ride in one pass;
    - {!fetch_compensated} / {!replace_extent} — re-reading the (filtered)
      source relations through maintenance queries, compensating away
      pending unmaintained data updates, and rebuilding the extent; used
      when the rewriting changed the view's shape so no delta against the
      old extent exists.

    Both go through {!Dyno_view.Query_engine}, so concurrent schema changes
    can break adaptation queries too — that is the type (4) anomaly (SC
    conflicting with M(SC)), and its abort is the expensive one in the
    paper's Figure 9.

    Neither copies what it reads: a fetch of a relation's columns is the
    source's own extent, pinned until the adaptation ends ({!holding}),
    and a compensated or an old state is that extent plus signed parts
    ({!Eval.sum}), which the Equation 6 terms probe through the extent's
    maintained indexes. *)

open Dyno_relational
open Dyno_view

(** [equation6 ~deltas ~old_env ~new_env query] computes
    [eval query new_env − eval query old_env] incrementally, term by term.
    [old_env]/[new_env] bind every alias of [query] to its old/new state,
    a sum input ({!Eval.sum}): a source extent with its compensation, or
    a new state minus its delta.  [deltas] lists each changed alias's
    [ΔRᵢ = new − old]; unlisted aliases are unchanged.  Aliases whose
    delta is empty contribute no term (their join work is skipped),
    which is what makes the batch maintenance of a few changed relations
    cheap.  Each term joins its delta first and the other aliases in
    SWEEP order, so the indexed left-deep plan starts from the (small)
    delta and probes the states' maintained indexes instead of hashing
    every relation in FROM order. *)
let equation6 ?(planner : Eval.plan = `Indexed)
    ~(deltas : (string * Relation.t) list)
    ~(old_env : (string * Eval.sum) list)
    ~(new_env : (string * Eval.sum) list) (query : Query.t) : Relation.t =
  let get env alias =
    match List.assoc_opt alias env with
    | Some s -> s
    | None -> raise (Eval.Error (Fmt.str "equation6: alias %s unbound" alias))
  in
  (* Term i binds aliases before i to their new state, alias i to its
     delta and aliases after i to their old state. *)
  let term i (tr : Query.table_ref) delta =
    let env =
      List.mapi
        (fun j (tr' : Query.table_ref) ->
          let a = tr'.alias in
          ( a,
            if j < i then get new_env a
            else if j = i then Eval.sum (Rows.of_relation delta)
            else get old_env a ))
        (Query.from query)
    in
    let delta_first =
      { query with Query.from = tr :: Dyno_vm.Maint_query.sweep_order query tr.alias }
    in
    Eval.run_sums ~planner (fun tr -> get env tr.Query.alias) delta_first
  in
  let acc = ref None in
  List.iteri
    (fun i (tr : Query.table_ref) ->
      match List.assoc_opt tr.alias deltas with
      | Some d when not (Relation.is_empty d) -> (
          let dv = term i tr d in
          match !acc with
          | None -> acc := Some dv
          | Some a -> Relation.sum_in_place a dv)
      | _ -> ())
    (Query.from query);
  match !acc with
  | Some dv -> dv
  | None ->
      (* No alias changed: the delta is empty with the view's schema. *)
      Eval.run ~planner
        ~catalog:(fun tr ->
          Relation.create (Eval.sum_schema (get new_env tr.Query.alias)))
        query

type fetch = { table : Query.table_ref; query : Query.t }

(** [fetches query schemas] — the adaptation probe of every view relation
    ({!Dyno_vm.Maint_query.fetch_query}), built once per adaptation and
    used by its fetches, its delta projections and its validation
    waves. *)
let fetches (query : Query.t) (schemas : (string * Schema.t) list) : fetch list =
  let owner = Dyno_vm.Maint_query.owner_of_schemas schemas in
  List.map
    (fun (tr : Query.table_ref) ->
      { table = tr; query = Dyno_vm.Maint_query.fetch_query query owner tr })
    (Query.from query)

type held = (string * Relation.t) list ref

(** [holding w f] runs [f] with a fresh record of the relations it
    fetches, and releases each at its source ({!Query_engine.unpin})
    when [f] returns or raises: pinned extents never outlive the
    adaptation that fetched them. *)
let holding (w : Query_engine.t) (f : held -> 'a) : 'a =
  let held = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (source, r) -> Query_engine.unpin w ~source r) !held)
    (fun () -> f held)

(** [fetch_compensated w held f ~exclude] reads [f]'s table — its current
    (filtered, projected) extent — and compensates away every pending
    unmaintained DU on it except those in [exclude] (the ids being
    maintained right now, whose effects {e must} stay in).  Returns the
    compensated state as a sum: the answer (the source's pinned extent,
    for an identity fetch) minus one contribution per pending group. *)
let fetch_compensated (w : Query_engine.t) (held : held) (f : fetch)
    ~(exclude : int list) : (Eval.sum, Query_engine.failure) result =
  let tr = f.table in
  match Query_engine.fetch w f.query ~target:tr.Query.source with
  | Error b -> Error b
  | Ok ans ->
      let rows = ans.Dyno_source.Data_source.rows in
      (match rows with
      | Rows.Hashed r | Rows.Projected { rel = r; _ } ->
          held := (tr.Query.source, r) :: !held
      | Rows.Flat _ -> ());
      (* Compensate at the commit frontier the answer was computed at —
         BEFORE charging further work, which would deliver newer commits
         into the queue's live sums that the answer cannot contain.  Each
         schema group costs one evaluation (SPJ linearity over signed
         multisets), kept as a negative part: nothing is subtracted from
         the answer. *)
      let compensated =
        try
          Ok
            (List.fold_left
               (fun s (g : Umq.pending_sum) ->
                 Eval.add_part s (-1)
                   (Eval.run
                      ~planner:(Query_engine.planner w)
                      ~catalog:(Eval.catalog [ (tr.Query.alias, g.sum) ])
                      f.query))
               (Eval.sum rows)
               (Query_engine.pending_sums w ~source:tr.Query.source
                  ~rel:tr.Query.rel ~exclude))
        with Eval.Error reason ->
          Error
            (Query_engine.Broken
               {
                 Dyno_source.Data_source.source = tr.Query.source;
                 query_name = Query.name f.query;
                 reason = Fmt.str "adaptation compensation failed: %s" reason;
               })
      in
      (* Adaptation joins each fetched relation in as it arrives; charge
         that incremental work now so that an abort mid-adaptation carries
         a realistic sunk cost (the expensive abort of Figure 9). *)
      Query_engine.advance w
        ((Query_engine.cost w).Dyno_sim.Cost_model.va_per_tuple
        *. Dyno_sim.Cost_model.rows (Query_engine.cost w)
             ans.Dyno_source.Data_source.scanned);
      compensated

(** [fetch_all w held fs ~exclude] fetches every view relation,
    compensated; stops at the first broken probe. *)
let fetch_all w held fs ~exclude :
    ((string * Eval.sum) list, Query_engine.failure) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match fetch_compensated w held f ~exclude with
        | Error b -> Error b
        | Ok s -> go ((f.table.Query.alias, s) :: acc) rest)
  in
  go [] fs

(** [validated_tail w fs ~tail_cost] — the back half of an adaptation:
    the remaining local work ([tail_cost] simulated seconds, e.g. the
    extent rebuild at the view server) interleaved with lightweight
    metadata {e validation probes} to every source the view reads.  An
    Equation-6 style adaptation touches the sources repeatedly until it
    commits, so a schema change landing anywhere in the window is
    detected (in-exec) before w(MV) — this is what makes late aborts both
    possible and expensive, as in Figures 9–11. *)
let validated_tail (w : Query_engine.t) (fs : fetch list) ~(tail_cost : float) :
    (unit, Query_engine.failure) result =
  let waves = 4 in
  let chunk = tail_cost /. float_of_int waves in
  let rec wave k =
    if k > waves then Ok ()
    else begin
      Query_engine.advance w chunk;
      let rec check = function
        | [] -> wave (k + 1)
        | f :: rest -> (
            match Query_engine.validate w f.query ~target:f.table.Query.source with
            | Ok () -> check rest
            | Error b -> Error b)
      in
      check fs
    end
  in
  wave 1

(** [replace_extent w mv ~maintained ~exclude] rebuilds the view extent
    from compensated source reads against the current (rewritten)
    definition, charging adaptation cost, and commits.  The view changed
    shape, so the view server deletes and reinserts the whole extent —
    which is why this path (e.g. a dropped attribute) costs well above a
    rename. *)
let replace_extent (w : Query_engine.t) (mv : Mat_view.t)
    ~(maintained : int list) ~(exclude : int list) :
    (unit, Query_engine.failure) result =
  let query, _ = View_def.read (Mat_view.def mv) in
  let fs = fetches query (View_def.schemas (Mat_view.def mv)) in
  holding w @@ fun held ->
  match fetch_all w held fs ~exclude with
  | Error b -> Error b
  | Ok env -> (
      let extent =
        Eval.run_sums
          ~planner:(Query_engine.planner w)
          (fun tr -> List.assoc tr.Query.alias env)
          query
      in
      let tail_cost =
        Dyno_sim.Cost_model.adapt (Query_engine.cost w) ~scanned:0
          ~written:(Relation.support extent)
        +. Dyno_sim.Cost_model.rebuild (Query_engine.cost w)
             ~written:(Relation.support extent)
      in
      match validated_tail w fs ~tail_cost with
      | Error b -> Error b
      | Ok () ->
          Mat_view.replace mv ~at:(Query_engine.now w) ~maintained extent;
          Dyno_sim.Trace.record (Query_engine.trace w)
            ~time:(Query_engine.now w) Dyno_sim.Trace.Adapt
            (lazy
              (Fmt.str "view %s re-materialized: %d tuples" (Query.name query)
                 (Relation.cardinality extent)));
          Ok ())

(** [refresh_with_equation6 w mv ~maintained ~batch_deltas ~exclude]
    adapts incrementally: fetches compensated new states, takes each old
    state as its new state minus the batch's own accumulated delta
    ([batch_deltas] : alias → ΔRᵢ, already projected to the current
    schema) — a sum, not a copy — runs {!equation6} over those deltas and
    refreshes the extent in place.  Only valid when the rewriting
    preserved the view's output schema (renames and pure data
    batches). *)
let refresh_with_equation6 (w : Query_engine.t) (mv : Mat_view.t)
    ~(maintained : int list) ~(batch_deltas : (string * Relation.t) list)
    ~(exclude : int list) : (unit, Query_engine.failure) result =
  let query, _ = View_def.read (Mat_view.def mv) in
  let fs = fetches query (View_def.schemas (Mat_view.def mv)) in
  holding w @@ fun held ->
  match fetch_all w held fs ~exclude with
  | Error b -> Error b
  | Ok new_env -> (
      let planner = Query_engine.planner w in
      (* The fetched states are filtered/projected; express each batch
         delta the same way: ΔRᵢ of Equation 6. *)
      let deltas =
        List.filter_map
          (fun f ->
            let alias = f.table.Query.alias in
            match List.assoc_opt alias batch_deltas with
            | None -> None
            | Some d ->
                Some
                  ( alias,
                    Eval.run ~planner ~catalog:(Eval.catalog [ (alias, d) ])
                      f.query ))
          fs
      in
      let old_env =
        List.map
          (fun (alias, s) ->
            match List.assoc_opt alias deltas with
            | None -> (alias, s)
            | Some d' -> (alias, Eval.add_part s (-1) d'))
          new_env
      in
      let dv = equation6 ~planner ~deltas ~old_env ~new_env query in
      (* Per-fetch join work already charged in [fetch_compensated]. *)
      let tail_cost =
        Dyno_sim.Cost_model.adapt (Query_engine.cost w) ~scanned:0
          ~written:(Relation.mass dv)
      in
      match validated_tail w fs ~tail_cost with
      | Error b -> Error b
      | Ok () ->
          Mat_view.refresh mv ~at:(Query_engine.now w) ~maintained dv;
          Dyno_sim.Trace.record (Query_engine.trace w)
            ~time:(Query_engine.now w) Dyno_sim.Trace.Adapt
            (lazy
              (Fmt.str "view %s += %d tuple(s) via Equation 6"
                 (Query.name query) (Relation.mass dv)));
          Ok ())
