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
    paper's Figure 9. *)

open Dyno_relational
open Dyno_view

(** [equation6 ?deltas ~old_env ~new_env query] computes
    [eval query new_env − eval query old_env] incrementally, term by term.
    [old_env]/[new_env] bind every alias of [query] to its old/new state.
    Each alias's delta is taken from [deltas] when given (aliases it does
    not list are unchanged), else derived as [new − old].  Aliases whose
    delta is empty contribute no term (their join work is skipped), which
    is what makes the batch maintenance of a few changed relations cheap.
    Each term joins its delta first and the other aliases in SWEEP order,
    so the indexed left-deep plan starts from the (small) delta and
    probes the states instead of hashing every relation in FROM order. *)
let equation6 ?(planner : Eval.plan = `Indexed) ?deltas
    ~(old_env : (string * Relation.t) list)
    ~(new_env : (string * Relation.t) list) (query : Query.t) : Relation.t =
  let get env alias =
    match List.assoc_opt alias env with
    | Some r -> r
    | None -> raise (Eval.Error (Fmt.str "equation6: alias %s unbound" alias))
  in
  let delta_of alias =
    match deltas with
    | Some ds -> List.assoc_opt alias ds
    | None -> Some (Relation.diff (get new_env alias) (get old_env alias))
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
            else if j = i then delta
            else get old_env a ))
        (Query.from query)
    in
    let delta_first =
      { query with Query.from = tr :: Dyno_vm.Maint_query.sweep_order query tr.alias }
    in
    Eval.run ~planner ~catalog:(Eval.catalog env) delta_first
  in
  let acc = ref None in
  List.iteri
    (fun i (tr : Query.table_ref) ->
      match delta_of tr.alias with
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
        ~catalog:
          (Eval.catalog
             (List.map
                (fun a -> (a, Relation.create (Relation.schema (get new_env a))))
                (Query.aliases query)))
        query

(** [fetch_compensated w ~query ~schemas tr ~exclude] reads table [tr]'s
    current (filtered, projected) extent through a maintenance query and
    compensates away every pending unmaintained DU on it except those in
    [exclude] (the ids being maintained right now, whose effects {e must}
    stay in).  Returns the compensated relation. *)
let fetch_compensated (w : Query_engine.t)
    ~(query : Query.t) ~(schemas : (string * Schema.t) list)
    (tr : Query.table_ref) ~(exclude : int list) :
    (Relation.t, Query_engine.failure) result =
  let owner = Dyno_vm.Maint_query.owner_of_schemas schemas in
  let fq = Dyno_vm.Maint_query.fetch_query query owner tr in
  match Query_engine.execute w fq ~bound:[] ~target:tr.Query.source with
  | Error b -> Error b
  | Ok ans ->
      (* Compensate at the commit frontier the answer was computed at —
         BEFORE charging further work, which would deliver newer commits
         into the queue's live sums that the answer cannot contain.  Each
         schema group costs one evaluation (SPJ linearity over signed
         multisets), subtracted in place: the answer is ours. *)
      let rows = Rows.relation ans.Dyno_source.Data_source.rows in
      let compensated =
        try
          List.iter
            (fun (g : Umq.pending_sum) ->
              Relation.sum_in_place ~scale:(-1) rows
                (Eval.run
                   ~planner:(Query_engine.planner w)
                   ~catalog:(Eval.catalog [ (tr.Query.alias, g.sum) ])
                   fq))
            (Query_engine.pending_sums w ~source:tr.Query.source
               ~rel:tr.Query.rel ~exclude);
          Ok rows
        with Eval.Error reason ->
          Error
            (Query_engine.Broken
               {
                 Dyno_source.Data_source.source = tr.Query.source;
                 query_name = Query.name fq;
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

(** [fetch_all w ~query ~schemas ~exclude] fetches every view relation,
    compensated; stops at the first broken probe. *)
let fetch_all w ~query ~schemas ~exclude :
    ((string * Relation.t) list, Query_engine.failure) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tr :: rest -> (
        match fetch_compensated w ~query ~schemas tr ~exclude with
        | Error b -> Error b
        | Ok r -> go ((tr.Query.alias, r) :: acc) rest)
  in
  go [] (Query.from query)

(** [validated_tail w ~query ~schemas ~tail_cost] — the back half of an
    adaptation: the remaining local work ([tail_cost] simulated seconds,
    e.g. the extent rebuild at the view server) interleaved with
    lightweight metadata {e validation probes} to every source the view
    reads.  An Equation-6 style adaptation touches the sources repeatedly
    until it commits, so a schema change landing anywhere in the window is
    detected (in-exec) before w(MV) — this is what makes late aborts both
    possible and expensive, as in Figures 9–11. *)
let validated_tail (w : Query_engine.t) ~(query : Query.t)
    ~(schemas : (string * Schema.t) list) ~(tail_cost : float) :
    (unit, Query_engine.failure) result =
  let owner = Dyno_vm.Maint_query.owner_of_schemas schemas in
  let waves = 4 in
  let chunk = tail_cost /. float_of_int waves in
  let rec wave k =
    if k > waves then Ok ()
    else begin
      Query_engine.advance w chunk;
      let rec check = function
        | [] -> wave (k + 1)
        | (tr : Query.table_ref) :: rest -> (
            let fq = Dyno_vm.Maint_query.fetch_query query owner tr in
            match Query_engine.validate w fq ~target:tr.Query.source with
            | Ok () -> check rest
            | Error b -> Error b)
      in
      check (Query.from query)
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
  let vd = Mat_view.def mv in
  let query, _ = View_def.read vd in
  let schemas = View_def.schemas vd in
  match fetch_all w ~query ~schemas ~exclude with
  | Error b -> Error b
  | Ok env -> (
      let extent =
        Eval.run
          ~planner:(Query_engine.planner w)
          ~catalog:(Eval.catalog env) query
      in
      let tail_cost =
        Dyno_sim.Cost_model.adapt (Query_engine.cost w) ~scanned:0
          ~written:(Relation.support extent)
        +. Dyno_sim.Cost_model.rebuild (Query_engine.cost w)
             ~written:(Relation.support extent)
      in
      match validated_tail w ~query ~schemas ~tail_cost with
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
    adapts incrementally: fetches compensated new states, reconstructs the
    old states by subtracting the batch's own accumulated deltas
    ([batch_deltas] : alias → ΔRᵢ, already projected to the current
    schema), runs {!equation6} over those deltas and refreshes the extent
    in place.  Only valid when the rewriting preserved the view's output
    schema (renames and pure data batches). *)
let refresh_with_equation6 (w : Query_engine.t) (mv : Mat_view.t)
    ~(maintained : int list) ~(batch_deltas : (string * Relation.t) list)
    ~(exclude : int list) : (unit, Query_engine.failure) result =
  let vd = Mat_view.def mv in
  let query, _ = View_def.read vd in
  let schemas = View_def.schemas vd in
  match fetch_all w ~query ~schemas ~exclude with
  | Error b -> Error b
  | Ok new_env ->
      let owner = Dyno_vm.Maint_query.owner_of_schemas schemas in
      (* The fetched states are filtered/projected; express each batch
         delta the same way: ΔRᵢ of Equation 6. *)
      let deltas =
        List.filter_map
          (fun (tr : Query.table_ref) ->
            match List.assoc_opt tr.alias batch_deltas with
            | None -> None
            | Some d ->
                let fq = Dyno_vm.Maint_query.fetch_query query owner tr in
                Some
                  ( tr.alias,
                    Eval.run
                      ~planner:(Query_engine.planner w)
                      ~catalog:(Eval.catalog [ (tr.alias, d) ]) fq ))
          (Query.from query)
      in
      let old_env =
        List.map
          (fun (alias, new_r) ->
            match List.assoc_opt alias deltas with
            | None -> (alias, new_r)
            | Some d' -> (alias, Relation.diff new_r d'))
          new_env
      in
      let dv =
        equation6 ~planner:(Query_engine.planner w) ~deltas ~old_env ~new_env
          query
      in
      (* Per-fetch join work already charged in [fetch_compensated]. *)
      let tail_cost =
        Dyno_sim.Cost_model.adapt (Query_engine.cost w) ~scanned:0
          ~written:(Relation.mass dv)
      in
      match validated_tail w ~query ~schemas ~tail_cost with
      | Error b -> Error b
      | Ok () ->
          Mat_view.refresh mv ~at:(Query_engine.now w) ~maintained dv;
          Dyno_sim.Trace.record (Query_engine.trace w)
            ~time:(Query_engine.now w) Dyno_sim.Trace.Adapt
            (lazy
              (Fmt.str "view %s += %d tuple(s) via Equation 6"
                 (Query.name query) (Relation.mass dv)));
          Ok ()
