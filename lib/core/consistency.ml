(** Consistency checkers: the correctness criteria of Section 4.4, made
    executable.

    - {b Convergence}: once every update is maintained, the view extent
      equals a full re-evaluation of the (current) view definition over the
      sources' current states.
    - {b Strong consistency} [20]: every committed view state equals the
      view definition {e at that commit} evaluated over a {e valid} source
      state vector, and those vectors advance monotonically in source-commit
      order — i.e. the view walks through real source states, in order,
      skipping none that it claimed to reflect.

    The strong check rolls the view's commit log forward: it applies each
    commit's logged change to its own copy of the extent the view was
    created with, and compares the result with the commit's definition
    evaluated over the source states the commit claims to reflect — per
    source, the highest version among the message ids maintained so far,
    read from [Dyno_source.Data_source.relation_at]'s forward replica.
    Claimed versions never decrease, so the replicas only roll forward
    and the check is linear in commits. *)

open Dyno_relational
open Dyno_view

type mismatch = {
  commit_index : int;
  at : float;
  reason : string;
}

type report = { checked : int; skipped : int; mismatches : mismatch list }

(* A commit without a logged change was never checked, so it cannot
   count as consistent. *)
let ok r = r.mismatches = [] && r.skipped = 0

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "consistent (%d commit(s) checked, %d skipped)" r.checked
      r.skipped
  else if r.mismatches = [] then
    Fmt.pf ppf
      "not checked: %d of %d commit(s) have no snapshot (snapshot tracking \
       off); %d checked"
      r.skipped (r.checked + r.skipped) r.checked
  else
    Fmt.pf ppf "@[<v>%d INCONSISTENT commit(s) of %d:@,%a@]"
      (List.length r.mismatches)
      r.checked
      Fmt.(
        list ~sep:cut (fun ppf m ->
            Fmt.pf ppf "  commit %d at %.3fs: %s" m.commit_index m.at m.reason))
      r.mismatches

(** [convergent w mv] — final-state check.  [Ok true] when the extent
    matches a recompute; [Error] when the view is invalid (nothing to
    check). *)
let convergent (w : Query_engine.t) (mv : Mat_view.t) :
    (bool, string) Stdlib.result =
  let vd = Mat_view.def mv in
  if not (View_def.is_valid vd) then Error "view is undefined"
  else
    let q = View_def.peek vd in
    try
      let env (tr : Query.table_ref) =
        match Query_engine.source_relation w ~source:tr.source ~rel:tr.rel with
        | Some r -> r
        | None ->
            raise (Eval.Error (Fmt.str "missing %s@%s" tr.rel tr.source))
      in
      let expected = Eval.run ~planner:(Query_engine.planner w) ~catalog:env q in
      Ok (Relation.equal expected (Mat_view.extent mv))
    with Eval.Error e -> Error e

(** [check_strong w mv] — roll every tracked commit forward and check it.

    For commit [k], the claimed source-state vector assigns each source
    the highest [source_version] among the messages maintained so far (or
    the initial version 0).  The commit is consistent iff every id it
    maintained was admitted by one of the engine's queues and the extent
    its logged change leads to equals the definition it was built on,
    evaluated over those states.  The last commit's extent must also
    equal the live one, which catches a change that bypassed the log.
    Commits without a logged change are skipped (snapshot tracking
    off). *)
let check_strong (w : Query_engine.t) (mv : Mat_view.t) : report =
  let admitted = Hashtbl.create 1024 in
  List.iter
    (fun q ->
      List.iter
        (fun m ->
          Hashtbl.replace admitted (Update_msg.id m)
            (Update_msg.source m, Update_msg.source_version m))
        (Umq.history q))
    (Query_engine.umqs w);
  let claimed = Hashtbl.create 8 in
  let version src = Option.value ~default:0 (Hashtbl.find_opt claimed src) in
  let env (tr : Query.table_ref) =
    Dyno_source.Data_source.relation_at
      (Dyno_source.Registry.find (Query_engine.registry w) tr.source)
      ~version:(version tr.source) tr.rel
  in
  let commits = Mat_view.commits mv in
  let last = List.length commits - 1 in
  (* The extent the log leads to ([None] when tracking is off). *)
  let extent = ref (Option.map Relation.copy (Mat_view.initial_extent mv)) in
  (* Commit [k]'s fault, if any, after rolling [extent] past it. *)
  let fault k (c : Mat_view.commit) (change, q) e =
    let e =
      match change with
      | Mat_view.Unchanged -> e
      | Mat_view.Delta d -> Relation.sum_in_place e d; e
      | Mat_view.Installed x -> Relation.copy x
    in
    extent := Some e;
    match
      List.filter (fun id -> not (Hashtbl.mem admitted id)) c.maintained
    with
    | _ :: _ as ids ->
        Some
          (Fmt.str "maintains message id(s) %a that no queue admitted"
             Fmt.(list ~sep:comma int)
             ids)
    | [] ->
        let expected =
          Eval.run ~planner:(Query_engine.planner w) ~catalog:env q
        in
        if not (Relation.equal expected e) then
          Some
            (Fmt.str
               "extent (%d tuples) differs from view over claimed source \
                states (%d tuples)"
               (Relation.cardinality e)
               (Relation.cardinality expected))
        else if k = last && not (Relation.equal e (Mat_view.extent mv)) then
          Some "live extent differs from the one the commit log leads to"
        else None
  in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref [] in
  List.iteri
    (fun k (c : Mat_view.commit) ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt admitted id with
          | Some (src, v) when v > version src -> Hashtbl.replace claimed src v
          | _ -> ())
        c.maintained;
      match (c.logged, !extent) with
      | Some logged, Some e -> (
          incr checked;
          match
            try fault k c logged e with
            | Eval.Error r | Failure r | Relation.Schema_mismatch r -> Some r
            | Dyno_source.Data_source.No_such_relation r ->
                Some (Fmt.str "relation %s absent at claimed version" r)
          with
          | Some reason ->
              mismatches :=
                { commit_index = k; at = c.at; reason } :: !mismatches
          | None -> ())
      | _ -> incr skipped)
    commits;
  { checked = !checked; skipped = !skipped; mismatches = List.rev !mismatches }
