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

    The strong check replays the commit log: the cumulative set of
    maintained message ids determines, per source, the version the view
    claims to reflect; the versioned stores of [Dyno_source.Data_source]
    reconstruct exactly that state. *)

open Dyno_relational
open Dyno_view

type mismatch = {
  commit_index : int;
  at : float;
  reason : string;
}

type report = { checked : int; skipped : int; mismatches : mismatch list }

(* A commit without a snapshot was never checked, so it cannot count as
   consistent. *)
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

(** [check_strong w mv] — replay every snapshot-tracked commit.

    For commit [k], the claimed source-state vector assigns each source the
    highest version among the maintained messages' [source_version]s seen
    so far (or the initial version 0).  The commit is consistent iff its
    snapshot equals its definition snapshot evaluated over those
    reconstructed states.  Commits without snapshots are skipped (snapshot
    tracking off). *)
let check_strong (w : Query_engine.t) (mv : Mat_view.t)
    ~(msg_index : (int * (string * int)) list) : report =
  (* [msg_index]: message id -> (source id, source_version). *)
  let versions : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let checked = ref 0 and skipped = ref 0 in
  let mismatches = ref [] in
  List.iteri
    (fun k (c : Mat_view.commit) ->
      (* Advance the claimed vector with this commit's maintained ids. *)
      List.iter
        (fun id ->
          match List.assoc_opt id msg_index with
          | None -> ()
          | Some (src, v) ->
              let cur = Option.value ~default:0 (Hashtbl.find_opt versions src) in
              if v > cur then Hashtbl.replace versions src v)
        c.Mat_view.maintained;
      match (c.Mat_view.snapshot, c.Mat_view.def_snapshot) with
      | Some extent, Some (q, _) -> (
          incr checked;
          try
            let env (tr : Query.table_ref) =
              let s =
                Dyno_source.Registry.find (Query_engine.registry w) tr.source
              in
              let v =
                Option.value ~default:0 (Hashtbl.find_opt versions tr.source)
              in
              Dyno_source.Data_source.relation_at s ~version:v tr.rel
            in
            let expected =
              Eval.run ~planner:(Query_engine.planner w) ~catalog:env q
            in
            if not (Relation.equal expected extent) then
              mismatches :=
                {
                  commit_index = k;
                  at = c.Mat_view.at;
                  reason =
                    Fmt.str
                      "extent (%d tuples) differs from view over claimed \
                       source states (%d tuples)"
                      (Relation.cardinality extent)
                      (Relation.cardinality expected);
                }
                :: !mismatches
          with
          | Eval.Error e | Failure e ->
              mismatches :=
                { commit_index = k; at = c.Mat_view.at; reason = e }
                :: !mismatches
          | Catalog.No_such_relation r ->
              mismatches :=
                {
                  commit_index = k;
                  at = c.Mat_view.at;
                  reason = Fmt.str "relation %s absent at claimed version" r;
                }
                :: !mismatches)
      | _ -> incr skipped)
    (Mat_view.commits mv);
  { checked = !checked; skipped = !skipped; mismatches = List.rev !mismatches }
