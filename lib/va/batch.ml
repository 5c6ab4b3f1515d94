(** Maintenance of schema changes and of merged update batches (Section 5).

    A batch node holds cyclically-dependent updates — data updates and
    schema changes, possibly from several sources — that must be processed
    in one atomic maintenance step.  The pipeline is:

    + {b preprocess} — per relation, fold the schema changes into one net
      {!Dyno_relational.Schema_change.Delta} ("rename A to B" then "rename
      B to C" combines to "rename A to C") and re-project the interleaved
      data updates into the final schema so they merge into one homogeneous
      delta ("insert (3,4)", "drop first attribute", "insert (5)" →
      "insert (4),(5)");
    + {b synchronize} — rewrite the view definition once for the combined
      schema changes (producing e.g. the paper's Query (5) for the cyclic
      SC1/SC2 example);
    + {b adapt} — bring the extent in line: incrementally via Equation 6
      when the rewriting preserved the view's output schema, otherwise by
      compensated re-materialization.

    A single schema-change message is maintained as a singleton batch. *)

open Dyno_relational
open Dyno_view

type outcome =
  | Adapted  (** maintenance succeeded; view definition + extent updated *)
  | Aborted of Dyno_source.Data_source.broken
      (** an adaptation query broke (type (4) anomaly); the in-memory view
          definition has been rolled back *)
  | Unreachable of Dyno_net.Retry.unreachable
      (** an adaptation query exhausted its transport retry budget; the
          in-memory rewrite has been rolled back so the step can be re-run
          cleanly once the source recovers — transient, no correction *)
  | View_undefined of string
      (** synchronization found no rewriting; the view is invalid *)

(* ------------------------------------------------------------------ *)
(* Preprocessing (Section 5, step 1)                                   *)
(* ------------------------------------------------------------------ *)

type prep = {
  scs : Schema_change.t list;  (** all schema changes, in commit order *)
  du_deltas : (string * string * Relation.t) list;
      (** (source, relation name {e after} all changes, merged delta
          re-projected into the final schema) *)
  dropped_du_tuples : int;
      (** data-update tuples discarded because their relation was dropped *)
}

(** [preprocess msgs] runs the per-source, per-relation combination step.
    Data updates are carried forward through each subsequent schema change
    on their relation via {!Schema_change.Delta.project_delta}. *)
let preprocess (msgs : Update_msg.t list) : prep =
  (* (source, current rel name) -> (current schema, accumulated delta) *)
  let accum : (string * string, Schema.t * Relation.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let dropped = ref 0 in
  let scs = ref [] in
  List.iter
    (fun m ->
      match Update_msg.payload m with
      | Update_msg.Du u ->
          let key = (Update.source u, Update.rel u) in
          let schema = Update.schema u in
          (* Accumulators are private copies: later deltas add in place. *)
          (match Hashtbl.find_opt accum key with
          | Some (s, acc) ->
              if not (Schema.equal s schema) then
                (* Should not happen: an intervening SC re-keys the
                   entry and re-projects; a mismatch means the source
                   emitted an inconsistent delta. *)
                invalid_arg
                  (Fmt.str "batch: delta schema mismatch on %s" (snd key))
              else Relation.sum_in_place acc (Update.delta u)
          | None ->
              Hashtbl.replace accum key (schema, Relation.copy (Update.delta u)))
      | Update_msg.Sc sc -> (
          scs := sc :: !scs;
          let source = Schema_change.source sc in
          let key = (source, Schema_change.rel sc) in
          match Hashtbl.find_opt accum key with
          | None -> ()
          | Some (schema, acc) -> (
              Hashtbl.remove accum key;
              let step =
                Schema_change.Delta.of_changes ~source
                  ~rel:(Schema_change.rel sc) schema [ sc ]
              in
              if Schema_change.Delta.dropped_relation step then
                dropped := !dropped + Relation.mass acc
              else
                let acc' = Schema_change.Delta.project_delta step schema acc in
                let new_name =
                  match step.Schema_change.Delta.new_rel with
                  | Some n -> n
                  | None -> assert false
                in
                let schema' = Schema_change.Delta.apply_schema step schema in
                match Hashtbl.find_opt accum (source, new_name) with
                | None -> Hashtbl.replace accum (source, new_name) (schema', acc')
                | Some (s2, acc2) ->
                    (* A rename landed on a name that already accumulates
                       deltas (rename swap games); merge if compatible. *)
                    if Schema.equal s2 schema' then
                      Relation.sum_in_place acc2 acc'
                    else
                      invalid_arg
                        (Fmt.str "batch: rename collision on %s" new_name))))
    msgs;
  {
    scs = List.rev !scs;
    du_deltas =
      Hashtbl.fold (fun (src, rel) (_, d) acc -> (src, rel, d) :: acc) accum [];
    dropped_du_tuples = !dropped;
  }

(* ------------------------------------------------------------------ *)
(* Shape comparison: is the rewritten view delta-compatible?           *)
(* ------------------------------------------------------------------ *)

(** The Equation 6 refresh path applies only when the rewritten definition
    kept the same aliases and the same output schema — true for pure
    renames and pure data batches, false as soon as an attribute was
    dropped from the select list or a relation replaced. *)
let same_shape ~old_query ~old_schemas ~new_query ~new_schemas =
  try
    List.equal String.equal (Query.aliases old_query) (Query.aliases new_query)
    && Schema.equal
         (Dyno_vm.Maint_query.view_output_schema old_query old_schemas)
         (Dyno_vm.Maint_query.view_output_schema new_query new_schemas)
    && List.for_all2
         (fun (a : Query.table_ref) (b : Query.table_ref) ->
           String.equal a.source b.source)
         (Query.from old_query) (Query.from new_query)
  with _ -> false

(* ------------------------------------------------------------------ *)
(* The maintenance process M(SC) / M(batch)                            *)
(* ------------------------------------------------------------------ *)

(** [maintain w mv mk msgs] runs the full maintenance process for a batch
    (or singleton schema change): r(VD) w(VD) r(DS₁)…r(DSₙ) w(MV) c(MV).
    On a broken adaptation query the in-memory view definition rewrite is
    rolled back (the paper's footnote 1: the physical rewrite only happens
    at w(MV)) so the process can be cleanly re-run after correction. *)
let rec maintain ?(applied = []) (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) (msgs : Update_msg.t list) : outcome =
  let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
  let now () = Query_engine.now w in
  Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Batch
    (lazy (Fmt.str "batch of %d" (List.length msgs)))
    (fun batch_id ->
      let outcome = maintain_unspanned ~applied w mv mk msgs in
      Dyno_obs.Span.set_attr sp batch_id "msgs"
        (string_of_int (List.length msgs));
      Dyno_obs.Span.set_attr sp batch_id "outcome"
        (match outcome with
        | Adapted -> "adapted"
        | Aborted _ -> "aborted"
        | Unreachable _ -> "unreachable"
        | View_undefined _ -> "view-undefined");
      outcome)

and maintain_unspanned ~applied (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) (msgs : Update_msg.t list) : outcome =
  let vd = Mat_view.def mv in
  let saved = View_def.save vd in
  let saved_mk = Dyno_source.Meta_knowledge.save mk in
  let old_query, _ = View_def.read vd in
  let old_schemas = View_def.schemas vd in
  let ids = List.map Update_msg.id msgs in
  let exclude_ids = ids @ applied in
  let prep = preprocess msgs in
  let trace = Query_engine.trace w in
  if prep.dropped_du_tuples > 0 then
    Dyno_sim.Trace.record trace ~time:(Query_engine.now w) Dyno_sim.Trace.Info
      (lazy
        (Fmt.str "batch: %d DU tuple(s) absorbed by a relation drop"
           prep.dropped_du_tuples));
  (* Step 2: one synchronization for the combined schema changes. *)
  match
    Dyno_vs.Synchronizer.sync_many mk
      (Query_engine.registry w)
      ~query:old_query ~schemas:old_schemas prep.scs
  with
  | exception Dyno_vs.Synchronizer.Failed reason ->
      Dyno_obs.Span.with_span
        (Dyno_obs.Obs.spans (Query_engine.obs w))
        ~now:(fun () -> Query_engine.now w)
        Dyno_obs.Span.Vs (lazy "sync (failed)")
        (fun _ ->
          Query_engine.advance w
            (Dyno_sim.Cost_model.synchronize (Query_engine.cost w)));
      View_def.invalidate vd;
      Dyno_sim.Trace.record trace ~time:(Query_engine.now w)
        Dyno_sim.Trace.Sync
        (lazy
          (Fmt.str "view %s is now UNDEFINED: %s" (Query.name old_query)
             reason));
      View_undefined reason
  | sync ->
      if prep.scs <> [] then
        Dyno_obs.Span.with_span
          (Dyno_obs.Obs.spans (Query_engine.obs w))
          ~now:(fun () -> Query_engine.now w)
          Dyno_obs.Span.Vs
          (lazy (Fmt.str "sync %d SC(s)" (List.length prep.scs)))
          (fun _ ->
            Query_engine.advance w
              (float_of_int (List.length prep.scs)
              *. Dyno_sim.Cost_model.synchronize (Query_engine.cost w));
            View_def.write vd ~schemas:sync.Dyno_vs.Synchronizer.schemas
              sync.Dyno_vs.Synchronizer.query;
            List.iter
              (fun a ->
                Dyno_sim.Trace.record trace ~time:(Query_engine.now w)
                  Dyno_sim.Trace.Sync
                  (lazy (Fmt.str "%a" Dyno_vs.Synchronizer.pp_action a)))
              sync.Dyno_vs.Synchronizer.actions);
      let new_query = View_def.peek vd in
      let new_schemas = View_def.schemas vd in
      (* Fast path: the batch leaves the view definition untouched and
         carries no data (schema changes on relations the view does not
         read).  Acknowledge without adaptation. *)
      if
        prep.du_deltas = [] && new_query = old_query
        && new_schemas = old_schemas
      then begin
        Mat_view.record_commit mv ~at:(Query_engine.now w) ~maintained:ids;
        Adapted
      end
      else
      (* Step 3: adapt. *)
      let result =
        let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
        let t0 = Query_engine.now w in
        let r =
          if
            same_shape ~old_query ~old_schemas ~new_query ~new_schemas
          then
            Dyno_obs.Span.with_span sp
              ~now:(fun () -> Query_engine.now w)
              Dyno_obs.Span.Va (lazy "adapt (equation 6)")
              (fun _ ->
                let batch_deltas =
                  List.filter_map
                    (fun (tr : Query.table_ref) ->
                      List.find_map
                        (fun (src, rel, d) ->
                          if
                            String.equal src tr.source
                            && String.equal rel tr.rel
                            && not (Relation.is_empty d)
                          then Some (tr.alias, d)
                          else None)
                        prep.du_deltas)
                    (Query.from new_query)
                in
                Adapt.refresh_with_equation6 w mv ~maintained:ids
                  ~batch_deltas ~exclude:exclude_ids)
          else
            Dyno_obs.Span.with_span sp
              ~now:(fun () -> Query_engine.now w)
              Dyno_obs.Span.Va (lazy "adapt (re-materialize)")
              (fun _ ->
                Adapt.replace_extent w mv ~maintained:ids
                  ~exclude:exclude_ids)
        in
        Dyno_obs.Metrics.observe
          (Dyno_obs.Obs.metrics (Query_engine.obs w))
          "batch.adapt_s"
          (Query_engine.now w -. t0);
        r
      in
      (match result with
      | Ok () -> Adapted
      | Error f ->
          View_def.restore vd saved;
          Dyno_source.Meta_knowledge.restore mk saved_mk;
          (match f with
          | Query_engine.Broken b -> Aborted b
          | Query_engine.Unreachable u -> Unreachable u))
