(** The auxiliary-view store: materialized probe-column projections kept
    current at the view manager, so most data updates are maintained with
    zero probe round trips.

    {b Contents invariant.}  A valid projection holds exactly
    [π_attrs (R₀ + Σ delivered DUs)] of its relation — the source's
    initial state plus every update the exactly-once sequencer has
    admitted into a UMQ, i.e. the relation at the per-source {e delivered
    frontier}.  The store is fed for free from the admitted stream (the
    updates already ride the wire for the UMQ): each admitted DU's delta
    is projected and applied in place before the scheduler ever sees the
    entry.  This is precisely the state a SWEEP probe would observe
    {e after} compensation, so the local path in
    {!Dyno_vm.Sweep.delta_view_local} subtracts all pending unmaintained
    updates (no answer-time cutoff) and lands on the identical view
    delta.

    {b Invalidation.}  A schema change invalidates every projection of
    its source the moment it is admitted: the projected columns may be
    renamed or dropped, and the view definition itself is about to be
    rewritten by VS/VA.  Projections of a source stay invalid while
    {e any} schema change of that source is still queued (an eager
    re-seed could answer locally where the baseline would probe into the
    conflict and abort); once the queue holds none, [sync] re-derives the
    source's descriptors from the — by then rewritten — view definition
    and re-seeds them from the source's state at the delivered frontier,
    read from its forward replica.  That state is exact and excludes
    committed but undelivered updates, which neither the
    probed-then-compensated path nor the local path may see. *)

open Dyno_relational
module Obs = Dyno_obs.Obs
module Metrics = Dyno_obs.Metrics
open Dyno_view

type proj = {
  def : Aux_plan.aux_def;
  mutable data : Relation.t option;  (** [None] = invalidated *)
}

type t = {
  obs : Dyno_obs.Obs.t;
  lookup : source:string -> rel:string -> version:int -> Relation.t option;
  coverage_key : string;  (** the per-view [selfmaint.<view>.coverage] gauge *)
  refresh_cost : delta_tuples:int -> float;
  frontier : (string, int) Hashtbl.t;
      (** per-source delivered frontier: highest admitted source version *)
  mutable projs : proj list;
  mutable dirty : bool;  (** any projection invalid — [sync] has work *)
  mutable invalidations : int;  (** projections invalidated by SCs *)
}

let invalidations t = t.invalidations

let coverage t =
  match t.projs with
  | [] -> 0.0
  | ps ->
      let valid =
        List.fold_left
          (fun n p -> if p.data = None then n else n + 1)
          0 ps
      in
      float_of_int valid /. float_of_int (List.length ps)

let gauge_coverage t =
  Metrics.set_gauge (Obs.metrics t.obs) t.coverage_key (coverage t)

let delivered_frontier t source =
  Option.value (Hashtbl.find_opt t.frontier source) ~default:0

(* Seed (or re-seed) one projection from the source state at the
   delivered frontier.  A missing source, out-of-range version or a
   projected attribute absent from that state's schema leaves the
   projection invalid — maintenance falls back to probing. *)
let seed t (def : Aux_plan.aux_def) =
  let version = delivered_frontier t def.Aux_plan.source in
  let data =
    match
      t.lookup ~source:def.Aux_plan.source ~rel:def.Aux_plan.rel ~version
    with
    | None -> None
    | Some r ->
        let s = Relation.schema r in
        if List.for_all (Schema.mem s) def.Aux_plan.attrs then
          Some (Relation.project r def.Aux_plan.attrs)
        else None
  in
  { def; data }

let create ~obs ~lookup ~frontier ~refresh_cost (mv : Mat_view.t) =
  let defs = Aux_plan.derive mv in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Aux_plan.aux_def) ->
      if not (Hashtbl.mem tbl d.Aux_plan.source) then
        Hashtbl.replace tbl d.Aux_plan.source (frontier d.Aux_plan.source))
    defs;
  let t =
    {
      obs;
      lookup;
      coverage_key =
        Fmt.str "selfmaint.%s.coverage" (View_def.name (Mat_view.def mv));
      refresh_cost;
      frontier = tbl;
      projs = [];
      dirty = false;
      invalidations = 0;
    }
  in
  t.projs <- List.map (seed t) defs;
  t.dirty <- List.exists (fun p -> p.data = None) t.projs;
  gauge_coverage t;
  t

let invalidate t p =
  if p.data <> None then begin
    p.data <- None;
    t.invalidations <- t.invalidations + 1;
    Metrics.incr (Obs.metrics t.obs) "selfmaint.invalidations"
  end;
  t.dirty <- true

(* The admit hook: called once per message the exactly-once sequencer
   admits into a UMQ (post-dedup, in per-source order), before the
   scheduler sees the entry. *)
let on_message t (m : Update_msg.t) =
  let src = Update_msg.source m in
  (if Hashtbl.mem t.frontier src then
     let prev = delivered_frontier t src in
     Hashtbl.replace t.frontier src (max prev (Update_msg.source_version m)));
  match Update_msg.payload m with
  | Update_msg.Sc _ ->
      let touched = ref false in
      List.iter
        (fun p ->
          if String.equal p.def.Aux_plan.source src then begin
            invalidate t p;
            touched := true
          end)
        t.projs;
      if !touched then gauge_coverage t
  | Update_msg.Du u ->
      let rel = Update.rel u in
      List.iter
        (fun p ->
          if
            String.equal p.def.Aux_plan.source src
            && String.equal p.def.Aux_plan.rel rel
          then
            match p.data with
            | None -> ()
            | Some d -> (
                let delta = Update.delta u in
                let s = Relation.schema delta in
                if not (List.for_all (Schema.mem s) p.def.Aux_plan.attrs)
                then invalidate t p
                else
                  let pd = Relation.project delta p.def.Aux_plan.attrs in
                  match Relation.apply_delta_in_place d pd with
                  | () ->
                      (* The refresh rides the delivered update — no wire
                         cost, no clock charge; its estimated local cost
                         is observed so the saving is auditable. *)
                      let mx = Obs.metrics t.obs in
                      Metrics.incr mx "selfmaint.aux_refresh";
                      Metrics.observe mx "selfmaint.aux_refresh_s"
                        (t.refresh_cost ~delta_tuples:(Relation.mass pd))
                  | exception Invalid_argument _ ->
                      (* Negative residue: the delta stream does not match
                         the seeded state (should not happen under the
                         exactly-once sequencer) — drop to the probed
                         path rather than serve wrong answers. *)
                      invalidate t p))
        t.projs

(* Re-derive and re-seed the projections of every invalidated source that
   no longer has a schema change queued.  Cheap no-op unless an SC
   invalidated something since the last call. *)
let sync t (mv : Mat_view.t) ~(sc_queued : string -> bool) =
  if t.dirty then begin
    let dirty_sources =
      List.sort_uniq String.compare
        (List.filter_map
           (fun p ->
             if p.data = None then Some p.def.Aux_plan.source else None)
           t.projs)
    in
    let cleared = List.filter (fun s -> not (sc_queued s)) dirty_sources in
    if cleared <> [] then begin
      let defs = Aux_plan.derive mv in
      List.iter
        (fun src ->
          let keep =
            List.filter
              (fun p -> not (String.equal p.def.Aux_plan.source src))
              t.projs
          in
          let fresh =
            List.filter_map
              (fun (d : Aux_plan.aux_def) ->
                if String.equal d.Aux_plan.source src then Some (seed t d)
                else None)
              defs
          in
          t.projs <- keep @ fresh)
        cleared;
      t.dirty <- List.exists (fun p -> p.data = None) t.projs;
      gauge_coverage t
    end
  end

let aux t alias =
  List.find_map
    (fun p ->
      if String.equal p.def.Aux_plan.alias alias then p.data else None)
    t.projs

let local t : Dyno_vm.Sweep.local =
  {
    Dyno_vm.Sweep.aux = (fun alias -> aux t alias);
    note_avoided =
      (fun ~probes ~bytes ->
        let mx = Obs.metrics t.obs in
        Metrics.incr mx ~by:probes "selfmaint.probes_avoided";
        Metrics.incr mx ~by:bytes "selfmaint.bytes_saved");
  }
