(** An autonomous data source: a small versioned relational store.

    Each source owns a {!Dyno_relational.Catalog.t} and the extents of its
    relations, commits data updates and schema changes {e autonomously}
    (they can never be aborted by the view manager — the root constraint of
    the paper), and answers maintenance queries {e against its current
    state}.  A query that references metadata the source no longer has is
    answered with [Error] — the broken query of Definition 2.

    The store is multi-versioned: every commit bumps the version and
    records enough information to reconstruct any past state
    ({!snapshot_at}).  Version history is what lets tests check strong
    consistency and lets view adaptation obtain pre-change states. *)

open Dyno_relational

type hist_entry =
  | H_du of { update : Update.t; time : float }
  | H_sc of {
      sc : Schema_change.t;
      time : float;
      saved_catalog : Catalog.t;  (** catalog before the change *)
      saved_rels : (string * Relation.t) list;
          (** pre-change copies of relations touched by the change *)
    }

type t = {
  id : string;
  catalog : Catalog.t;
  tables : (string, Relation.t) Hashtbl.t;
  mutable version : int;  (** bumped on every commit; 0 = initial state *)
  mutable history : (int * hist_entry) list;  (** newest first *)
  snapshots : (int, Catalog.t * (string, Relation.t) Hashtbl.t) Hashtbl.t;
      (** memoized past states, keyed by version.  A version's state never
          changes retroactively, so entries stay valid forever; keeping
          them alive means the indexes probes build on old extents survive
          across probes at the same version. *)
}

type broken = { source : string; query_name : string; reason : string }
(** Diagnosis of a broken maintenance query. *)

type answer = {
  rows : Relation.t;
  scanned : int;  (** total source tuples scanned to answer (cost input) *)
}

let create id =
  {
    id;
    catalog = Catalog.create ();
    tables = Hashtbl.create 8;
    version = 0;
    history = [];
    snapshots = Hashtbl.create 8;
  }

let id s = s.id
let catalog s = s.catalog
let version s = s.version

let relations s = Catalog.relations s.catalog

let relation s name =
  match Hashtbl.find_opt s.tables name with
  | Some r -> r
  | None -> raise (Catalog.No_such_relation name)

let relation_opt s name = Hashtbl.find_opt s.tables name

(** [add_relation s name schema] registers an empty base relation (initial
    load, not versioned as an update). *)
let add_relation s name schema =
  Catalog.add_relation s.catalog name schema;
  Hashtbl.replace s.tables name (Relation.create schema)

(** [load s name tuples] bulk-appends initial data (not versioned). *)
let load s name tuples =
  let r = relation s name in
  List.iter (fun t -> Relation.insert r (Tuple.of_list t)) tuples

let load_counted s name pairs =
  let r = relation s name in
  List.iter (fun (t, c) -> Relation.add r (Tuple.of_list t) c) pairs

(* ------------------------------------------------------------------ *)
(* Autonomous commits                                                 *)
(* ------------------------------------------------------------------ *)

exception Commit_rejected of string

let reject fmt = Fmt.kstr (fun s -> raise (Commit_rejected s)) fmt

(** [commit_du s ~time u] applies a data update; the delta schema must match
    the current schema of the target relation.  Returns the new version. *)
let commit_du s ~time (u : Update.t) =
  if not (String.equal (Update.source u) s.id) then
    reject "update targets source %s, not %s" (Update.source u) s.id;
  let rel_name = Update.rel u in
  (match Catalog.schema_of_opt s.catalog rel_name with
  | None -> reject "no relation %s at source %s" rel_name s.id
  | Some schema ->
      if not (Schema.equal schema (Relation.schema (Update.delta u))) then
        reject "delta schema %a does not match %s's current schema %a"
          Schema.pp
          (Relation.schema (Update.delta u))
          rel_name Schema.pp schema);
  let r = relation s rel_name in
  (* Autonomous sources apply their own committed writes unconditionally;
     a deletion of an absent tuple would be a source-side bug.  Applied in
     place — O(|delta|), and any indexes probes have built on the extent
     stay registered and are maintained incrementally. *)
  Relation.apply_delta_in_place r (Update.delta u);
  s.version <- s.version + 1;
  s.history <- (s.version, H_du { update = u; time }) :: s.history;
  s.version

(** Relations whose extent or schema a change touches (for snapshotting). *)
let touched_rels (sc : Schema_change.t) =
  match sc with
  | Rename_relation { old_name; _ } -> [ old_name ]
  | Drop_relation { name; _ } -> [ name ]
  | Add_relation _ -> []
  | Rename_attribute { rel; _ } | Drop_attribute { rel; _ }
  | Add_attribute { rel; _ } ->
      [ rel ]

(** [commit_sc s ~time sc] applies a schema change: catalog surgery plus the
    corresponding extent transformation.  Returns the new version. *)
let commit_sc s ~time (sc : Schema_change.t) =
  if not (String.equal (Schema_change.source sc) s.id) then
    reject "schema change targets source %s, not %s"
      (Schema_change.source sc) s.id;
  let saved_catalog = Catalog.copy s.catalog in
  let saved_rels =
    List.filter_map
      (fun n ->
        Option.map (fun r -> (n, Relation.copy r)) (relation_opt s n))
      (touched_rels sc)
  in
  (try Catalog.apply s.catalog sc
   with e -> reject "inapplicable schema change: %s" (Printexc.to_string e));
  (* Extent transformation mirroring the catalog change. *)
  (match sc with
  | Rename_relation { old_name; new_name; _ } ->
      let r = relation s old_name in
      Hashtbl.remove s.tables old_name;
      Hashtbl.replace s.tables new_name r
  | Drop_relation { name; _ } -> Hashtbl.remove s.tables name
  | Add_relation { name; schema; _ } ->
      Hashtbl.replace s.tables name (Relation.create schema)
  | Rename_attribute { rel; old_name; new_name; _ } ->
      Hashtbl.replace s.tables rel
        (Relation.rename_attr (relation s rel) ~old_name ~new_name)
  | Drop_attribute { rel; attr; _ } ->
      let r = relation s rel in
      let schema' = Catalog.schema_of s.catalog rel in
      let keep = Schema.names schema' in
      ignore attr;
      Hashtbl.replace s.tables rel (Relation.project r keep)
  | Add_attribute { rel; default; _ } ->
      let r = relation s rel in
      let schema' = Catalog.schema_of s.catalog rel in
      Hashtbl.replace s.tables rel
        (Relation.map_tuples schema' (fun t -> Tuple.append t default) r));
  s.version <- s.version + 1;
  s.history <- (s.version, H_sc { sc; time; saved_catalog; saved_rels }) :: s.history;
  s.version

(** [commit s ~time ev] dispatches a timeline event. *)
let commit s ~time (ev : Dyno_sim.Timeline.event) =
  match ev with
  | Dyno_sim.Timeline.Du u -> commit_du s ~time u
  | Dyno_sim.Timeline.Sc sc -> commit_sc s ~time sc

(* ------------------------------------------------------------------ *)
(* Query answering (with broken-query detection)                      *)
(* ------------------------------------------------------------------ *)

(** [answer s q ~bound] evaluates [q] against the source's {e current}
    state.  Table refs whose [source] field names this source are resolved
    in the local catalog; other aliases must be provided in [bound]
    (partial results shipped with the query, as SWEEP does).  [plan] is
    [q] as the view manager prepared it against the schemas it believes;
    it runs only if the bound relations' current schemas equal the
    prepared ones ({!Eval.execute} checks), and [q] is re-prepared here
    otherwise.  Any schema discrepancy — missing relation, missing
    attribute — yields [Error] rather than an exception: that is the
    in-exec broken-query signal. *)
let answer ?(planner : Eval.plan = `Indexed) ?plan s (q : Query.t)
    ~(bound : (string * Relation.t) list) : (answer, broken) result =
  let broken reason = Error { source = s.id; query_name = Query.name q; reason } in
  let missing =
    List.find_map
      (fun (tr : Query.table_ref) ->
        if List.mem_assoc tr.alias bound then None
        else if String.equal tr.source s.id then
          if not (Catalog.mem s.catalog tr.rel) then
            Some (Fmt.str "relation %s does not exist" tr.rel)
          else None
        else Some (Fmt.str "alias %s not bound and not local" tr.alias))
      (Query.from q)
  in
  match missing with
  | Some reason -> broken reason
  | None -> (
      let scanned = ref 0 in
      let env (tr : Query.table_ref) =
        match List.assoc_opt tr.alias bound with
        | Some r -> r
        | None ->
            let r = relation s tr.rel in
            scanned := !scanned + Relation.support r;
            r
      in
      let evaluate () =
        match plan with
        | None -> Eval.run ~planner ~catalog:env q
        | Some p -> Eval.execute ~planner p (List.map env (Query.from q))
      in
      match evaluate () with
      | rows -> Ok { rows; scanned = !scanned }
      | exception Eval.Error reason -> broken reason
      | exception Catalog.No_such_relation r ->
          broken (Fmt.str "relation %s does not exist" r))

(** [validate s q] — metadata-only dry run of query [q] against the
    current catalog: do the referenced local relations and attributes
    still exist?  Used by view adaptation to detect conflicts while it is
    still computing (the repeated source access of an Equation-6 style
    adaptation), without paying for another scan. *)
let validate s (q : Query.t) : (unit, broken) result =
  let broken reason =
    Error { source = s.id; query_name = Query.name q; reason }
  in
  let local_schemas =
    List.filter_map
      (fun (tr : Query.table_ref) ->
        if String.equal tr.source s.id then
          Some (tr.alias, Catalog.schema_of_opt s.catalog tr.rel, tr.rel)
        else None)
      (Query.from q)
  in
  match
    List.find_opt (fun (_, schema, _) -> schema = None) local_schemas
  with
  | Some (_, _, rel) -> broken (Fmt.str "relation %s does not exist" rel)
  | None -> (
      let has_attr alias attr =
        match
          List.find_opt (fun (a, _, _) -> String.equal a alias) local_schemas
        with
        | Some (_, Some schema, _) -> Schema.mem schema attr
        | _ -> true (* non-local alias: not this source's responsibility *)
      in
      let bad_ref =
        List.find_opt
          (fun (r : Attr.Qualified.t) ->
            match Attr.Qualified.rel r with
            | Some alias -> not (has_attr alias (Attr.Qualified.attr r))
            | None ->
                (* Unqualified: fine if any local relation has it or it may
                   belong to a non-local alias. *)
                not
                  (List.exists
                     (fun (_, schema, _) ->
                       match schema with
                       | Some sc -> Schema.mem sc (Attr.Qualified.attr r)
                       | None -> false)
                     local_schemas)
                && local_schemas <> []
                && List.length (Query.from q) = List.length local_schemas)
          (Query.all_refs q)
      in
      match bad_ref with
      | Some r ->
          broken (Fmt.str "attribute %a does not exist" Attr.Qualified.pp r)
      | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Version history                                                    *)
(* ------------------------------------------------------------------ *)

(** Full state of the source at [version]: a catalog copy plus every
    relation extent.  Reconstructed by undoing history newest-first, so it
    is exact (schema changes keep pre-images). *)
let snapshot_at_uncached s ~version =
  let catalog = ref (Catalog.copy s.catalog) in
  let tables = Hashtbl.copy s.tables in
  (* Deep-copy current extents so undo does not alias live data. *)
  Hashtbl.iter (fun k r -> Hashtbl.replace tables k (Relation.copy r)) s.tables;
  List.iter
    (fun (v, entry) ->
      if v > version then
        match entry with
        | H_du { update; _ } ->
            let rel_name = Update.rel update in
            let r = Hashtbl.find tables rel_name in
            Hashtbl.replace tables rel_name
              (Relation.sum r (Relation.negate (Update.delta update)))
        | H_sc { sc; saved_catalog; saved_rels; _ } ->
            catalog := Catalog.copy saved_catalog;
            (* Remove post-images of touched relations… *)
            (match sc with
            | Rename_relation { new_name; _ } -> Hashtbl.remove tables new_name
            | Add_relation { name; _ } -> Hashtbl.remove tables name
            | Drop_relation _ | Rename_attribute _ | Drop_attribute _
            | Add_attribute _ ->
                List.iter (fun (n, _) -> Hashtbl.remove tables n) saved_rels);
            (* …and restore pre-images. *)
            List.iter
              (fun (n, r) -> Hashtbl.replace tables n (Relation.copy r))
              saved_rels)
    s.history;
  (!catalog, tables)

(** Memoizing wrapper: a past version's state never changes retroactively
    (commits only append), so reconstructions are cached.  Repeated probes
    at the same old version — the strong-consistency replay, concurrent
    readers pinned to a snapshot — pay the undo walk once, and the indexes
    they build on the cached extents persist across probes.  Callers must
    treat the returned state as read-only. *)
let snapshot_at s ~version =
  if version > s.version || version < 0 then
    invalid_arg
      (Fmt.str "snapshot_at: version %d out of range [0..%d]" version s.version);
  match Hashtbl.find_opt s.snapshots version with
  | Some snap -> snap
  | None ->
      let snap = snapshot_at_uncached s ~version in
      (* Bound the cache: histories are long-lived but replays cluster on
         recent versions; dropping everything on overflow is simple and
         keeps the common monotone replay fast. *)
      if Hashtbl.length s.snapshots > 256 then Hashtbl.reset s.snapshots;
      Hashtbl.replace s.snapshots version snap;
      snap

(** [relation_at s ~version name] extent of [name] at [version].
    @raise Catalog.No_such_relation if absent at that version. *)
let relation_at s ~version name =
  let _, tables = snapshot_at s ~version in
  match Hashtbl.find_opt tables name with
  | Some r -> r
  | None -> raise (Catalog.No_such_relation name)

let history s = List.rev s.history

(** {2 Commit frontier}

    What the freshness/staleness tracker reads: when did this source
    commit a given version?  History is newest-first and versions are
    dense, so both lookups are cheap. *)

(** [commit_time_of_version s v] — the simulated time at which version
    [v] was committed; [None] for version 0 (initial load, not
    versioned) or a version this source never produced. *)
let commit_time_of_version s v =
  match List.assoc_opt v s.history with
  | Some (H_du { time; _ }) | Some (H_sc { time; _ }) -> Some time
  | None -> None

(** [last_commit_time s] — time of the newest commit, if any. *)
let last_commit_time s =
  match s.history with
  | (_, H_du { time; _ }) :: _ | (_, H_sc { time; _ }) :: _ -> Some time
  | [] -> None

let pp ppf s =
  Fmt.pf ppf "@[<v2>source %s (v%d):@,%a@]" s.id s.version Catalog.pp s.catalog

let pp_broken ppf (b : broken) =
  Fmt.pf ppf "broken query %s at %s: %s" b.query_name b.source b.reason
