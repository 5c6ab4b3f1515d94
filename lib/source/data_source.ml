(** An autonomous data source: a small versioned relational store.

    Each source owns a {!Dyno_relational.Catalog.t} and the extents of its
    relations, commits data updates and schema changes {e autonomously}
    (they can never be aborted by the view manager — the root constraint of
    the paper), and answers maintenance queries {e against its current
    state}.  A query that references metadata the source no longer has is
    answered with [Error] — the broken query of Definition 2.

    The store is multi-versioned: every commit bumps the version and
    appends the change to a log ([log.(v - 1)] produced version [v]).
    Past states are rolled {e forward} from a copy of version 0 taken just
    before the first commit, into one private replica ({!relation_at}).

    An adaptation's fetch of a relation's columns is answered with the
    live extent itself, {e pinned} ({!fetch}): a commit about to touch a
    pinned extent first swaps the live state onto a copy of it, so what
    was fetched never changes, and is copied only when a commit lands on
    it before the adaptation releases it ({!unpin}). *)

open Dyno_relational

(* A catalog with the extents of its relations, at a version. *)
type state = {
  catalog : Catalog.t;
  tables : (string, Relation.t) Hashtbl.t;
  mutable version : int;  (** bumped on every commit; 0 = initial state *)
}

type t = {
  id : string;
  live : state;
  mutable log : (float * Dyno_sim.Timeline.event) array;
      (** commit time and change; the first [live.version] slots are used *)
  mutable v0 : state option;  (** version 0, kept from the first commit on *)
  mutable replica : state option;  (** past state last asked for *)
  mutable pins : Relation.t list;
      (** live extents lent to adaptations by {!fetch}, once per fetch *)
}

type broken = { source : string; query_name : string; reason : string }
(** Diagnosis of a broken maintenance query. *)

type answer = {
  rows : Rows.t;  (** consolidated: flat, or hashed when it had to be *)
  scanned : int;  (** total source tuples scanned to answer (cost input) *)
}

let create id =
  {
    id;
    live =
      { catalog = Catalog.create (); tables = Hashtbl.create 8; version = 0 };
    log = [||];
    v0 = None;
    replica = None;
    pins = [];
  }

let id s = s.id
let catalog s = s.live.catalog
let version s = s.live.version

let table st name =
  match Hashtbl.find_opt st.tables name with
  | Some r -> r
  | None -> raise (Catalog.No_such_relation name)

let relation s name = table s.live name
let relation_opt s name = Hashtbl.find_opt s.live.tables name

(** [add_relation s name schema] registers an empty base relation (initial
    load, not versioned as an update). *)
let add_relation s name schema =
  Catalog.add_relation s.live.catalog name schema;
  Hashtbl.replace s.live.tables name (Relation.create schema)

(** [load s name tuples] bulk-appends initial data (not versioned). *)
let load s name tuples =
  let r = relation s name in
  List.iter (fun t -> Relation.insert r (Tuple.of_list t)) tuples

let load_counted s name pairs =
  let r = relation s name in
  List.iter (fun (t, c) -> Relation.add r (Tuple.of_list t) c) pairs

(** [apply_sc st sc] — catalog surgery plus the extent transformation
    mirroring it.  Commits and replay both call it.  A new or dropped
    attribute keeps the relation's indexes, bar one keyed on the dropped
    column. *)
let apply_sc st (sc : Schema_change.t) =
  Catalog.apply st.catalog sc;
  match sc with
  | Rename_relation { old_name; new_name; _ } ->
      let r = table st old_name in
      Hashtbl.remove st.tables old_name;
      Hashtbl.replace st.tables new_name r
  | Drop_relation { name; _ } -> Hashtbl.remove st.tables name
  | Add_relation { name; schema; _ } ->
      Hashtbl.replace st.tables name (Relation.create schema)
  | Rename_attribute { rel; old_name; new_name; _ } ->
      Hashtbl.replace st.tables rel
        (Relation.rename_attr (table st rel) ~old_name ~new_name)
  | Drop_attribute { rel; _ } ->
      Hashtbl.replace st.tables rel
        (Relation.project ~keep_indexes:true (table st rel)
           (Schema.names (Catalog.schema_of st.catalog rel)))
  | Add_attribute { rel; default; _ } ->
      Hashtbl.replace st.tables rel
        (Relation.map_tuples ~keys:Option.some
           (Catalog.schema_of st.catalog rel)
           (fun t -> Tuple.append t default)
           (table st rel))

(* Deltas apply in place — O(|delta|), and any indexes probes have built
   on the extent stay registered and are maintained incrementally. *)
let step st (ev : Dyno_sim.Timeline.event) =
  (match ev with
  | Dyno_sim.Timeline.Du u ->
      Relation.apply_delta_in_place (table st (Update.rel u)) (Update.delta u)
  | Dyno_sim.Timeline.Sc sc -> apply_sc st sc);
  st.version <- st.version + 1

let copy_state st =
  let tables = Hashtbl.create (Hashtbl.length st.tables) in
  Hashtbl.iter
    (fun k r -> Hashtbl.replace tables k (Relation.copy r))
    st.tables;
  { catalog = Catalog.copy st.catalog; tables; version = st.version }

(* ------------------------------------------------------------------ *)
(* Autonomous commits                                                 *)
(* ------------------------------------------------------------------ *)

exception Commit_rejected of string

let reject fmt = Fmt.kstr (fun s -> raise (Commit_rejected s)) fmt

(* A commit about to touch a pinned extent — a DU mutates it in place,
   an SC re-schemes it or moves it ({!Relation.rename_attr} shares its
   table) — first swaps the live state onto a copy: the pinned relation
   stays exactly as fetched, and no pin holds the copy. *)
let unshare s ev =
  let rel =
    match ev with
    | Dyno_sim.Timeline.Du u -> Update.rel u
    | Dyno_sim.Timeline.Sc sc -> Schema_change.rel sc
  in
  match Hashtbl.find_opt s.live.tables rel with
  | Some r when List.memq r s.pins ->
      Hashtbl.replace s.live.tables rel (Relation.copy r);
      s.pins <- List.filter (fun p -> p != r) s.pins
  | _ -> ()

(* Apply a validated change to the live state and log it.  The first
   commit keeps a copy of version 0 before it mutates anything; a commit
   touching a pinned extent unshares it first. *)
let record s ~time ev =
  if s.v0 = None then s.v0 <- Some (copy_state s.live);
  (match s.pins with [] -> () | _ -> unshare s ev);
  step s.live ev;
  let n = s.live.version in
  if n > Array.length s.log then begin
    let grown = Array.make (max 16 (2 * n)) (time, ev) in
    Array.blit s.log 0 grown 0 (n - 1);
    s.log <- grown
  end;
  s.log.(n - 1) <- (time, ev);
  n

(** [commit_du s ~time u] applies a data update; the delta schema must match
    the current schema of the target relation, and the delta may delete
    no more copies of a tuple than the relation holds.  Returns the new
    version. *)
let commit_du s ~time (u : Update.t) =
  if not (String.equal (Update.source u) s.id) then
    reject "update targets source %s, not %s" (Update.source u) s.id;
  let rel_name = Update.rel u in
  (match Catalog.schema_of_opt s.live.catalog rel_name with
  | None -> reject "no relation %s at source %s" rel_name s.id
  | Some schema ->
      if not (Schema.equal schema (Relation.schema (Update.delta u))) then
        reject "delta schema %a does not match %s's current schema %a"
          Schema.pp
          (Relation.schema (Update.delta u))
          rel_name Schema.pp schema);
  (* The extent's non-negativity precheck runs before it mutates
     anything, so a rejected delta leaves the source as it was. *)
  try record s ~time (Dyno_sim.Timeline.Du u)
  with Invalid_argument reason -> reject "%s" reason

(** [commit_sc s ~time sc] applies a schema change: catalog surgery plus the
    corresponding extent transformation.  Returns the new version. *)
let commit_sc s ~time (sc : Schema_change.t) =
  if not (String.equal (Schema_change.source sc) s.id) then
    reject "schema change targets source %s, not %s"
      (Schema_change.source sc) s.id;
  (* Validate on a copy: a rejected change mutates nothing. *)
  (try Catalog.apply (Catalog.copy s.live.catalog) sc
   with e -> reject "inapplicable schema change: %s" (Printexc.to_string e));
  record s ~time (Dyno_sim.Timeline.Sc sc)

(** [commit s ~time ev] dispatches a timeline event. *)
let commit s ~time (ev : Dyno_sim.Timeline.event) =
  match ev with
  | Dyno_sim.Timeline.Du u -> commit_du s ~time u
  | Dyno_sim.Timeline.Sc sc -> commit_sc s ~time sc

(* ------------------------------------------------------------------ *)
(* Query answering (with broken-query detection)                      *)
(* ------------------------------------------------------------------ *)

(* A FROM entry the source cannot bind, with the reason. *)
exception Unbound of string

(* The rows shipped with the query under [alias]. *)
let rec shipped alias = function
  | [] -> None
  | (a, rows) :: rest -> if String.equal a alias then Some rows else shipped alias rest

(** [answer s q ~bound] evaluates [q] against the source's {e current}
    state.  Table refs whose [source] field names this source are resolved
    in the local catalog; other aliases must be provided in [bound]
    (partial results shipped with the query, as SWEEP does).  [plan] is
    [q] as the view manager prepared it against the schemas it believes;
    it runs only if the bound relations' current schemas equal the
    prepared ones ({!Eval.execute_rows} checks), and [q] is re-prepared
    otherwise.  Any schema discrepancy — missing relation, missing
    attribute — yields [Error] rather than an exception: that is the
    in-exec broken-query signal.  The answer's rows are the evaluator's
    ({!Eval.execute_rows}): the caller's own, and consolidated. *)
let answer ?(planner : Eval.plan = `Indexed) ?plan s (q : Query.t)
    ~(bound : (string * Rows.t) list) : (answer, broken) result =
  let broken reason = Error { source = s.id; query_name = Query.name q; reason } in
  let scanned = ref 0 in
  (* One pass over the FROM list: shipped rows by alias, else a local
     relation. *)
  let rec bind = function
    | [] -> []
    | (tr : Query.table_ref) :: rest ->
        let rows =
          match shipped tr.alias bound with
          | Some rows -> rows
          | None when not (String.equal tr.source s.id) ->
              raise
                (Unbound (Fmt.str "alias %s not bound and not local" tr.alias))
          | None -> (
              match Hashtbl.find_opt s.live.tables tr.rel with
              | Some r ->
                  scanned := !scanned + Relation.support r;
                  Rows.of_relation r
              | None ->
                  raise (Unbound (Fmt.str "relation %s does not exist" tr.rel)))
        in
        rows :: bind rest
  in
  match bind (Query.from q) with
  | exception Unbound reason -> broken reason
  | inputs -> (
      let plan () =
        match plan with
        | Some p -> p
        | None ->
            Eval.prepare q
              (List.map2
                 (fun (tr : Query.table_ref) rows -> (tr.alias, Rows.schema rows))
                 (Query.from q) inputs)
      in
      match Eval.execute_rows ~planner (plan ()) inputs with
      | rows -> Ok { rows; scanned = !scanned }
      | exception Eval.Error reason -> broken reason)

(** [fetch s q] answers an adaptation's fetch: [q] reads one local
    relation, no rows shipped.  A query selecting the relation's columns
    under no predicate is answered with the live extent itself, pinned
    until {!unpin}: as it stands when it selects every column in order
    under its own names, seen through the projection when that merges
    no two tuples.  Any other fetch is an ordinary {!answer}. *)
let fetch ?(planner : Eval.plan = `Indexed) s (q : Query.t) =
  let pin r rows =
    s.pins <- r :: s.pins;
    Ok { rows; scanned = Relation.support r }
  in
  match Query.from q with
  | [ tr ] when String.equal tr.source s.id -> (
      match Hashtbl.find_opt s.live.tables tr.rel with
      | None -> answer ~planner s q ~bound:[]
      | Some r -> (
          match Eval.prepare q [ (tr.alias, Relation.schema r) ] with
          | exception Eval.Error _ -> answer ~planner s q ~bound:[]
          | p -> (
              let out = Eval.output_schema p in
              match Eval.columns p with
              | Some _
                when Eval.is_identity p && Schema.equal out (Relation.schema r) ->
                  pin r (Rows.of_relation r)
              | Some cols when Relation.injective_on r cols ->
                  pin r (Rows.projected r cols out)
              | _ -> answer ~planner ~plan:p s q ~bound:[])))
  | _ -> answer ~planner s q ~bound:[]

(** [unpin s r] releases one pin of [r]; an [r] that is not pinned (an
    answer the caller owns, or an extent a commit already swapped out)
    is left alone. *)
let unpin s r =
  let rec drop = function
    | [] -> []
    | p :: rest -> if p == r then rest else p :: drop rest
  in
  match s.pins with [] -> () | pins -> s.pins <- drop pins

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
          Some (tr.alias, Catalog.schema_of_opt s.live.catalog tr.rel, tr.rel)
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

(** [relation_at s ~version name] extent of [name] at [version], read
    from the source's one replica: rolled forward in place when it is at
    or behind [version] (its indexes survive), rebuilt from version 0
    when it is ahead.  The result stays valid only until the next
    [relation_at] on [s].
    @raise Catalog.No_such_relation if absent at that version. *)
let relation_at s ~version name =
  if version > s.live.version || version < 0 then
    invalid_arg
      (Fmt.str "relation_at: version %d out of range [0..%d]" version
         s.live.version);
  let r =
    match s.replica with
    | Some r when r.version <= version -> r
    | _ ->
        let r = copy_state (Option.value s.v0 ~default:s.live) in
        s.replica <- Some r;
        r
  in
  while r.version < version do
    step r (snd s.log.(r.version))
  done;
  table r name

(** [commit_time_of_version s v] — the simulated time at which version
    [v] was committed; [None] for version 0 (initial load, not
    versioned) or a version this source never produced.  The
    freshness/staleness tracker's commit-frontier read. *)
let commit_time_of_version s v =
  if v >= 1 && v <= s.live.version then Some (fst s.log.(v - 1)) else None

let pp_broken ppf (b : broken) =
  Fmt.pf ppf "broken query %s at %s: %s" b.query_name b.source b.reason
