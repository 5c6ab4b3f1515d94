(** The Update Message Queue (UMQ).

    Buffers update messages from the wrappers in arrival order; Dyno's
    correction step may {e reorder} it (that is the whole point of DYnamic
    reOrdering) and may {e merge} cyclically-dependent messages into batch
    entries that are maintained atomically.

    The queue also carries the two global flags of Figure 6/7:
    [new_schema_change] (set by the UMQ manager when an SC arrives, consumed
    test-and-set by the Dyno loop) and [broken_query] (set by the query
    engine's in-exec detection). *)

open Dyno_relational

type entry =
  | Single of Update_msg.t
  | Batch of Update_msg.t list
      (** merged cyclic updates, in their internal legal (commit) order *)

let entry_messages = function Single m -> [ m ] | Batch ms -> ms

let entry_ids e = List.map Update_msg.id (entry_messages e)

let entry_has_sc e = List.exists Update_msg.is_sc (entry_messages e)

let pp_entry ppf = function
  | Single m -> Update_msg.pp ppf m
  | Batch ms ->
      Fmt.pf ppf "BATCH{%a}" Fmt.(list ~sep:(any "; ") Update_msg.pp) ms

module Ids = Map.Make (Int)

(* The queued DUs of one (source, rel) that share a delta schema, with
   the signed sum of their deltas.  Ids grow with admission, and one
   source's messages are admitted in commit order, so ascending ids are
   also ascending commit times. *)
type group = {
  g_schema : Schema.t;
  g_sum : Relation.t;
  mutable g_dus : (Update_msg.t * Update.t) Ids.t;
  mutable g_count : int;
}

(* The DU index entry of one (source, rel).  Until compensation first
   reads the relation its DUs are a plain newest-first list: a shallow
   queue would otherwise pay a fresh sum per DU.  The read moves them
   into groups, one per delta schema in creation order, whose sums
   every admission and removal then keeps current.  At most one of the
   two is non-empty; the groups (sums included) go away with the
   relation's last pending DU.  Entries stay: one per relation seen. *)
type pending = {
  mutable listed : Update_msg.t list;
  mutable groups : group list;
}

type t = {
  mutable front : entry list;  (** head first *)
  mutable back : entry list;
      (** tail, newest first — appended O(1); the logical queue is
          [front @ List.rev back].  A million-update backlog (the scale
          bench) would otherwise pay O(n) per enqueue. *)
  mutable n_entries : int;
  ids : int ref;
      (** message-id counter.  Sharded worlds pass one shared counter to
          every shard's queue so ids stay globally unique (exclusion sets,
          the consistency checker's message index and the cross-shard
          commit order all key on them) and double as a global arrival
          order. *)
  mutable new_schema_change : bool;
  mutable broken_query : bool;
  mutable history : Update_msg.t list;
      (** every message ever enqueued, newest first (audit/consistency) *)
  du_index : (string * string, pending) Hashtbl.t;
      (** (source, rel) → queued DUs — the hot lookup of SWEEP
          compensation, kept incremental so probing does not scan the
          whole queue *)
  expected : (string, int) Hashtbl.t;
      (** per-source sequencer: next sequence number to admit *)
  held : (string, (int * (float * Update_msg.payload)) list) Hashtbl.t;
      (** per-source hold buffer for messages that arrived ahead of a gap:
          source version → (commit_time, payload), unsorted, small *)
  mutable dups_dropped : int;
  mutable reorders_healed : int;
}

let create ?ids () =
  {
    front = [];
    back = [];
    n_entries = 0;
    ids = (match ids with Some r -> r | None -> ref 0);
    new_schema_change = false;
    broken_query = false;
    history = [];
    du_index = Hashtbl.create 16;
    expected = Hashtbl.create 8;
    held = Hashtbl.create 8;
    dups_dropped = 0;
    reorders_healed = 0;
  }

(* Merge the back buffer into the front list.  Amortized O(1) per
   enqueued entry when the front is drained before forcing (the scheduler
   hot paths only read the queue's prefix); full-queue readers (detection,
   correction, pretty-printing) pay the concatenation. *)
let force_all q =
  if q.back <> [] then begin
    q.front <- q.front @ List.rev q.back;
    q.back <- []
  end

let index_key m =
  (Update_msg.source m, Update_msg.rel m)

let rec find_group schema = function
  | [] -> None
  | g :: rest ->
      if Schema.equal g.g_schema schema then Some g else find_group schema rest

let new_group m u =
  {
    g_schema = Update.schema u;
    g_sum = Relation.copy (Update.delta u);
    g_dus = Ids.singleton (Update_msg.id m) (m, u);
    g_count = 1;
  }

(* Add [m] to the groups [gs], in place when its schema has a group;
   returns the groups. *)
let group_add gs m u =
  match find_group (Update.schema u) gs with
  | Some g ->
      g.g_dus <- Ids.add (Update_msg.id m) (m, u) g.g_dus;
      g.g_count <- g.g_count + 1;
      Relation.sum_in_place g.g_sum (Update.delta u);
      gs
  | None -> gs @ [ new_group m u ]

(* Group DUs (oldest first) by delta schema, in first-seen order. *)
let groups_of dus = List.fold_left (fun gs (m, u) -> group_add gs m u) [] dus

(* The index is probed on every admission, removal and compensation
   read; [Hashtbl.find] allocates nothing on these paths. *)
let index_add q m =
  match Update_msg.payload m with
  | Update_msg.Sc _ -> ()
  | Update_msg.Du u -> (
      let k = index_key m in
      match Hashtbl.find q.du_index k with
      | exception Not_found ->
          Hashtbl.replace q.du_index k { listed = [ m ]; groups = [] }
      | p ->
          if p.groups = [] then p.listed <- m :: p.listed
          else p.groups <- group_add p.groups m u)

let index_remove q m =
  match Update_msg.payload m with
  | Update_msg.Sc _ -> ()
  | Update_msg.Du u -> (
      let id = Update_msg.id m in
      match Hashtbl.find q.du_index (index_key m) with
      | exception Not_found -> ()
      | p -> (
          if p.groups = [] then
            p.listed <- List.filter (fun x -> Update_msg.id x <> id) p.listed
          else
            match find_group (Update.schema u) p.groups with
            | Some g when Ids.mem id g.g_dus ->
                g.g_dus <- Ids.remove id g.g_dus;
                g.g_count <- g.g_count - 1;
                if g.g_count > 0 then
                  Relation.sum_in_place ~scale:(-1) g.g_sum (Update.delta u)
                else p.groups <- List.filter (fun g' -> g' != g) p.groups
            | _ -> ()))

let is_empty q = q.front = [] && q.back = []
let length q = q.n_entries

let entries q =
  force_all q;
  q.front

(** All messages currently queued, in queue order. *)
let messages q = List.concat_map entry_messages (entries q)

(** [enqueue q ~commit_time ~source_version payload] appends a new message,
    assigning its id; sets the schema-change flag for SCs (the UMQ manager
    of Figure 7). *)
let enqueue q ~commit_time ~source_version payload =
  let m =
    Update_msg.make ~id:!(q.ids) ~commit_time ~source_version payload
  in
  incr q.ids;
  q.back <- Single m :: q.back;
  q.n_entries <- q.n_entries + 1;
  q.history <- m :: q.history;
  index_add q m;
  if Update_msg.is_sc m then q.new_schema_change <- true;
  m

(** {2 Exactly-once sequencer}

    The transport layer may deliver a wrapper's messages late, twice, or
    out of order.  The UMQ manager restores the per-source FIFO discipline
    that SWEEP compensation and dependency-graph construction assume:
    every source message carries a monotone sequence number; the queue
    admits them strictly in sequence, dropping duplicates and holding
    early arrivals until the gap before them fills. *)

let dups_dropped q = q.dups_dropped
let reorders_healed q = q.reorders_healed

let delivered q source =
  match Hashtbl.find_opt q.expected source with
  | Some next -> next - 1
  | None -> 0

(** Queued-ahead-of-a-gap message count (diagnostic). *)
let held_count q = Hashtbl.fold (fun _ l acc -> acc + List.length l) q.held 0

(** [ensure_source q ~source ~first_seq] registers the first sequence
    number ever sent by [source], if not already known.  Called by the
    engine at the source's first commit — which necessarily precedes any
    delivery — so a reordered first message cannot be mistaken for being
    in-sequence. *)
let ensure_source q ~source ~first_seq =
  if not (Hashtbl.mem q.expected source) then
    Hashtbl.replace q.expected source first_seq

type delivery =
  | Admitted of Update_msg.t list
      (** the message (and any held successors it released), enqueued in
          sequence order *)
  | Duplicate  (** already admitted or already held — dropped *)
  | Held  (** arrived ahead of a gap — buffered until the gap fills *)

(** [deliver q ~source ~commit_time ~source_version payload] runs one
    arriving copy through the sequencer; [source_version] is its
    sequence number. *)
let deliver q ~source ~commit_time ~source_version payload =
  ensure_source q ~source ~first_seq:source_version;
  let expected = Hashtbl.find q.expected source in
  if source_version < expected then begin
    q.dups_dropped <- q.dups_dropped + 1;
    Duplicate
  end
  else if source_version > expected then begin
    let buf = Option.value ~default:[] (Hashtbl.find_opt q.held source) in
    if List.mem_assoc source_version buf then begin
      q.dups_dropped <- q.dups_dropped + 1;
      Duplicate
    end
    else begin
      Hashtbl.replace q.held source
        ((source_version, (commit_time, payload)) :: buf);
      Held
    end
  end
  else begin
    let first = enqueue q ~commit_time ~source_version payload in
    Hashtbl.replace q.expected source (source_version + 1);
    (* Drain the hold buffer: every consecutive successor is released. *)
    let rec drain acc =
      let next = Hashtbl.find q.expected source in
      let buf = Option.value ~default:[] (Hashtbl.find_opt q.held source) in
      match List.assoc_opt next buf with
      | None -> List.rev acc
      | Some (ct, pl) ->
          Hashtbl.replace q.held source (List.remove_assoc next buf);
          let m = enqueue q ~commit_time:ct ~source_version:next pl in
          Hashtbl.replace q.expected source (next + 1);
          q.reorders_healed <- q.reorders_healed + 1;
          drain (m :: acc)
    in
    Admitted (first :: drain [])
  end

let du_of m =
  match Update_msg.payload m with
  | Update_msg.Du u -> (m, u)
  | Update_msg.Sc _ -> assert false

(** [pending_dus q ~source ~rel] — queued, unmaintained data updates on
    [rel@source], in commit order. *)
let pending_dus q ~source ~rel =
  match Hashtbl.find_opt q.du_index (source, rel) with
  | None -> []
  | Some { listed; groups = [] } -> List.rev_map du_of listed
  | Some { groups; _ } ->
      List.fold_left
        (fun acc g -> Ids.union (fun _ a _ -> Some a) acc g.g_dus)
        Ids.empty groups
      |> Ids.bindings |> List.map snd

type pending_sum = { schema : Schema.t; sum : Relation.t; count : int }

(* The DUs of [g] compensation must leave out: every one committed after
   [after] (commit times ascend with ids, so these are the newest), and
   those named in [exclude]. *)
let left_out ?after g ~exclude =
  let later =
    match after with
    | None -> Ids.empty
    | Some t ->
        Ids.add_seq
          (Seq.take_while
             (fun (_, (m, _)) -> Update_msg.commit_time m > t)
             (Ids.to_rev_seq g.g_dus))
          Ids.empty
  in
  List.fold_left
    (fun acc id ->
      match Ids.find_opt id g.g_dus with
      | Some du -> Ids.add id du acc
      | None -> acc)
    later exclude

(* The relation's groups, built from its DU list on the first read. *)
let summed_groups q ~source ~rel =
  match Hashtbl.find q.du_index (source, rel) with
  | exception Not_found -> []
  | p ->
      if p.listed <> [] then begin
        p.groups <- groups_of (List.rev_map du_of p.listed);
        p.listed <- []
      end;
      p.groups

(* Group [g] as one compensation read sees it, with the DUs it leaves
   out; [None] when it leaves out every DU. *)
let read_group ?after ~exclude g =
  let out = left_out ?after g ~exclude in
  let count = g.g_count - Ids.cardinal out in
  if count = 0 then None
  else
    let sum =
      if Ids.is_empty out then g.g_sum
      else begin
        let s = Relation.copy g.g_sum in
        Ids.iter
          (fun _ (_, u) -> Relation.sum_in_place ~scale:(-1) s (Update.delta u))
          out;
        s
      end
    in
    Some (g, out, { schema = g.g_schema; sum; count })

(** [pending_sums ?after q ~source ~rel ~exclude] — the queued DUs on
    [rel@source] that compensation subtracts, summed per delta schema.
    Left out (their effects stay in the answer): the ids in [exclude],
    and with [after] every DU committed after that instant.  The first
    call groups the relation's DUs and sums them; later admissions and
    removals keep the sums current, so a read costs O(left-out DUs), not
    O(queue depth).  A group with nothing left out returns the queue's
    live sum (read it before the clock can move, never mutate it);
    otherwise a private copy minus what is left out.  Groups with no DU
    left are skipped; the rest come in the order of their oldest
    remaining DU. *)
let pending_sums ?after q ~source ~rel ~exclude =
  match summed_groups q ~source ~rel with
  | [] -> []
  | [ g ] -> (
      match read_group ?after ~exclude g with
      | None -> []
      | Some (_, _, ps) -> [ ps ])
  | gs ->
      let oldest (g, out, _) =
        Seq.find_map
          (fun (id, _) -> if Ids.mem id out then None else Some id)
          (Ids.to_seq g.g_dus)
      in
      List.filter_map (read_group ?after ~exclude) gs
      |> List.map (fun k -> (oldest k, k))
      |> List.sort (fun (a, _) (b, _) -> Option.compare Int.compare a b)
      |> List.map (fun (_, (_, _, ps)) -> ps)

(** Every message ever enqueued, in arrival order. *)
let history q = List.rev q.history

let head q =
  if q.front = [] then force_all q;
  match q.front with [] -> None | e :: _ -> Some e

let remove_head q =
  if q.front = [] then force_all q;
  match q.front with
  | [] -> ()
  | e :: rest ->
      List.iter (index_remove q) (entry_messages e);
      q.front <- rest;
      q.n_entries <- q.n_entries - 1

(** [remove_entry q e] removes the first queued entry carrying exactly
    [e]'s message-id set, wherever it sits — a parallel round maintains
    an antichain of entries that need not be a queue prefix.  No-op when
    absent. *)
let remove_entry q e =
  let target = List.sort compare (entry_ids e) in
  let removed = ref false in
  let rec go = function
    | [] -> []
    | e' :: rest ->
        if (not !removed) && List.sort compare (entry_ids e') = target
        then begin
          removed := true;
          List.iter (index_remove q) (entry_messages e');
          rest
        end
        else e' :: go rest
  in
  q.front <- go q.front;
  if not !removed then q.back <- List.rev (go (List.rev q.back));
  if !removed then q.n_entries <- q.n_entries - 1

(** [replace q entries] installs a corrected (reordered / merged) queue.
    The multiset of message ids must be preserved — correction may neither
    drop nor invent updates (sources cannot abort).
    @raise Invalid_argument otherwise. *)
let replace q new_entries =
  let ids es = List.sort compare (List.concat_map entry_ids es) in
  if ids new_entries <> ids (entries q) then
    invalid_arg "Umq.replace: correction must preserve the set of updates";
  q.front <- new_entries;
  q.back <- [];
  q.n_entries <- List.length new_entries

(* Flag protocol of Figure 6 (atomic in the paper; the simulation is
   single-threaded so plain reads/writes suffice). *)

(** Test-and-clear, as in [Test_If_True_Set_False]. *)
let test_and_clear_schema_change_flag q =
  let v = q.new_schema_change in
  q.new_schema_change <- false;
  v

let peek_schema_change_flag q = q.new_schema_change

let set_broken_query_flag q = q.broken_query <- true
let clear_broken_query_flag q = q.broken_query <- false
let broken_query_flag q = q.broken_query

let pp ppf q =
  Fmt.pf ppf "@[<v>UMQ (%d entries)%s%s:@,%a@]" (length q)
    (if q.new_schema_change then " [SC-flag]" else "")
    (if q.broken_query then " [broken-flag]" else "")
    Fmt.(list ~sep:cut pp_entry)
    (entries q)
