(** Dependency correction (Section 4.2): reorder the UMQ into a legal
    order.

    Cycles in the dependency graph (maintenance deadlocks) cannot be broken
    by aborting a participant — source updates are already committed and
    unabortable — so they are {e merged} into batch nodes processed
    atomically by the batch view-adaptation algorithm; the condensed graph
    is then topologically sorted.  By Theorem 2 the resulting order has all
    dependencies safe, so (Theorem 1) no broken query can arise from the
    updates currently queued. *)

open Dyno_view

type report = {
  reordered : bool;  (** the queue order actually changed *)
  merged_cycles : int;
  merged_updates : int;
  merged_members : int list list;
      (** message ids of each collapsed cycle — merge provenance *)
  nodes : int;
  edges : int;
}

let rec drop n l =
  match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

(** [order entries g] — the legal order of [entries], the list [g] was
    built over or a list that extends it, and what correcting changed.

    Detection charges its time on the simulated clock, and a delivery
    falling due meanwhile appends to the queue, so [g]'s entries may be
    only a prefix of [entries].  The entries admitted since follow the
    corrected order, in arrival order; an admitted SC has set the
    schema-change flag, so the next pass corrects them.  A merged cycle
    changes the entries even where the message order stays. *)
let order (entries : Umq.entry list) (g : Dep_graph.t) :
    Umq.entry list * report =
  let c = Dep_graph.correct g in
  let n = Dep_graph.size g in
  let order =
    if List.length entries = n then c.Dep_graph.order
    else c.Dep_graph.order @ drop n entries
  in
  let reordered =
    List.length entries <> List.length order
    || List.exists2
         (fun a b -> Umq.entry_ids a <> Umq.entry_ids b)
         entries order
  in
  ( order,
    {
      reordered;
      merged_cycles = c.Dep_graph.merged_cycles;
      merged_updates = c.Dep_graph.merged_updates;
      merged_members = c.Dep_graph.merged_members;
      nodes = n;
      edges = List.length (Dep_graph.edges g);
    } )

(** [apply umq g] — {!order} the queue and install the legal order. *)
let apply (umq : Umq.t) (g : Dep_graph.t) : report =
  let order, r = order (Umq.entries umq) g in
  if r.reordered then Umq.replace umq order;
  r

(** [collapse entries] — the strawman correction over an entry list:
    every message, in commit order, as a single batch.  Loses
    intermediate MV states and produces one long, abort-prone maintenance
    process; kept as an experimental baseline (ablation).  Fewer than two
    messages stay as they are. *)
let collapse (entries : Umq.entry list) : Umq.entry list * report =
  let msgs =
    List.sort
      (fun a b -> Int.compare (Update_msg.id a) (Update_msg.id b))
      (List.concat_map Umq.entry_messages entries)
  in
  match msgs with
  | [] | [ _ ] ->
      ( entries,
        {
          reordered = false;
          merged_cycles = 0;
          merged_updates = 0;
          merged_members = [];
          nodes = List.length msgs;
          edges = 0;
        } )
  | _ ->
      ( [ Umq.Batch msgs ],
        {
          reordered = true;
          merged_cycles = 1;
          merged_updates = List.length msgs;
          merged_members = [ List.map Update_msg.id msgs ];
          nodes = List.length msgs;
          edges = 0;
        } )

(** [merge_all umq] — {!collapse} the whole queue in place. *)
let merge_all (umq : Umq.t) : report =
  let order, r = collapse (Umq.entries umq) in
  if r.reordered then Umq.replace umq order;
  r
