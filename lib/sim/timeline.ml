(** Timeline of autonomous source commits.

    Sources in a loosely-coupled environment commit updates at times of
    their own choosing; the timeline holds those future commits, ordered by
    timestamp.  The view-manager side of the simulation pops every commit
    whose time has passed whenever the simulated clock advances — which
    implements Definition 2's conflict condition exactly: an update
    "committed before the maintenance query is answered" is applied to the
    source (and enqueued at the view manager) before the query result is
    computed. *)

open Dyno_relational

type event = Du of Update.t | Sc of Schema_change.t

let event_source = function
  | Du u -> Update.source u
  | Sc sc -> Schema_change.source sc

let pp_event ppf = function
  | Du u -> Update.pp ppf u
  | Sc sc -> Schema_change.pp ppf sc

type entry = { time : float; seq : int; event : event }

type t = {
  mutable pending : entry list;  (** sorted by (time, seq) when [sorted] *)
  mutable sorted : bool;
  mutable count : int;
  mutable next_seq : int;
}
(* Scheduling prepends and marks the list dirty; the sort happens lazily
   on the first read.  Million-event workloads (the scale bench) thus pay
   one O(n log n) sort instead of O(n² log n) insertion sorts, and
   [pop_until] peels a sorted prefix instead of partitioning the whole
   list on every clock advance. *)

let create () = { pending = []; sorted = true; count = 0; next_seq = 0 }

let compare_entry a b =
  match Float.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let ensure_sorted t =
  if not t.sorted then begin
    t.pending <- List.sort compare_entry t.pending;
    t.sorted <- true
  end

(** [schedule t ~time event] enqueues a commit at absolute time [time];
    ties are broken by scheduling order. *)
let schedule t ~time event =
  let e = { time; seq = t.next_seq; event } in
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  t.pending <- e :: t.pending;
  t.sorted <- (match t.pending with [ _ ] -> true | _ -> false)

let of_list entries =
  let t = create () in
  List.iter (fun (time, ev) -> schedule t ~time ev) entries;
  t

let is_empty t = t.pending = []

let length t = t.count

(** Earliest pending commit time, if any. *)
let next_time t =
  ensure_sorted t;
  match t.pending with [] -> None | e :: _ -> Some e.time

(** [pop_until t ~time] removes and returns (in order) every commit with
    timestamp ≤ [time]. *)
let pop_until t ~time =
  ensure_sorted t;
  let cutoff = time +. 1e-12 in
  let rec take acc = function
    | e :: rest when e.time <= cutoff -> take (e :: acc) rest
    | rest ->
        t.pending <- rest;
        List.rev acc
  in
  let due = take [] t.pending in
  t.count <- t.count - List.length due;
  due

let peek_all t =
  ensure_sorted t;
  t.pending
