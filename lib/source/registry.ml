(** The remote source space: a registry of autonomous data sources.

    Sources can join and leave dynamically (Section 2).  The registry is
    how the view manager's query engine locates the server that must answer
    a maintenance query. *)

type t = { mutable sources : (string * Data_source.t) list }

exception Unknown_source of string

let create () = { sources = [] }

(** [register t s] adds a source; replaces any previous source with the
    same id (a source re-joining). *)
let register t s =
  let id = Data_source.id s in
  t.sources <-
    (id, s) :: List.filter (fun (i, _) -> not (String.equal i id)) t.sources

(** [unregister t id] removes a source (it left the grid). *)
let unregister t id =
  t.sources <- List.filter (fun (i, _) -> not (String.equal i id)) t.sources

let rec lookup id = function
  | [] -> raise (Unknown_source id)
  | (id', s) :: rest -> if String.equal id id' then s else lookup id rest

let find t id = lookup id t.sources

let find_opt t id = List.assoc_opt id t.sources

let mem t id = List.mem_assoc id t.sources

let ids t = List.rev_map fst t.sources

let sources t = List.rev_map snd t.sources

(** [commit t ~time ev] routes a timeline event to its source and commits
    it there.  Returns (source, new version). *)
let commit t ~time (ev : Dyno_sim.Timeline.event) =
  let s = find t (Dyno_sim.Timeline.event_source ev) in
  let v = Data_source.commit s ~time ev in
  (s, v)
