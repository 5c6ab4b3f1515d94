(** The dependency graph over the Update Message Queue, and its correction
    (Section 4.1.1 and 4.2).

    Nodes are UMQ entries (single updates or previously-merged batches);
    edges are the concurrent and semantic dependencies of
    {!Dependency}.  Correction first collapses every strongly connected
    component — the maintenance deadlocks of Section 3.5 — into one merged
    batch node (updates that cannot be processed separately are processed
    as one atomic batch), then topologically sorts the now-acyclic graph
    into a {e legal order} (Definition 7): every dependency points from an
    earlier to a later queue position, i.e. is safe.

    The topological sort is {e stable}: among ready nodes it always emits
    the one with the smallest original queue position, so updates are
    reordered only as far as the dependencies force — keeping maintenance
    "in the smallest possible granularity … refreshing the view as quickly
    as possible" (Section 4.2). *)

open Dyno_relational
open Dyno_view

type t = {
  nodes : Umq.entry array;
  edges : Dependency.edge list;
  unsafe_edges : Dependency.edge list;
      (* edges violating the current queue order (Definition 6), computed
         once at construction — every consumer (detection outcome, has_unsafe
         gate, correction trigger) asks the same question of an immutable
         graph, so answer it once instead of re-filtering per caller. *)
}

let nodes g = Array.to_list g.nodes
let edges g = g.edges
let size g = Array.length g.nodes

(* Node indices ARE queue positions, so an edge is safe iff prerequisite
   precedes dependent numerically. *)
let compute_unsafe edges =
  List.filter (fun e -> not (Dependency.is_safe (fun i -> i) e)) edges

(** [make ~nodes ~edges] builds a graph directly — used by tests and by
    tools that want to analyse hand-crafted dependency structures. *)
let make ~nodes ~edges =
  { nodes = Array.of_list nodes; edges; unsafe_edges = compute_unsafe edges }

(** [build_many views entries] constructs the graph for the current queue
    contents against a {e set} of views (multi-view mode): a schema change
    induces concurrent dependencies as soon as it conflicts with {e any}
    view.  Complexity O(v·m·n) for concurrent dependencies plus O(n) for
    semantic ones. *)
let build_many (views : (Query.t * (string * Schema.t) list) list)
    (entries : Umq.entry list) : t =
  let nodes = Array.of_list entries in
  let n = Array.length nodes in
  let edges = ref [] in
  let add e = edges := e :: !edges in
  (* Concurrent dependencies. *)
  Array.iteri
    (fun y entry ->
      let conflicts =
        List.exists
          (fun m ->
            match Update_msg.as_sc m with
            | Some sc ->
                List.exists
                  (fun (query, schemas) ->
                    Dependency.sc_conflicts_with_view query schemas sc)
                  views
            | None -> false)
          (Umq.entry_messages entry)
      in
      if conflicts then
        for x = 0 to n - 1 do
          if x <> y then
            add { Dependency.dependent = x; prerequisite = y; kind = Concurrent }
        done)
    nodes;
  (* Semantic dependencies: chain entries per source in commit (id) order.
     An entry participates for every source it contains messages of; its
     rank within a source is the smallest id it holds there. *)
  let per_source : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i entry ->
      List.iter
        (fun m ->
          let src = Update_msg.source m in
          let l =
            match Hashtbl.find_opt per_source src with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add per_source src l;
                l
          in
          l := (Update_msg.id m, i) :: !l)
        (Umq.entry_messages entry))
    nodes;
  Hashtbl.iter
    (fun _src l ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) !l
      in
      let rec chain = function
        | (_, i) :: ((_, j) :: _ as rest) ->
            if i <> j then
              add { Dependency.dependent = j; prerequisite = i; kind = Semantic };
            chain rest
        | _ -> ()
      in
      chain sorted)
    per_source;
  let edges = List.rev !edges in
  { nodes; edges; unsafe_edges = compute_unsafe edges }

(** [build query schemas entries] — the single-view case.  Complexity
    O(m·n) for concurrent dependencies plus O(n) for semantic ones, as
    analysed in the paper. *)
let build (query : Query.t) (schemas : (string * Schema.t) list)
    (entries : Umq.entry list) : t =
  build_many [ (query, schemas) ] entries

(** Unsafe dependencies under the current queue order (Definition 6) —
    cached at construction, O(1) per call. *)
let unsafe g = g.unsafe_edges

let unsafe_count g = List.length g.unsafe_edges
let has_unsafe g = g.unsafe_edges <> []

(* ------------------------------------------------------------------ *)
(* Tarjan's strongly connected components                              *)
(* ------------------------------------------------------------------ *)

(** [scc g] returns the strongly connected components (each a list of node
    indices) in reverse topological order of the condensation — Tarjan's
    algorithm, O(n + e).  Edges are oriented prerequisite → dependent. *)
let scc g =
  let n = Array.length g.nodes in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Dependency.edge) ->
      adj.(e.prerequisite) <- e.dependent :: adj.(e.prerequisite))
    g.edges;
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      adj.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !components

(* ------------------------------------------------------------------ *)
(* Forensic provenance                                                  *)
(* ------------------------------------------------------------------ *)

let pp_ids ppf = function
  | [ id ] -> Fmt.pf ppf "#%d" id
  | ids ->
      Fmt.pf ppf "batch [%a]" Fmt.(list ~sep:sp (fun ppf -> Fmt.pf ppf "#%d")) ids

(** [describe_edge g e] — a human-readable account of why the edge
    exists, naming the message ids involved and (for concurrent
    dependencies) the triggering schema change.  This is the provenance
    [dyno explain] replays.  The two entries are read out of the node
    array now; the text is rendered when forced. *)
let describe_edge g (e : Dependency.edge) : string Lazy.t =
  let dependent = g.nodes.(e.Dependency.dependent)
  and prerequisite = g.nodes.(e.Dependency.prerequisite) in
  lazy
    (let dep_ids = Umq.entry_ids dependent
     and pre_msgs = Umq.entry_messages prerequisite in
     match e.Dependency.kind with
     | Dependency.Concurrent -> (
         match List.find_opt Update_msg.is_sc pre_msgs with
         | Some sc ->
             Fmt.str
               "CD edge: %a conflicts with SC #%d (%s) and must wait for it"
               pp_ids dep_ids (Update_msg.id sc) (Update_msg.source sc)
         | None ->
             Fmt.str "CD edge: %a must follow %a" pp_ids dep_ids pp_ids
               (Umq.entry_ids prerequisite))
     | Dependency.Semantic ->
         let src =
           match pre_msgs with m :: _ -> Update_msg.source m | [] -> "?"
         in
         Fmt.str "SD edge: %a must follow %a (commit order at %s)" pp_ids
           dep_ids pp_ids
           (Umq.entry_ids prerequisite)
           src)

(** Message ids of the edge's dependent entry — where the provenance is
    recorded in the lineage. *)
let edge_dependent_ids g (e : Dependency.edge) : int list =
  Umq.entry_ids g.nodes.(e.Dependency.dependent)

(** Result of a correction pass. *)
type correction = {
  order : Umq.entry list;  (** the legal order to install in the UMQ *)
  merged_cycles : int;  (** number of cycles collapsed into batches *)
  merged_updates : int;  (** messages involved in those cycles *)
  merged_members : int list list;
      (** message ids of each collapsed cycle, one list per new batch —
          the provenance behind every merge *)
}

(** [correct g] computes a legal order: cycles merged into batch entries
    (members in commit order), then a stable topological sort.  Theorem 2:
    the result has every dependency safe. *)
let correct g : correction =
  let comps = scc g in
  let n = Array.length g.nodes in
  (* Map node -> component id; build merged entries per component. *)
  let comp_of = Array.make n (-1) in
  let comps_arr = Array.of_list comps in
  Array.iteri
    (fun ci members -> List.iter (fun v -> comp_of.(v) <- ci) members)
    comps_arr;
  let merged_cycles = ref 0 in
  let merged_updates = ref 0 in
  let merged_members = ref [] in
  let entry_of_comp ci =
    let members = comps_arr.(ci) in
    match members with
    | [ v ] -> g.nodes.(v)
    | vs ->
        incr merged_cycles;
        let msgs =
          List.concat_map (fun v -> Umq.entry_messages g.nodes.(v)) vs
          |> List.sort (fun a b ->
                 Int.compare (Update_msg.id a) (Update_msg.id b))
        in
        merged_updates := !merged_updates + List.length msgs;
        merged_members := List.map Update_msg.id msgs :: !merged_members;
        Umq.Batch msgs
  in
  (* Condensation adjacency + indegrees. *)
  let nc = Array.length comps_arr in
  let cadj = Array.make nc [] in
  let indeg = Array.make nc 0 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Dependency.edge) ->
      let a = comp_of.(e.prerequisite) and b = comp_of.(e.dependent) in
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        cadj.(a) <- b :: cadj.(a);
        indeg.(b) <- indeg.(b) + 1
      end)
    g.edges;
  (* Original position of a component = min position of its members
     (positions are node indices, i.e. queue order). *)
  let cpos =
    Array.mapi (fun _ members -> List.fold_left min max_int members) comps_arr
  in
  (* Stable Kahn: repeatedly emit the ready component with the smallest
     original position. *)
  let ready = ref [] in
  Array.iteri (fun ci d -> if d = 0 then ready := ci :: !ready) indeg;
  let order = ref [] in
  let emitted = ref 0 in
  while !ready <> [] do
    let best =
      List.fold_left
        (fun acc ci ->
          match acc with
          | None -> Some ci
          | Some b -> if cpos.(ci) < cpos.(b) then Some ci else acc)
        None !ready
      |> Option.get
    in
    ready := List.filter (fun ci -> ci <> best) !ready;
    order := best :: !order;
    incr emitted;
    List.iter
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then ready := b :: !ready)
      cadj.(best)
  done;
  assert (!emitted = nc);
  (* Build the order first: [entry_of_comp] updates the merge counters. *)
  let order = List.rev_map entry_of_comp !order in
  {
    order;
    merged_cycles = !merged_cycles;
    merged_updates = !merged_updates;
    merged_members = List.rev !merged_members;
  }

let pp ppf g =
  Fmt.pf ppf "@[<v>%d node(s):@,%a@,%d edge(s):@,%a@]" (size g)
    Fmt.(
      list ~sep:cut (fun ppf (i, e) -> Fmt.pf ppf "  [%d] %a" i Umq.pp_entry e))
    (List.mapi (fun i e -> (i, e)) (nodes g))
    (List.length g.edges)
    Fmt.(list ~sep:cut (fun ppf e -> Fmt.pf ppf "  %a" Dependency.pp_edge e))
    g.edges
