(* Host-clock profiler for the domain pool.  Rings are single-writer
   (each owned by one domain) and read only after the pool quiesced, so
   the hot path takes no locks: a recording call is a clock read, an
   aggregate add, and one array store. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_zero =
  {
    minor_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
  }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

type event =
  | Task of { tag : int; t0 : float; t1 : float; gc : gc_delta }
  | Chunk of { at : float; first : int; len : int }
  | Idle of { t0 : float; t1 : float }
  | Join of { at : float }

type ring = {
  r_on : bool;
  index : int;
  role : string;
  windowed : bool;  (* lifetime = Σ batch windows, not opened→joined *)
  buf : event option array;
  mutable head : int;  (* next write slot *)
  mutable stored : int;  (* total events ever written *)
  (* Aggregates survive ring eviction. *)
  mutable started : float;  (* 0. = never stamped *)
  mutable ended : float;
  mutable active_s : float;  (* windowed lifetime (coordinator) *)
  mutable busy_s : float;
  mutable idle_s : float;
  mutable tasks : int;
  mutable chunks : int;
  mutable gc_total : gc_delta;
  attr : (int, float ref) Hashtbl.t;  (* tag -> host seconds *)
}

type t = {
  on : bool;
  capacity : int;
  mutable rings : ring list;  (* reverse registration order *)
  mutable next_index : int;
}

let create ?(enabled = true) ?(capacity = 8192) () =
  { on = enabled; capacity = max 16 capacity; rings = []; next_index = 0 }

let disabled = create ~enabled:false ()
let enabled t = t.on

let null_ring =
  {
    r_on = false;
    index = -1;
    role = "off";
    windowed = false;
    buf = [||];
    head = 0;
    stored = 0;
    started = 0.;
    ended = 0.;
    active_s = 0.;
    busy_s = 0.;
    idle_s = 0.;
    tasks = 0;
    chunks = 0;
    gc_total = gc_zero;
    attr = Hashtbl.create 1;
  }

let ring_on r = r.r_on

let register t ~role ~windowed =
  if not t.on then null_ring
  else begin
    let r =
      {
        r_on = true;
        index = t.next_index;
        role;
        windowed;
        buf = Array.make t.capacity None;
        head = 0;
        stored = 0;
        started = 0.;
        ended = 0.;
        active_s = 0.;
        busy_s = 0.;
        idle_s = 0.;
        tasks = 0;
        chunks = 0;
        gc_total = gc_zero;
        attr = Hashtbl.create 16;
      }
    in
    t.next_index <- t.next_index + 1;
    t.rings <- r :: t.rings;
    r
  end

let coordinator_ring t = register t ~role:"coordinator" ~windowed:true
let worker_ring t = register t ~role:"worker" ~windowed:false

(* Recording -------------------------------------------------------- *)

let now = Unix.gettimeofday

let push r ev =
  r.buf.(r.head) <- Some ev;
  r.head <- (r.head + 1) mod Array.length r.buf;
  r.stored <- r.stored + 1

let stamp r at =
  if r.started = 0. then r.started <- at;
  if at > r.ended then r.ended <- at

type mark =
  | M_off
  | M_at of float
  | M_task of {
      at : float;
      minor_words : float;
      major_words : float;
      minor_collections : int;
      major_collections : int;
    }

let no_mark = M_off

let opened r = if r.r_on then stamp r (now ())

(* [Gc.quick_stat]'s [minor_words] only advances at a minor collection
   on OCaml 5, so a task that allocates less than the minor heap would
   read as 0; [Gc.minor_words ()] counts the current minor heap exactly. *)
let task_begin r =
  if not r.r_on then M_off
  else begin
    let q = Gc.quick_stat () in
    M_task
      {
        at = now ();
        minor_words = Gc.minor_words ();
        major_words = q.Gc.major_words;
        minor_collections = q.Gc.minor_collections;
        major_collections = q.Gc.major_collections;
      }
  end

let task_end r ~tag m =
  match m with
  | M_task b when r.r_on ->
      let t1 = now () in
      let q = Gc.quick_stat () in
      let gc =
        {
          minor_words = Gc.minor_words () -. b.minor_words;
          major_words = q.Gc.major_words -. b.major_words;
          minor_collections = q.Gc.minor_collections - b.minor_collections;
          major_collections = q.Gc.major_collections - b.major_collections;
        }
      in
      let dt = t1 -. b.at in
      stamp r b.at;
      stamp r t1;
      r.busy_s <- r.busy_s +. dt;
      r.tasks <- r.tasks + 1;
      r.gc_total <- gc_add r.gc_total gc;
      (match Hashtbl.find_opt r.attr tag with
      | Some cell -> cell := !cell +. dt
      | None -> Hashtbl.replace r.attr tag (ref dt));
      push r (Task { tag; t0 = b.at; t1; gc })
  | _ -> ()

let idle_begin r = if r.r_on then M_at (now ()) else M_off

let idle_end r m =
  match m with
  | M_at t0 when r.r_on ->
      let t1 = now () in
      stamp r t0;
      stamp r t1;
      r.idle_s <- r.idle_s +. (t1 -. t0);
      push r (Idle { t0; t1 })
  | _ -> ()

let chunk r ~first ~len =
  if r.r_on then begin
    let at = now () in
    stamp r at;
    r.chunks <- r.chunks + 1;
    push r (Chunk { at; first; len })
  end

let batch_begin r = if r.r_on then M_at (now ()) else M_off

let batch_end r m =
  match m with
  | M_at t0 when r.r_on ->
      let t1 = now () in
      stamp r t0;
      stamp r t1;
      r.active_s <- r.active_s +. (t1 -. t0)
  | _ -> ()

let joined r =
  if r.r_on then begin
    let at = now () in
    stamp r at;
    push r (Join { at })
  end

(* Readout ---------------------------------------------------------- *)

type domain_summary = {
  domain : int;
  role : string;
  start_s : float;
  end_s : float;
  lifetime_s : float;
  busy_s : float;
  idle_s : float;
  gc_s : float;
  utilization : float;
  tasks : int;
  chunks : int;
  gc : gc_delta;
  events_dropped : int;
}

type summary = {
  origin : float;
  wall_s : float;
  imbalance : float;
  domains : domain_summary list;
  attributions : (int * float) list;
  slowest : (int * float) list;
}

let empty_summary =
  {
    origin = 0.;
    wall_s = 0.;
    imbalance = 1.0;
    domains = [];
    attributions = [];
    slowest = [];
  }

let ordered_rings t = List.rev t.rings

let summarize_ring ~origin r =
  let raw_life =
    if r.windowed then r.active_s
    else if r.started = 0. then 0.
    else r.ended -. r.started
  in
  (* Clamp so busy + idle + gc tiles the lifetime exactly; the residual
     is GC pauses outside tasks plus pool bookkeeping. *)
  let lifetime = Float.max raw_life (r.busy_s +. r.idle_s) in
  let gc_s = lifetime -. r.busy_s -. r.idle_s in
  {
    domain = r.index;
    role = r.role;
    start_s = (if r.started = 0. then 0. else r.started -. origin);
    end_s = (if r.started = 0. then 0. else r.ended -. origin);
    lifetime_s = lifetime;
    busy_s = r.busy_s;
    idle_s = r.idle_s;
    gc_s = Float.max 0. gc_s;
    utilization = (if lifetime > 0. then r.busy_s /. lifetime else 0.);
    tasks = r.tasks;
    chunks = r.chunks;
    gc = r.gc_total;
    events_dropped = max 0 (r.stored - Array.length r.buf);
  }

let top_k = 10

let drain t =
  if not t.on then empty_summary
  else begin
    let rings = ordered_rings t in
    let starts =
      List.filter_map (fun r -> if r.started = 0. then None else Some r.started)
        rings
    in
    let origin = match starts with [] -> 0. | l -> List.fold_left min infinity l in
    let ends =
      List.filter_map (fun r -> if r.started = 0. then None else Some r.ended)
        rings
    in
    let wall =
      match (starts, ends) with
      | _ :: _, _ :: _ ->
          List.fold_left max neg_infinity ends -. origin
      | _ -> 0.
    in
    let domains = List.map (summarize_ring ~origin) rings in
    let busy = List.map (fun d -> d.busy_s) domains in
    let imbalance =
      let n = List.length busy in
      if n = 0 then 1.0
      else
        let total = List.fold_left ( +. ) 0. busy in
        let mean = total /. float_of_int n in
        if mean <= 0. then 1.0
        else List.fold_left Float.max 0. busy /. mean
    in
    let merged = Hashtbl.create 64 in
    List.iter
      (fun r ->
        Hashtbl.iter
          (fun tag cell ->
            if tag >= 0 then
              match Hashtbl.find_opt merged tag with
              | Some c -> c := !c +. !cell
              | None -> Hashtbl.replace merged tag (ref !cell))
          r.attr)
      rings;
    let attributions =
      Hashtbl.fold (fun tag cell acc -> (tag, !cell) :: acc) merged []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let slowest =
      List.sort (fun (_, a) (_, b) -> compare b a) attributions |> fun l ->
      List.filteri (fun i _ -> i < top_k) l
    in
    { origin; wall_s = Float.max 0. wall; imbalance; domains; attributions;
      slowest }
  end

let ring_events r =
  if not r.r_on then []
  else begin
    let cap = Array.length r.buf in
    let n = min r.stored cap in
    (* Oldest retained event first. *)
    let first = if r.stored <= cap then 0 else r.head in
    List.init n (fun i ->
        match r.buf.((first + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)
  end

let timelines t =
  if not t.on then []
  else begin
    let s = drain t in
    List.map2
      (fun d r -> (d, ring_events r))
      s.domains (ordered_rings t)
  end

(* JSON ------------------------------------------------------------- *)

let num b f =
  (* json_check rejects NaN/inf; clamp defensively. *)
  let f = if Float.is_nan f || f = infinity || f = neg_infinity then 0. else f in
  Buffer.add_string b (Printf.sprintf "%.9f" f)

let gc_json b g =
  Buffer.add_string b
    (Printf.sprintf
       "{\"minor_words\":%.1f,\"major_words\":%.1f,\"minor_collections\":%d,\"major_collections\":%d}"
       g.minor_words g.major_words g.minor_collections g.major_collections)

let event_json b ~origin ev =
  match ev with
  | Task { tag; t0; t1; gc } ->
      Buffer.add_string b "{\"kind\":\"task\",\"tag\":";
      Buffer.add_string b (string_of_int tag);
      Buffer.add_string b ",\"t0_s\":";
      num b (t0 -. origin);
      Buffer.add_string b ",\"t1_s\":";
      num b (t1 -. origin);
      Buffer.add_string b ",\"gc\":";
      gc_json b gc;
      Buffer.add_char b '}'
  | Chunk { at; first; len } ->
      Buffer.add_string b "{\"kind\":\"chunk\",\"at_s\":";
      num b (at -. origin);
      Buffer.add_string b (Printf.sprintf ",\"first\":%d,\"len\":%d}" first len)
  | Idle { t0; t1 } ->
      Buffer.add_string b "{\"kind\":\"idle\",\"t0_s\":";
      num b (t0 -. origin);
      Buffer.add_string b ",\"t1_s\":";
      num b (t1 -. origin);
      Buffer.add_char b '}'
  | Join { at } ->
      Buffer.add_string b "{\"kind\":\"join\",\"at_s\":";
      num b (at -. origin);
      Buffer.add_char b '}'

let to_json t =
  let s = drain t in
  let tl = timelines t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"domains\":";
  Buffer.add_string b (string_of_int (List.length s.domains));
  Buffer.add_string b ",\"wall_s\":";
  num b s.wall_s;
  Buffer.add_string b ",\"imbalance\":";
  num b s.imbalance;
  Buffer.add_string b ",\"timelines\":[";
  List.iteri
    (fun i (d, events) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"domain\":";
      Buffer.add_string b (string_of_int d.domain);
      Buffer.add_string b ",\"role\":";
      Buffer.add_string b (Json.quote d.role);
      Buffer.add_string b ",\"start_s\":";
      num b d.start_s;
      Buffer.add_string b ",\"end_s\":";
      num b d.end_s;
      Buffer.add_string b ",\"lifetime_s\":";
      num b d.lifetime_s;
      Buffer.add_string b ",\"busy_s\":";
      num b d.busy_s;
      Buffer.add_string b ",\"idle_s\":";
      num b d.idle_s;
      Buffer.add_string b ",\"gc_s\":";
      num b d.gc_s;
      Buffer.add_string b ",\"utilization\":";
      num b d.utilization;
      Buffer.add_string b (Printf.sprintf ",\"tasks\":%d,\"chunks\":%d" d.tasks d.chunks);
      Buffer.add_string b ",\"gc\":";
      gc_json b d.gc;
      Buffer.add_string b (Printf.sprintf ",\"events_dropped\":%d" d.events_dropped);
      Buffer.add_string b ",\"events\":[";
      List.iteri
        (fun j ev ->
          if j > 0 then Buffer.add_char b ',';
          event_json b ~origin:s.origin ev)
        events;
      Buffer.add_string b "]}")
    tl;
  Buffer.add_string b "],\"slowest_sweeps\":[";
  List.iteri
    (fun i (tag, secs) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"msg\":";
      Buffer.add_string b (string_of_int tag);
      Buffer.add_string b ",\"host_s\":";
      num b secs;
      Buffer.add_char b '}')
    s.slowest;
  Buffer.add_string b "]}";
  Buffer.contents b
