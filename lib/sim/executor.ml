(* Deterministic cooperative tasks over the simulated clock, built on
   OCaml 5 effect handlers.  See the .mli for the contract. *)

open Effect
open Effect.Deep

type _ Effect.t += Sleep_until : float -> unit Effect.t

type pending =
  | Start of (unit -> unit)
  | Resume of (unit, unit) continuation

type t = {
  clk : Clock.t;
  mutable next_id : int;
  (* Parked/runnable tasks, sorted by (wake time, task id).  Rounds are
     small (bounded by the antichain width), so a sorted list beats a
     heap on constant factors and keeps the tie-break explicit. *)
  mutable queue : (float * int * pending) list;
  mutable current : int option;
  mutable running : bool;
  mutable switch_hook : int option -> unit;
  mutable failures : (exn * Printexc.raw_backtrace) list;
}

let create clk =
  {
    clk;
    next_id = 0;
    queue = [];
    current = None;
    running = false;
    switch_hook = ignore;
    failures = [];
  }

let in_task t = t.current <> None
let on_switch t f = t.switch_hook <- f

let insert t time id p =
  let rec go = function
    | [] -> [ (time, id, p) ]
    | ((time', id', _) as hd) :: tl ->
        if time' < time || (time' = time && id' < id) then hd :: go tl
        else (time, id, p) :: hd :: tl
  in
  t.queue <- go t.queue

let sleep_until t target =
  if in_task t then perform (Sleep_until target)
  else Clock.advance_to t.clk (Float.max target (Clock.now t.clk))

let sleep_for t dt =
  if dt < 0.0 then invalid_arg "Executor.sleep_for: negative duration";
  if in_task t then perform (Sleep_until (Clock.now t.clk +. dt))
  else Clock.advance t.clk dt

let handler t id =
  {
    retc = (fun () -> ());
    exnc =
      (fun e -> t.failures <- t.failures @ [ (e, Printexc.get_raw_backtrace ()) ]);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sleep_until target ->
            Some
              (fun (k : (a, unit) continuation) ->
                let now = Clock.now t.clk in
                let target = if target < now then now else target in
                insert t target id (Resume k))
        | _ -> None);
  }

let run_all t thunks =
  if in_task t then invalid_arg "Executor.run_all: called from inside a task";
  if t.running then invalid_arg "Executor.run_all: already running";
  t.running <- true;
  t.failures <- [];
  List.iter
    (fun f ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      insert t (Clock.now t.clk) id (Start f))
    thunks;
  let rec drive () =
    match t.queue with
    | [] -> ()
    | (time, id, p) :: rest ->
        t.queue <- rest;
        if time > Clock.now t.clk then Clock.advance_to t.clk time;
        t.current <- Some id;
        t.switch_hook (Some id);
        (match p with
        | Start f -> match_with f () (handler t id)
        | Resume k -> continue k ());
        t.current <- None;
        t.switch_hook None;
        drive ()
  in
  Fun.protect
    ~finally:(fun () ->
      t.running <- false;
      t.current <- None;
      t.switch_hook None)
    drive;
  match t.failures with
  | [] -> ()
  | (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
