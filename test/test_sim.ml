(* Unit tests for the simulation substrate: clock, timeline, rng, cost
   model, trace. *)

open Dyno_relational
open Dyno_sim

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  Clock.advance c 0.5;
  Alcotest.(check (float 1e-9)) "advances" 2.0 (Clock.now c);
  Clock.advance_to c 2.0;
  Alcotest.(check (float 1e-9)) "advance_to same time ok" 2.0 (Clock.now c);
  Alcotest.(check bool) "negative advance rejected" true
    (match Clock.advance c (-1.0) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "backwards rejected" true
    (match Clock.advance_to c 1.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let schema = Schema.of_list [ Attr.int "x" ]

let du k =
  Timeline.Du
    (Update.make ~source:"ds" ~rel:"R"
       (Relation.of_list schema [ [ Value.int k ] ]))

let test_timeline_ordering () =
  let t = Timeline.create () in
  Timeline.schedule t ~time:5.0 (du 1);
  Timeline.schedule t ~time:1.0 (du 2);
  Timeline.schedule t ~time:1.0 (du 3);
  (* same time: scheduling order is preserved via seq *)
  Alcotest.(check int) "3 pending" 3 (Timeline.length t);
  Alcotest.(check bool) "next time" true (Timeline.next_time t = Some 1.0);
  let due = Timeline.pop_until t ~time:1.0 in
  Alcotest.(check int) "two due" 2 (List.length due);
  (match due with
  | [ a; b ] ->
      Alcotest.(check bool) "FIFO among ties" true (a.Timeline.seq < b.Timeline.seq)
  | _ -> Alcotest.fail "expected two");
  Alcotest.(check int) "one left" 1 (Timeline.length t);
  let rest = Timeline.pop_until t ~time:100.0 in
  Alcotest.(check int) "drained" 1 (List.length rest);
  Alcotest.(check bool) "empty" true (Timeline.is_empty t)

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Rng.make 43 in
  Alcotest.(check bool) "different seed differs" true (seq (Rng.make 42) <> seq c);
  let r = Rng.make 1 in
  for _ = 1 to 100 do
    let x = Rng.int_in r 5 10 in
    Alcotest.(check bool) "int_in range" true (x >= 5 && x <= 10)
  done;
  let xs = [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "shuffle is a permutation" xs
    (List.sort compare (Rng.shuffle r xs));
  Alcotest.(check bool) "pick member" true (List.mem (Rng.pick r xs) xs)

let test_cost_model () =
  let cm = Cost_model.default in
  Alcotest.(check bool) "probe grows with scan" true
    (Cost_model.probe cm ~scanned:1000 ~returned:0
    > Cost_model.probe cm ~scanned:10 ~returned:0);
  Alcotest.(check bool) "detect O(mn) grows" true
    (Cost_model.detect cm ~n:100 ~m:10 > Cost_model.detect cm ~n:100 ~m:1);
  let free = Cost_model.free in
  Alcotest.(check (float 1e-12)) "free model costs nothing" 0.0
    (Cost_model.probe free ~scanned:1000 ~returned:1000
    +. Cost_model.adapt free ~scanned:5 ~written:5
    +. Cost_model.detect free ~n:10 ~m:10);
  let scaled = Cost_model.scaled 10.0 in
  Alcotest.(check bool) "scaled charges more per row" true
    (Cost_model.adapt scaled ~scanned:100 ~written:0
    > Cost_model.adapt cm ~scanned:100 ~written:0)

let test_trace () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 Trace.Commit (lazy "a");
  Trace.record tr ~time:2.0 Trace.Abort (lazy (Fmt.str "b %d" 7));
  Trace.record tr ~time:3.0 Trace.Commit (lazy "c");
  Alcotest.(check int) "count commits" 2 (Trace.count tr Trace.Commit);
  Alcotest.(check int) "count aborts" 1 (Trace.count tr Trace.Abort);
  (match Trace.entries tr with
  | [ e1; _; e3 ] ->
      Alcotest.(check bool) "chronological" true (e1.Trace.time < e3.Trace.time)
  | _ -> Alcotest.fail "expected 3 entries");
  let off = Trace.create ~enabled:false () in
  Trace.record off ~time:0.0 Trace.Commit (lazy "x");
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Trace.entries off))

(* A disabled trace must not pay for formatting: the detail lazy is never
   forced, so its [%a] printers never run.  An enabled one forces it once,
   at record time. *)
let test_trace_off_formats_nothing () =
  let calls = ref 0 in
  let pp ppf s =
    incr calls;
    Fmt.string ppf s
  in
  let detail () = lazy (Fmt.str "%s v%d: %a" "DS1" 3 pp "delta") in
  let off = Trace.create ~enabled:false () in
  Trace.record off ~time:0.0 Trace.Commit (detail ());
  Alcotest.(check int) "printer not called when disabled" 0 !calls;
  let on = Trace.create () in
  Trace.record on ~time:0.0 Trace.Commit (detail ());
  Alcotest.(check int) "printer called once, at record time" 1 !calls;
  ignore (Trace.entries on : Trace.entry list);
  ignore (Fmt.str "%a" Trace.pp on : string);
  Alcotest.(check int) "reading the entry formats nothing more" 1 !calls;
  match Trace.entries on with
  | [ e ] -> Alcotest.(check string) "detail" "DS1 v3: delta" e.Trace.detail
  | _ -> Alcotest.fail "one entry expected"

let () =
  Alcotest.run "sim"
    [
      ( "sim",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "timeline ordering" `Quick test_timeline_ordering;
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "disabled trace formats nothing" `Quick
            test_trace_off_formats_nothing;
        ] );
    ]
