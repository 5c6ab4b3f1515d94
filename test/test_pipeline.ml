(* Tests for the pipelined SWEEP: a sweep carries its partial result
   between probes as flat rows and hashes it once, at the end.

   - equivalence (qcheck, both planners): the probed and the local sweep
     give the same view delta as a sweep that hashes every partial, and
     every count the program reads is the consolidated relation's: the
     distinct tuples of each probe answer (the simulated transfer cost and
     the "-> N rows" trace line), each compensation's mass and whether it
     was empty, and the local path's byte estimate.  The draw covers views
     that keep a subset of a relation's columns, a source relation with a
     column the view does not know (an unsynchronized ADD COLUMN), deltas
     whose projection cancels, non-empty compensation and auxiliary data
     wider than the probe needs;
   - allocation: a steady-shaped sweep allocates a bounded number of words
     per probe, counted exactly (the minor heap emptied before each read),
     and only streams the update's delta: it neither copies nor changes it;
   - delivery: with nothing due [deliver_due] allocates nothing, and its
     fast exit still admits a copy in flight. *)

open Dyno_relational
open Dyno_view

let ints names = Schema.of_list (List.map Attr.int names)
let a_schema = ints [ "k"; "x"; "y" ]
let b_schema = ints [ "k2"; "y2"; "w" ]

(* B once its source added a column the view has not synchronized. *)
let b_extra = ints [ "k2"; "y2"; "w"; "e" ]
let c_schema = ints [ "k3"; "z" ]
let believed = [ ("A", a_schema); ("B", b_schema); ("C", c_schema) ]

(* The chain view over A, B, C keeping every column, or a subset: then
   A.y and B.w are no probe's output, so two tuples may become one. *)
let view ~all =
  Query.make ~name:"V"
    ~select:
      (List.map Query.item
         (if all then [ "A.k"; "A.x"; "A.y"; "B.k2"; "B.y2"; "B.w"; "C.k3"; "C.z" ]
          else [ "A.k"; "A.x"; "B.y2"; "C.z" ]))
    ~from:
      [
        Query.table ~alias:"A" "ds1" "A";
        Query.table ~alias:"B" "ds1" "B";
        Query.table ~alias:"C" "ds2" "C";
      ]
    ~where:[ Predicate.eq_attr "A.k" "B.k2"; Predicate.eq_attr "B.k2" "C.k3" ]

let aliases = [| "A"; "B"; "C" |]
let source_of = function "C" -> "ds2" | _ -> "ds1"

type case = {
  all : bool;  (** the view keeps every column *)
  extra : bool;  (** B's source relation has a column the view lacks *)
  wide_aux : bool;  (** auxiliary data keeps every column, not just the needed *)
  pivot : int;
  delta : (int list * int) list;
  bases : (int list * int) list array;  (** A, B, C, actual schemas *)
  pending : (int list * int) list list array;
      (** per relation: committed, unmaintained DUs, in commit order *)
}

let actual c i =
  match i with 0 -> a_schema | 1 -> if c.extra then b_extra else b_schema | _ -> c_schema

let gen_case =
  let open QCheck.Gen in
  let* all = bool and* extra = bool and* wide_aux = bool in
  let* pivot = int_range 0 2 in
  let arity i = match i with 0 -> 3 | 1 -> if extra then 4 else 3 | _ -> 2 in
  let tuple i = list_repeat (arity i) (int_range 0 2) in
  let rows i ~lo ~hi = list_size (int_range lo hi) (pair (tuple i) (oneofl [ 1; 1; 2; -1 ])) in
  let* bases =
    flatten_a
      (Array.init 3 (fun i -> list_size (int_range 0 6) (pair (tuple i) (oneofl [ 1; 1; 2 ]))))
  in
  let* pending = flatten_a (Array.init 3 (fun i -> list_size (int_range 0 2) (rows i ~lo:1 ~hi:3))) in
  (* A delta whose two tuples differ only in the pivot's last column —
     one the subset view does not keep (A.y, B.w) or the view does not
     know (B.e) — cancels in the first partial. *)
  let* delta =
    frequency
      [
        (3, rows pivot ~lo:1 ~hi:4);
        ( 1,
          let* t = tuple pivot and* v = int_range 0 2 in
          let n = List.length t in
          let t' = List.mapi (fun j x -> if j = n - 1 then (x + 1 + v) mod 3 else x) t in
          return [ (t, 1); (t', -1) ] );
      ]
  in
  return { all; extra; wide_aux; pivot; delta; bases; pending }

let print_case c =
  let rows rs =
    String.concat " "
      (List.map
         (fun (t, n) -> Printf.sprintf "(%s)x%d" (String.concat "," (List.map string_of_int t)) n)
         rs)
  in
  Printf.sprintf "all=%b extra=%b wide_aux=%b pivot=%s delta=[%s] bases=[%s] pending=[%s]"
    c.all c.extra c.wide_aux aliases.(c.pivot) (rows c.delta)
    (String.concat " | " (Array.to_list (Array.map rows c.bases)))
    (String.concat " | "
       (Array.to_list (Array.map (fun ds -> String.concat "; " (List.map rows ds)) c.pending)))

let relation schema rows =
  let r = Relation.create schema in
  List.iter (fun (t, n) -> Relation.add r (Tuple.of_list (List.map Value.int t)) n) rows;
  r

(* The world: sources loaded with the bases, then each pending DU
   committed at its source and queued unmaintained, as a concurrent
   update the sweep must compensate away.  A deletion of a tuple the
   source does not hold becomes an insertion. *)
let world ~planner c =
  let ds1 = Dyno_source.Data_source.create "ds1" in
  let ds2 = Dyno_source.Data_source.create "ds2" in
  let src i = if i = 2 then ds2 else ds1 in
  Array.iteri
    (fun i rows ->
      Dyno_source.Data_source.add_relation (src i) aliases.(i) (actual c i);
      Dyno_source.Data_source.load_counted (src i) aliases.(i)
        (List.map (fun (t, n) -> (List.map Value.int t, n)) rows))
    c.bases;
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry ds1;
  Dyno_source.Registry.register registry ds2;
  let umq = Umq.create () and timeline = Dyno_sim.Timeline.create () in
  let trace = Dyno_sim.Trace.create () in
  let w =
    Query_engine.create ~trace ~planner
      ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  Array.iteri
    (fun i deltas ->
      List.iter
        (fun rows ->
          let base = Dyno_source.Data_source.relation (src i) aliases.(i) in
          let delta = relation (actual c i) [] in
          List.iter
            (fun (t, n) ->
              let t = Tuple.of_list (List.map Value.int t) in
              let n = if Relation.count base t + Relation.count delta t + n < 0 then -n else n in
              Relation.add delta t n)
            rows;
          if not (Relation.is_empty delta) then begin
            let u = Update.make ~source:(source_of aliases.(i)) ~rel:aliases.(i) delta in
            let v = Dyno_source.Data_source.commit_du (src i) ~time:0.0 u in
            ignore (Umq.enqueue umq ~commit_time:0.0 ~source_version:v (Update_msg.Du u))
          end)
        deltas)
    c.pending;
  (w, trace, src)

let sweep_of c =
  let vd = View_def.create ~schemas:believed (view ~all:c.all) in
  let pivot = List.nth (Query.from (view ~all:c.all)) c.pivot in
  Dyno_vm.Maint_query.sweep_for vd pivot

(* 8 bytes a field, as the local path estimates a round trip. *)
let est r = 8 * Relation.support r * List.length (Schema.attrs (Relation.schema r))

type observed = {
  delta_v : Relation.t;
  answers : int list;  (** distinct tuples per probe answer, in order *)
  masses : int list;  (** mass of each non-empty compensation, in order *)
  bytes : int;  (** local path: estimated bytes of the avoided round trips *)
}

(* The reference: the same compiled sweep with every partial hashed —
   [Eval.execute] answers, compensation subtracted in place. *)
let hashed_sweep ~planner ~local ~aux ~base ~pending sw delta =
  let open Dyno_vm.Maint_query in
  let partial = Eval.execute ~planner:`Nested_loop sw.start [ delta ] in
  if Relation.is_empty partial then
    { delta_v = Relation.create (output_schema sw); answers = []; masses = []; bytes = 0 }
  else
    let partial, answers, masses, bytes =
      List.fold_left
        (fun (partial, answers, masses, bytes) (p : probe) ->
          let alias = p.table.Query.alias in
          let answer =
            if local then
              Eval.execute ~planner (Lazy.force p.local_plan) [ aux alias; partial ]
            else Eval.execute ~planner p.plan [ base alias; partial ]
          in
          let bytes = bytes + est partial + est answer in
          let answers = Relation.support answer :: answers in
          let masses =
            List.fold_left
              (fun masses (g : Umq.pending_sum) ->
                let contribution = Eval.execute ~planner p.plan [ g.sum; partial ] in
                if Relation.is_empty contribution then masses
                else begin
                  Relation.sum_in_place ~scale:(-1) answer contribution;
                  Relation.mass contribution :: masses
                end)
              masses (pending alias)
          in
          (answer, answers, masses, bytes))
        (partial, [], [], 0) sw.probes
    in
    {
      delta_v = Eval.execute ~planner:`Nested_loop sw.finish [ partial ];
      answers = List.rev answers;
      masses = List.rev masses;
      bytes;
    }

let details trace kind scan =
  List.map (fun (e : Dyno_sim.Trace.entry) -> Scanf.sscanf e.detail scan Fun.id)
    (Dyno_sim.Trace.find_all trace kind)

let prop_flat_equals_hashed ~local planner =
  QCheck.Test.make ~count:300
    ~name:
      (Fmt.str "%s sweep: flat partials = hashed partials, exact counts (%s)"
         (if local then "local" else "probed")
         (match planner with `Indexed -> "indexed" | `Nested_loop -> "nested loop"))
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let w, trace, src = world ~planner c in
      let sw = sweep_of c in
      let delta = relation (actual c c.pivot) c.delta in
      let base alias =
        let i = if alias = "A" then 0 else if alias = "B" then 1 else 2 in
        Dyno_source.Data_source.relation (src i) alias
      in
      let needed alias =
        (List.find (fun (p : Dyno_vm.Maint_query.probe) -> p.table.Query.alias = alias)
           sw.Dyno_vm.Maint_query.probes).Dyno_vm.Maint_query.needed
      in
      let aux alias =
        if c.wide_aux then Relation.copy (base alias) else Relation.project (base alias) (needed alias)
      in
      let pending alias =
        Query_engine.pending_sums w ~source:(source_of alias) ~rel:alias ~exclude:[]
      in
      let expected = hashed_sweep ~planner ~local ~aux ~base ~pending sw delta in
      let same_delta dv = Relation.equal dv expected.delta_v in
      if local then
        let noted = ref 0 in
        let hooks =
          { Dyno_vm.Sweep.aux = (fun a -> Some (aux a)); note_avoided = (fun ~probes ~bytes:_ -> noted := probes) }
        in
        match Dyno_vm.Sweep.delta_view_local w sw ~delta ~exclude:[] ~local:hooks with
        | None -> QCheck.Test.fail_report "covered local sweep fell back"
        | Some (dv, st) ->
            same_delta dv
            && st.Dyno_vm.Sweep.probes_avoided = List.length expected.answers
            && st.bytes_saved = expected.bytes
            && st.compensations = List.length expected.masses
            && st.comp_tuples = List.fold_left ( + ) 0 expected.masses
      else
        match Dyno_vm.Sweep.delta_view w sw ~delta ~exclude:[] with
        | Error f -> QCheck.Test.fail_reportf "probe failed: %a" Dyno_source.Data_source.pp_broken f
        | Ok (dv, st) ->
            let answers = details trace Dyno_sim.Trace.Query_answered "%_s -> %d rows" in
            let masses = details trace Dyno_sim.Trace.Compensate "removed %d tuple(s)" in
            same_delta dv && answers = expected.answers && masses = expected.masses
            && st.Dyno_vm.Sweep.compensations = List.length expected.masses
            && st.comp_tuples = List.fold_left ( + ) 0 expected.masses)

(* -- allocation --------------------------------------------------------- *)

(* The paper's world at 500 rows per relation, DU deltas from the steady
   timeline generator, each swept serially against the loaded sources:
   five probes a delta, one partial tuple joined to one base tuple each.
   The words are counted exactly: the minor heap is emptied before each
   read.  Hashing every partial, these sweeps allocated 518 words per
   probe; carrying them flat, 248. *)
(* The steady workload's world at 500 rows, and the compiled sweep and
   delta of each of its first 200 DUs. *)
let steady_sweeps () =
  let rows = 500 in
  let t =
    Dyno_workload.Scenario.make
      Dyno_workload.Scenario.Config.(default |> with_rows rows)
      ~timeline:(Dyno_sim.Timeline.create ())
  in
  let deltas =
    List.filter_map
      (fun (e : Dyno_sim.Timeline.entry) ->
        match e.event with Dyno_sim.Timeline.Du u -> Some u | Dyno_sim.Timeline.Sc _ -> None)
      (Dyno_sim.Timeline.peek_all
         (Dyno_workload.Generator.build ~rows ~seed:1
            (List.init 200 (fun k -> Dyno_workload.Generator.At_du (0.3 *. float_of_int k)))))
  in
  let vd = Mat_view.def t.Dyno_workload.Scenario.mv in
  let sweeps =
    List.map
      (fun u ->
        let pivot =
          List.find
            (fun (tr : Query.table_ref) ->
              String.equal tr.source (Update.source u) && String.equal tr.rel (Update.rel u))
            (Query.from (View_def.peek vd))
        in
        (Dyno_vm.Maint_query.sweep_for vd pivot, Update.delta u))
      deltas
  in
  (t, sweeps)

let sweep_words_per_probe () =
  let t, sweeps = steady_sweeps () in
  let sweep_all () =
    List.fold_left
      (fun probes (sw, delta) ->
        match Dyno_vm.Sweep.delta_view t.engine sw ~delta ~exclude:[] with
        | Ok (_, st) -> probes + st.Dyno_vm.Sweep.probes
        | Error _ -> Alcotest.fail "no probe may fail")
      0 sweeps
  in
  (* Build the indexes the probes use before counting. *)
  ignore (sweep_all () : int);
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let probes = sweep_all () in
  (words () -. w0) /. float_of_int probes

let test_sweep_allocation () =
  let per_probe = sweep_words_per_probe () in
  Printf.printf "steady-shaped sweeps: %.1f words per probe\n" per_probe;
  if per_probe > 300.0 then
    Alcotest.failf "sweeps allocate %.1f words per probe (budget 300)" per_probe

(* A sweep only streams the update's delta: its start lays the delta's
   own tuples flat (no copy of the table), and the whole sweep leaves the
   delta as it was — same rows, no index registered. *)
let test_sweep_leaves_delta () =
  let t, sweeps = steady_sweeps () in
  List.iter
    (fun (sw, delta) ->
      let before = Relation.copy delta in
      (match Dyno_vm.Maint_query.start sw delta with
      | Rows.Flat f ->
          Alcotest.(check int) "one row per delta tuple" (Relation.support delta)
            f.len;
          for i = 0 to f.len - 1 do
            if Relation.count delta f.tuples.(i) <> f.counts.(i) then
              Alcotest.fail "a start row differs from the delta's"
          done
      | Rows.Hashed _ | Rows.Projected _ ->
          Alcotest.fail "an identity start answers flat rows");
      (match Dyno_vm.Sweep.delta_view t.engine sw ~delta ~exclude:[] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "no probe may fail");
      Alcotest.(check bool) "same rows" true (Relation.equal before delta);
      Alcotest.(check int) "no index registered" 0 (Relation.index_count delta))
    sweeps

(* -- delivery ----------------------------------------------------------- *)

(* Before its commit is due, [deliver_due] allocates nothing.  Sent
   with 0.5 s of latency, the commit is then in flight with no commit
   left due; once its arrival has passed, [deliver_due] must admit it. *)
let test_deliver_due_in_flight () =
  let ds = Dyno_source.Data_source.create "ds1" in
  Dyno_source.Data_source.add_relation ds "A" a_schema;
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry ds;
  let umq = Umq.create () and timeline = Dyno_sim.Timeline.create () in
  Dyno_sim.Timeline.schedule timeline ~time:0.1
    (Dyno_sim.Timeline.Du (Update.insert ~source:"ds1" ~rel:"A" a_schema [ Value.int 1; Value.int 2; Value.int 3 ]));
  let w =
    Query_engine.create
      ~faults:{ Dyno_net.Channel.reliable with latency = 0.5 }
      ~cost:Dyno_sim.Cost_model.default ~registry ~timeline ~umqs:[| umq |] ()
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "nothing due: no allocation" (words ignore)
    (words (fun () -> Query_engine.deliver_due w));
  Query_engine.advance w 0.2;
  Alcotest.(check int) "committed, still in flight" 0 (Umq.length umq);
  Dyno_sim.Clock.advance (Query_engine.clock w) 1.0;
  Query_engine.deliver_due w;
  Alcotest.(check int) "admitted once arrived" 1 (Umq.length umq)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pipeline"
    [
      ( "flat = hashed",
        qc
          [
            prop_flat_equals_hashed ~local:false `Indexed;
            prop_flat_equals_hashed ~local:false `Nested_loop;
            prop_flat_equals_hashed ~local:true `Indexed;
            prop_flat_equals_hashed ~local:true `Nested_loop;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "sweep words per probe" `Quick test_sweep_allocation;
          Alcotest.test_case "a sweep leaves the delta untouched" `Quick
            test_sweep_leaves_delta;
        ] );
      ( "delivery",
        [ Alcotest.test_case "deliver_due admits a copy in flight" `Quick test_deliver_due_in_flight ] );
    ]
