(* Unit tests for the view-manager infrastructure: UMQ (flags, reorder
   invariants, pending-DU index), View_def (read/write/rollback), Mat_view
   (refresh guard, commit log), Query_engine (delivery order and in-exec
   broken-query detection). *)

open Dyno_relational
open Dyno_view

let schema = Schema.of_list [ Attr.int "k" ]

let du_payload k =
  Update_msg.Du
    (Update.make ~source:"ds" ~rel:"R" (Relation.of_list schema [ [ Value.int k ] ]))

let sc_payload () =
  Update_msg.Sc
    (Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "R2" })

let test_umq_enqueue_and_flags () =
  let q = Umq.create () in
  Alcotest.(check bool) "starts empty" true (Umq.is_empty q);
  let m0 = Umq.enqueue q ~commit_time:0.0 ~source_version:1 (du_payload 1) in
  Alcotest.(check int) "id 0" 0 (Update_msg.id m0);
  Alcotest.(check bool) "no SC flag from DU" false (Umq.peek_schema_change_flag q);
  let _m1 = Umq.enqueue q ~commit_time:1.0 ~source_version:2 (sc_payload ()) in
  Alcotest.(check bool) "SC sets flag" true (Umq.peek_schema_change_flag q);
  Alcotest.(check bool) "test-and-clear returns true" true
    (Umq.test_and_clear_schema_change_flag q);
  Alcotest.(check bool) "then false" false (Umq.test_and_clear_schema_change_flag q);
  Alcotest.(check int) "length" 2 (Umq.length q);
  Alcotest.(check int) "history" 2 (List.length (Umq.history q))

let test_umq_remove_head () =
  let q = Umq.create () in
  let m0 = Umq.enqueue q ~commit_time:0.0 ~source_version:1 (du_payload 1) in
  let m1 = Umq.enqueue q ~commit_time:1.0 ~source_version:2 (du_payload 2) in
  ignore m1;
  (match Umq.head q with
  | Some (Umq.Single m) -> Alcotest.(check int) "head is first" (Update_msg.id m0) (Update_msg.id m)
  | _ -> Alcotest.fail "expected head");
  Umq.remove_head q;
  Alcotest.(check int) "one left" 1 (Umq.length q);
  (* history survives removal *)
  Alcotest.(check int) "history intact" 2 (List.length (Umq.history q))

let test_umq_replace_invariant () =
  let q = Umq.create () in
  let m0 = Umq.enqueue q ~commit_time:0.0 ~source_version:1 (du_payload 1) in
  let m1 = Umq.enqueue q ~commit_time:1.0 ~source_version:2 (du_payload 2) in
  (* legal: reorder *)
  Umq.replace q [ Umq.Single m1; Umq.Single m0 ];
  (match Umq.head q with
  | Some (Umq.Single m) -> Alcotest.(check int) "reordered" 1 (Update_msg.id m)
  | _ -> Alcotest.fail "head");
  (* legal: merge into a batch *)
  Umq.replace q [ Umq.Batch [ m0; m1 ] ];
  Alcotest.(check int) "merged" 1 (Umq.length q);
  (* illegal: dropping an update *)
  Alcotest.(check bool) "dropping update rejected" true
    (match Umq.replace q [ Umq.Single m0 ] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_umq_pending_index () =
  let q = Umq.create () in
  let _ = Umq.enqueue q ~commit_time:0.0 ~source_version:1 (du_payload 1) in
  let _ = Umq.enqueue q ~commit_time:1.0 ~source_version:2 (du_payload 2) in
  let _ = Umq.enqueue q ~commit_time:2.0 ~source_version:3 (sc_payload ()) in
  let pend = Umq.pending_dus q ~source:"ds" ~rel:"R" in
  Alcotest.(check int) "two pending DUs (SC not indexed)" 2 (List.length pend);
  (* in commit order *)
  (match pend with
  | [ (a, _); (b, _) ] ->
      Alcotest.(check bool) "ordered" true (Update_msg.id a < Update_msg.id b)
  | _ -> Alcotest.fail "expected 2");
  Umq.remove_head q;
  Alcotest.(check int) "index follows removal" 1
    (List.length (Umq.pending_dus q ~source:"ds" ~rel:"R"));
  Alcotest.(check int) "other rel empty" 0
    (List.length (Umq.pending_dus q ~source:"ds" ~rel:"Other"))

(* -- UMQ pending-delta sums ------------------------------------------

   Random operation sequences over two identical queues: [eager] is read
   after every step, so its sums always exist and are maintained by
   every admission and removal; [lazy_] is read only at the sequence's
   compensation reads, so its sums are built at random depths.  Two
   delta schemas share relation R, deltas carry both signs; R@ds is fed
   by [enqueue], R@dsd through the sequencer. *)

let schema_b = Schema.of_list [ Attr.int "k"; Attr.int "v" ]

let du_delta ~wide entries =
  if wide then
    Relation.of_counted schema_b
      (List.map (fun (k, c) -> ([ Value.int k; Value.int (k mod 2) ], c)) entries)
  else Relation.of_counted schema (List.map (fun (k, c) -> ([ Value.int k ], c)) entries)

(* What the sequencer source sends as sequence number [s]. *)
let seq_payload s =
  Update_msg.Du
    (Update.make ~source:"dsd" ~rel:"R"
       (du_delta ~wide:(s mod 2 = 1) [ (s mod 4, if s mod 3 = 0 then -1 else 1) ]))

type umq_op =
  | Enq of bool * (int * int) list  (** DU on R@ds: wide schema?, (k, count) *)
  | Enq_sc
  | Deliver of int  (** sequence number; duplicates and gaps included *)
  | Remove_head
  | Remove_entry of int
  | Replace of int * int * int  (** shuffle seed, merge start, merge length *)
  | Read of int list * int option  (** exclusion ids, commit-time frontier *)

let pp_umq_op ppf = function
  | Enq (w, es) ->
      Fmt.pf ppf "Enq(%b,%a)" w Fmt.(Dump.list (Dump.pair int int)) es
  | Enq_sc -> Fmt.string ppf "Enq_sc"
  | Deliver s -> Fmt.pf ppf "Deliver %d" s
  | Remove_head -> Fmt.string ppf "Remove_head"
  | Remove_entry i -> Fmt.pf ppf "Remove_entry %d" i
  | Replace (a, b, c) -> Fmt.pf ppf "Replace(%d,%d,%d)" a b c
  | Read (ex, after) ->
      Fmt.pf ppf "Read(%a,%a)" Fmt.(Dump.list int) ex Fmt.(Dump.option int) after

let gen_umq_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun w es -> Enq (w, es))
            bool
            (list_size (int_range 0 3) (pair (int_range 0 3) (int_range (-2) 2))) );
        (1, return Enq_sc);
        (4, map (fun s -> Deliver s) (int_range 0 30));
        (3, return Remove_head);
        (2, map (fun i -> Remove_entry i) nat);
        (2, map3 (fun a b c -> Replace (a, b, c)) nat nat (int_range 1 4));
        ( 3,
          map2
            (fun ex after -> Read (ex, after))
            (list_size (int_range 0 4) (int_range 0 40))
            (opt (int_range 0 30)) );
      ])

(* The grouping SWEEP used before the queue kept sums: filter the pending
   DUs, then sum per delta schema in first-seen order. *)
let reference_sums q ~source ~rel ~exclude ~after =
  List.fold_left
    (fun groups (m, u) ->
      if
        List.mem (Update_msg.id m) exclude
        || match after with Some t -> Update_msg.commit_time m > t | None -> false
      then groups
      else
        let rec add = function
          | [] -> [ (Update.schema u, Relation.copy (Update.delta u), 1) ]
          | (s, d, n) :: rest when Schema.equal s (Update.schema u) ->
              (s, Relation.sum d (Update.delta u), n + 1) :: rest
          | g :: rest -> g :: add rest
        in
        add groups)
    [] (Umq.pending_dus q ~source ~rel)

let sums_agree q ~source ~rel ~exclude ~after =
  let got = Umq.pending_sums ?after q ~source ~rel ~exclude in
  let want = reference_sums q ~source ~rel ~exclude ~after in
  List.length got = List.length want
  && List.for_all2
       (fun (g : Umq.pending_sum) (s, d, n) ->
         g.count > 0 && g.count = n && Schema.equal g.schema s
         && Relation.equal g.sum d)
       got want

(* The index agrees with the queue itself: R's DUs, in commit order. *)
let index_agrees q ~source ~rel =
  let queued =
    List.filter
      (fun m ->
        Update_msg.is_du m
        && String.equal (Update_msg.source m) source
        && String.equal (Update_msg.rel m) rel)
      (Umq.messages q)
    |> List.sort (fun a b -> compare (Update_msg.id a) (Update_msg.id b))
  in
  List.map Update_msg.id queued
  = List.map (fun (m, _) -> Update_msg.id m) (Umq.pending_dus q ~source ~rel)

let keys = [ ("ds", "R"); ("dsd", "R") ]

let step q ~clock op =
  match op with
  | Enq (wide, es) ->
      ignore
        (Umq.enqueue q ~commit_time:(float_of_int clock) ~source_version:clock
           (Update_msg.Du (Update.make ~source:"ds" ~rel:"R" (du_delta ~wide es))))
  | Enq_sc ->
      ignore
        (Umq.enqueue q ~commit_time:(float_of_int clock) ~source_version:clock
           (sc_payload ()))
  | Deliver s ->
      ignore
        (Umq.deliver q ~source:"dsd" ~commit_time:(float_of_int s)
           ~source_version:s (seq_payload s))
  | Remove_head -> Umq.remove_head q
  | Remove_entry i -> (
      match Umq.entries q with
      | [] -> ()
      | es -> Umq.remove_entry q (List.nth es (i mod List.length es)))
  | Replace (seed, start, len) ->
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun e -> (Random.State.bits rng, e)) (Umq.entries q)
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let n = List.length shuffled in
      let start = if n = 0 then 0 else start mod n in
      let inside i = i >= start && i < start + len in
      let merged =
        List.filteri (fun i _ -> inside i) shuffled
        |> List.concat_map Umq.entry_messages
      in
      Umq.replace q
        (List.concat
           (List.mapi
              (fun i e ->
                if not (inside i) then [ e ]
                else if i = start then [ Umq.Batch merged ]
                else [])
              shuffled))
  | Read _ -> ()

let prop_umq_sums =
  QCheck.Test.make ~name:"UMQ sums = per-schema sums of pending DUs" ~count:300
    (QCheck.make
       ~print:Fmt.(str "%a" (Dump.list pp_umq_op))
       QCheck.Gen.(list_size (int_range 0 40) gen_umq_op))
    (fun ops ->
      let eager = Umq.create () and lazy_ = Umq.create () in
      List.iter (fun q -> Umq.ensure_source q ~source:"dsd" ~first_seq:0) [ eager; lazy_ ];
      let ok = ref true in
      let check q ~exclude ~after =
        List.iter
          (fun (source, rel) ->
            if
              not
                (index_agrees q ~source ~rel
                && sums_agree q ~source ~rel ~exclude ~after)
            then ok := false)
          keys
      in
      List.iteri
        (fun clock op ->
          step eager ~clock op;
          step lazy_ ~clock op;
          check eager ~exclude:[] ~after:None;
          match op with
          | Read (exclude, after) ->
              let after = Option.map float_of_int after in
              check eager ~exclude ~after;
              check lazy_ ~exclude ~after
          | _ -> ())
        ops;
      check lazy_ ~exclude:[] ~after:None;
      !ok)

let view_q () =
  Query.make ~name:"V"
    ~select:[ Query.item "R.k" ]
    ~from:[ Query.table ~alias:"R" "ds" "R" ]
    ~where:[]

let test_view_def () =
  let vd = View_def.create ~schemas:[ ("R", schema) ] (view_q ()) in
  Alcotest.(check int) "version 0" 0 (View_def.version vd);
  let _q, v = View_def.read vd in
  Alcotest.(check int) "read version" 0 v;
  Alcotest.(check int) "reads counted" 1 (View_def.reads vd);
  let saved = View_def.save vd in
  View_def.write vd ~schemas:[ ("R", schema) ]
    (Query.rename_relation (view_q ()) ~source:"ds" ~old_rel:"R" ~new_rel:"R2");
  Alcotest.(check int) "version bumped" 1 (View_def.version vd);
  Alcotest.(check bool) "rewritten" true
    (Query.mentions_relation (View_def.peek vd) ~source:"ds" ~rel:"R2");
  View_def.restore vd saved;
  Alcotest.(check bool) "rolled back" true
    (Query.mentions_relation (View_def.peek vd) ~source:"ds" ~rel:"R");
  View_def.invalidate vd;
  Alcotest.(check bool) "invalid" false (View_def.is_valid vd)

let test_mat_view () =
  let vd = View_def.create ~schemas:[ ("R", schema) ] (view_q ()) in
  let mv =
    Mat_view.create ~track_snapshots:true vd (Relation.of_list schema [ [ Value.int 1 ] ])
  in
  let delta = Relation.of_counted schema [ ([ Value.int 2 ], 1) ] in
  Mat_view.refresh mv ~at:1.0 ~maintained:[ 0 ] delta;
  Alcotest.(check int) "extent grew" 2 (Relation.cardinality (Mat_view.extent mv));
  Alcotest.(check int) "one commit" 1 (Mat_view.commit_count mv);
  (match Mat_view.commits mv with
  | [ c ] ->
      Alcotest.(check bool) "snapshot taken" true
        (match c.Mat_view.logged with
        | Some (Mat_view.Delta d, _) -> Relation.equal d delta && d != delta
        | _ -> false);
      Alcotest.(check bool) "roll starts from the created extent" true
        (match Mat_view.initial_extent mv with
        | Some e ->
            Relation.equal e (Relation.of_list schema [ [ Value.int 1 ] ])
        | None -> false);
      Alcotest.(check (list int)) "maintained ids" [ 0 ] c.Mat_view.maintained
  | _ -> Alcotest.fail "one commit expected");
  (* deleting a non-existent tuple trips the guard *)
  let bad =
    Relation.of_counted schema [ ([ Value.int 1 ], -1); ([ Value.int 99 ], -1) ]
  in
  let before = Relation.copy (Mat_view.extent mv) in
  Alcotest.(check bool) "negative refresh trapped" true
    (match Mat_view.refresh mv ~at:2.0 ~maintained:[ 1 ] bad with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* ...before any of it is applied: the valid deletion of 1 is not *)
  Alcotest.(check bool) "extent unchanged after rejected refresh" true
    (Relation.equal before (Mat_view.extent mv));
  Alcotest.(check int) "no commit for the rejected refresh" 1
    (Mat_view.commit_count mv)

(* -- Query_engine: delivery semantics ------------------------------- *)

let make_world () =
  let src = Dyno_source.Data_source.create "ds" in
  Dyno_source.Data_source.add_relation src "R" schema;
  Dyno_source.Data_source.load src "R" [ [ Value.int 1 ] ];
  let registry = Dyno_source.Registry.create () in
  Dyno_source.Registry.register registry src;
  let umq = Umq.create () in
  let timeline = Dyno_sim.Timeline.create () in
  let w =
    Query_engine.create
      ~cost:{ Dyno_sim.Cost_model.default with row_scale = 1.0 }
      ~registry ~timeline ~umqs:[| umq |] ()
  in
  (w, src, timeline, umq)

let test_engine_delivery_before_answer () =
  let w, _src, timeline, umq = make_world () in
  (* a DU commits 10ms into the 30ms probe round trip: the answer must
     include it (Definition 2) and the message must be queued *)
  Dyno_sim.Timeline.schedule timeline ~time:0.01
    (Dyno_sim.Timeline.Du
       (Update.make ~source:"ds" ~rel:"R" (Relation.of_list schema [ [ Value.int 2 ] ])));
  match Query_engine.execute_timed w (view_q ()) ~bound:[] ~target:"ds" with
  | Ok (ans, _) ->
      Alcotest.(check int) "answer reflects concurrent commit" 2
        (Relation.cardinality (Rows.relation ans.Dyno_source.Data_source.rows));
      Alcotest.(check int) "message enqueued" 1 (Umq.length umq)
  | Error _ -> Alcotest.fail "no break expected"

let test_engine_broken_flag () =
  let w, _src, timeline, umq = make_world () in
  Dyno_sim.Timeline.schedule timeline ~time:0.01
    (Dyno_sim.Timeline.Sc
       (Schema_change.Drop_relation { source = "ds"; name = "R" }));
  (match Query_engine.execute_timed w (view_q ()) ~bound:[] ~target:"ds" with
  | Ok _ -> Alcotest.fail "probe should break"
  | Error b ->
      Alcotest.(check string) "reason mentions relation" "ds"
        b.Dyno_source.Data_source.source);
  Alcotest.(check bool) "broken flag raised" true (Umq.broken_query_flag umq)

let test_engine_validate () =
  let w, _src, timeline, _umq = make_world () in
  Alcotest.(check bool) "valid now" true
    (Query_engine.validate w (view_q ()) ~target:"ds" = Ok ());
  Dyno_sim.Timeline.schedule timeline ~time:0.001
    (Dyno_sim.Timeline.Sc
       (Schema_change.Rename_relation { source = "ds"; old_name = "R"; new_name = "RX" }));
  Alcotest.(check bool) "validation catches rename" true
    (match Query_engine.validate w (view_q ()) ~target:"ds" with
    | Error _ -> true
    | Ok () -> false)

let () =
  Alcotest.run "view"
    [
      ( "umq",
        [
          Alcotest.test_case "enqueue & flags" `Quick test_umq_enqueue_and_flags;
          Alcotest.test_case "remove head" `Quick test_umq_remove_head;
          Alcotest.test_case "replace preserves updates" `Quick test_umq_replace_invariant;
          Alcotest.test_case "pending-DU index" `Quick test_umq_pending_index;
          QCheck_alcotest.to_alcotest prop_umq_sums;
        ] );
      ( "view definition & extent",
        [
          Alcotest.test_case "read/write/rollback" `Quick test_view_def;
          Alcotest.test_case "materialized view" `Quick test_mat_view;
        ] );
      ( "query engine",
        [
          Alcotest.test_case "commits delivered before answer" `Quick
            test_engine_delivery_before_answer;
          Alcotest.test_case "in-exec broken detection" `Quick test_engine_broken_flag;
          Alcotest.test_case "metadata validation" `Quick test_engine_validate;
        ] );
    ]
