(* Tests for the unreliable transport layer (lib/net) and its integration:

   - channel arithmetic: reliable pass-through, loss→retransmission delay,
     duplication, reordering holds, outage parking, FIFO flush;
   - the UMQ sequencer: exactly-once admission (dup drop, gap hold, heal);
   - retry policy backoff math;
   - zero-fault identity: a reliable channel changes nothing observable.

   That a lossy, duplicating, reordering but fair channel converges to
   the reliable run's extent is the end-to-end matrix's (matrix.ml). *)

open Dyno_net
open Dyno_relational

(* -- channel ----------------------------------------------------------- *)

let test_reliable_passthrough () =
  let ch : string Channel.t = Channel.create ~seed:42 () in
  let r = Channel.send ch ~now:1.5 ~source:"ds" ~seq:1 "m1" in
  Alcotest.(check int) "one transmission" 1 r.Channel.transmissions;
  Alcotest.(check bool) "no duplicate" false r.Channel.duplicated;
  Alcotest.(check (float 0.0)) "arrives at send time" 1.5 r.Channel.arrival;
  (match Channel.due ch ~now:1.5 with
  | [ p ] ->
      Alcotest.(check string) "payload" "m1" p.Channel.payload;
      Alcotest.(check int) "seq" 1 p.Channel.seq
  | l -> Alcotest.failf "expected 1 packet, got %d" (List.length l));
  Alcotest.(check int) "nothing left" 0 (Channel.in_flight ch);
  Alcotest.(check bool) "no rpc loss" false (Channel.rpc_lost ch);
  Alcotest.(check int) "no losses" 0 (Channel.lost_transmissions ch);
  Alcotest.(check int) "no dups" 0 (Channel.duplicates_sent ch)

let test_loss_is_retransmission_delay () =
  (* loss = 1 would never terminate without the valve; use a seed where
     loss = 0.9999… effectively forces retransmissions, then check the
     arrival honours lost × retransmit. *)
  let faults =
    { Channel.reliable with loss = 0.5; retransmit = 0.1 }
  in
  let ch : string Channel.t = Channel.create ~faults ~seed:7 () in
  let r = Channel.send ch ~now:0.0 ~source:"ds" ~seq:1 "m" in
  Alcotest.(check (float 1e-9))
    "arrival = lost × retransmit"
    (float_of_int (r.Channel.transmissions - 1) *. 0.1)
    r.Channel.arrival;
  Alcotest.(check int)
    "loss counter matches"
    (r.Channel.transmissions - 1)
    (Channel.lost_transmissions ch);
  (* eventual delivery regardless of the draw sequence *)
  Alcotest.(check bool) "in flight" true (Channel.in_flight ch = 1)

let test_duplication () =
  let faults = { Channel.reliable with dup = 1.0; retransmit = 0.1 } in
  let ch : string Channel.t = Channel.create ~faults ~seed:3 () in
  let r = Channel.send ch ~now:0.0 ~source:"ds" ~seq:5 "m" in
  Alcotest.(check bool) "duplicated" true r.Channel.duplicated;
  Alcotest.(check int) "two copies in flight" 2 (Channel.in_flight ch);
  Alcotest.(check int) "dup counter" 1 (Channel.duplicates_sent ch);
  let copies = Channel.due ch ~now:10.0 in
  Alcotest.(check int) "both arrive" 2 (List.length copies);
  Alcotest.(check bool) "same seq" true
    (List.for_all (fun (p : _ Channel.packet) -> p.Channel.seq = 5) copies)

let test_outage_parks_messages () =
  let faults =
    {
      Channel.reliable with
      outages = [ { Channel.source = "ds"; starts = 1.0; ends = 3.0 } ];
    }
  in
  let ch : string Channel.t = Channel.create ~faults ~seed:0 () in
  (* sent during the window: parked until it closes *)
  let r = Channel.send ch ~now:1.5 ~source:"ds" ~seq:1 "m" in
  Alcotest.(check (float 1e-9)) "parked to window end" 3.0 r.Channel.arrival;
  (* another source is unaffected *)
  let r2 = Channel.send ch ~now:1.5 ~source:"other" ~seq:1 "m" in
  Alcotest.(check (float 1e-9)) "other source clear" 1.5 r2.Channel.arrival;
  (match Channel.outage_at ch ~source:"ds" ~now:2.0 with
  | Some o -> Alcotest.(check (float 0.0)) "window end" 3.0 o.Channel.ends
  | None -> Alcotest.fail "outage expected");
  Alcotest.(check bool) "clear after window" true
    (Channel.outage_at ch ~source:"ds" ~now:3.0 = None)

let test_flush_source_orders_by_seq () =
  let faults =
    { Channel.reliable with reorder = 1.0; reorder_delay = 5.0 }
  in
  let ch : string Channel.t = Channel.create ~faults ~seed:1 () in
  ignore (Channel.send ch ~now:0.0 ~source:"ds" ~seq:1 "a");
  ignore (Channel.send ch ~now:1.0 ~source:"ds" ~seq:2 "b");
  ignore (Channel.send ch ~now:2.0 ~source:"other" ~seq:1 "x");
  (* all held back; the flush pops ds's copies in sequence order *)
  let flushed = Channel.flush_source ch ~source:"ds" in
  Alcotest.(check (list string)) "seq order" [ "a"; "b" ]
    (List.map (fun (p : _ Channel.packet) -> p.Channel.payload) flushed);
  Alcotest.(check int) "other stays" 1 (Channel.in_flight ch);
  match Channel.next_arrival ch with
  | Some a -> Alcotest.(check (float 1e-9)) "other's arrival" 7.0 a
  | None -> Alcotest.fail "expected pending arrival"

(* -- retry policy ------------------------------------------------------ *)

let test_backoff_math () =
  let p = Retry.make ~timeout:0.2 ~backoff:0.1 ~multiplier:2.0 () in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.1 (Retry.backoff_delay p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.2 (Retry.backoff_delay p ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.4 (Retry.backoff_delay p ~attempt:3)

(* -- UMQ sequencer ----------------------------------------------------- *)

let payload_of i =
  Dyno_view.Update_msg.Du
    (Update.make ~source:"ds" ~rel:"R"
       (Relation.of_list
          (Schema.of_list [ Attr.int "k" ])
          [ [ Value.int i ] ]))

let test_sequencer_exactly_once () =
  let open Dyno_view in
  let q = Umq.create () in
  Umq.ensure_source q ~source:"ds" ~first_seq:1;
  (* in-order admission *)
  (match Umq.deliver q ~source:"ds" ~commit_time:0.0 ~source_version:1 (payload_of 1) with
  | Umq.Admitted [ _ ] -> ()
  | _ -> Alcotest.fail "seq 1 should be admitted alone");
  (* duplicate dropped *)
  (match Umq.deliver q ~source:"ds" ~commit_time:0.0 ~source_version:1 (payload_of 1) with
  | Umq.Duplicate -> ()
  | _ -> Alcotest.fail "replayed seq 1 should be a duplicate");
  Alcotest.(check int) "dup counted" 1 (Umq.dups_dropped q);
  (* gap: seq 3 before seq 2 is held *)
  (match Umq.deliver q ~source:"ds" ~commit_time:2.0 ~source_version:3 (payload_of 3) with
  | Umq.Held -> ()
  | _ -> Alcotest.fail "seq 3 should be held");
  Alcotest.(check int) "one held" 1 (Umq.held_count q);
  Alcotest.(check int) "queue has only seq 1" 1 (Umq.length q);
  (* a second copy of the held message is also a duplicate *)
  (match Umq.deliver q ~source:"ds" ~commit_time:2.0 ~source_version:3 (payload_of 3) with
  | Umq.Duplicate -> ()
  | _ -> Alcotest.fail "held seq 3 replay should be a duplicate");
  (* the gap fills: 2 admits and drains 3 *)
  (match Umq.deliver q ~source:"ds" ~commit_time:1.0 ~source_version:2 (payload_of 2) with
  | Umq.Admitted [ m2; m3 ] ->
      Alcotest.(check int) "first is v2" 2 (Update_msg.source_version m2);
      Alcotest.(check int) "then v3" 3 (Update_msg.source_version m3)
  | _ -> Alcotest.fail "seq 2 should admit itself and release seq 3");
  Alcotest.(check int) "heal counted" 1 (Umq.reorders_healed q);
  Alcotest.(check int) "nothing held" 0 (Umq.held_count q);
  Alcotest.(check int) "all three queued" 3 (Umq.length q);
  (* per-source independence *)
  Umq.ensure_source q ~source:"other" ~first_seq:7;
  match Umq.deliver q ~source:"other" ~commit_time:3.0 ~source_version:7 (payload_of 7) with
  | Umq.Admitted [ _ ] -> ()
  | _ -> Alcotest.fail "other source starts at its own first_seq"

(* -- end-to-end: zero-fault identity ----------------------------------- *)

let test_zero_fault_identity () =
  let run ?(faults = Channel.reliable) ?(net_seed = 0) ?(parallel = 1)
      ?(self_maint = false) ?(obs = Dyno_obs.Obs.disabled) () =
    let t, stats =
      Dyno_workload.Spec.run
        {
          Fixture.base with
          seed = 11;
          dus = 12;
          scs = 2;
          world =
            Dyno_workload.Scenario.Config.(
              Fixture.base.world |> with_trace true |> with_faults faults
              |> with_net_seed net_seed |> with_obs obs);
          run =
            Dyno_core.Run_config.(
              default |> with_parallel parallel |> with_self_maint self_maint);
        }
    in
    ( Fmt.str "%a" Dyno_core.Stats.pp stats,
      Dyno_view.Mat_view.extent t.mv,
      Dyno_sim.Trace.entries t.trace )
  in
  let check_identical what (s0, e0, t0) (s1, e1, t1) =
    Alcotest.(check string) (what ^ ": stats byte-identical") s0 s1;
    Alcotest.(check bool)
      (what ^ ": extent identical")
      true (Relation.equal e0 e1);
    (* the recorded event sequences must match entry for entry, not just in
       aggregate: neither a reliable channel nor a degenerate parallel
       degree leaves any footprint in the trace *)
    Alcotest.(check int)
      (what ^ ": same trace length")
      (List.length t0) (List.length t1);
    List.iteri
      (fun i ((a : Dyno_sim.Trace.entry), (b : Dyno_sim.Trace.entry)) ->
        Alcotest.(check string)
          (Fmt.str "%s: trace entry %d identical" what i)
          (Fmt.str "%a" Dyno_sim.Trace.pp_entry a)
          (Fmt.str "%a" Dyno_sim.Trace.pp_entry b))
      (List.combine t0 t1)
  in
  let base = run () in
  check_identical "reliable channel" base
    (run ~faults:Channel.reliable ~net_seed:987654 ());
  (* --parallel 1 must take the serial path bit for bit: same stats, same
     extent, byte-identical trace. *)
  check_identical "parallel=1" base (run ~parallel:1 ());
  (* --self-maint off must leave no footprint: no admit hook installed,
     no store built, output byte-identical to the historical run. *)
  check_identical "self-maint off" base (run ~self_maint:false ());
  (* observability is pure observation: recording spans/metrics without
     the sampler, and sampling the time series itself, both leave the run
     byte-identical to the obs-disabled baseline. *)
  check_identical "obs on, sampler off" base
    (run ~obs:(Dyno_obs.Obs.create ()) ());
  let sampled = Dyno_obs.Obs.create ~sample_interval:0.25 () in
  check_identical "obs on, sampler on" base (run ~obs:sampled ());
  Alcotest.(check bool) "the sampler did actually sample" true
    (Dyno_obs.Timeseries.length (Dyno_obs.Obs.series sampled) > 0);
  (* lineage is pure observation too: recording it, or switching it off
     while the rest of obs stays on, both leave the run byte-identical *)
  let lineage_on = Dyno_obs.Obs.create () in
  check_identical "obs on, lineage on" base (run ~obs:lineage_on ());
  Alcotest.(check bool) "lineage did actually record" true
    (Dyno_obs.Lineage.records (Dyno_obs.Obs.lineage lineage_on) <> []);
  check_identical "obs on, lineage off" base
    (run ~obs:(Dyno_obs.Obs.create ~lineage:false ()) ())

let () =
  Alcotest.run "net"
    [
      ( "channel",
        [
          Alcotest.test_case "reliable pass-through" `Quick
            test_reliable_passthrough;
          Alcotest.test_case "loss = retransmission delay" `Quick
            test_loss_is_retransmission_delay;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "outage parking" `Quick test_outage_parks_messages;
          Alcotest.test_case "flush is seq-ordered" `Quick
            test_flush_source_orders_by_seq;
        ] );
      ("retry", [ Alcotest.test_case "backoff math" `Quick test_backoff_math ]);
      ( "sequencer",
        [
          Alcotest.test_case "exactly-once admission" `Quick
            test_sequencer_exactly_once;
        ] );
      ( "identity",
        [
          Alcotest.test_case "zero faults change nothing" `Quick
            test_zero_fault_identity;
        ] );
    ]
