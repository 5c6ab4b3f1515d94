(* Property tests for dependency-parallel maintenance: running the
   scheduler with [parallel > 1] must be observationally equivalent to the
   serial scheduler.  Antichain members carry exclusion sets fixed at
   dispatch and commit serially at the barrier in queue order, so the only
   thing parallelism may change is the simulated clock — never the view.

   The property is checked under fault injection: loss, duplication and
   reordering on the probe channel exercise retries, aborts and
   compensations inside parallel rounds. *)

open Dyno_relational

let arb_parallel_workload =
  QCheck.make
    QCheck.Gen.(
      let f01 lo hi = map (fun x -> float_of_int x /. 100.0) (int_range lo hi) in
      pair
        (quad (int_range 1 10000) (int_range 1 12) (int_range 0 2) (int_range 0 2))
        (quad (f01 0 25) (f01 0 25) (pair (f01 0 25) (int_range 2 6))
           (int_range 0 1000)))
    ~print:(fun ((seed, dus, scs, strat), (loss, dup, (reorder, par), net_seed)) ->
      Fmt.str
        "seed=%d dus=%d scs=%d strategy=%d loss=%.2f dup=%.2f reorder=%.2f \
         parallel=%d net_seed=%d"
        seed dus scs strat loss dup reorder par net_seed)

(* The golden property of the parallel engine: for every workload, fault
   mix and strategy, [parallel = k] reaches the same final extent, the
   same strong-consistency verdict and the same per-source applied-update
   sets as the serial scheduler. *)
let prop_parallel_equals_serial =
  QCheck.Test.make
    ~name:"parallel maintenance is observationally serial (faults included)"
    ~count:300 arb_parallel_workload
    (fun ((seed, n_dus, n_scs, strat), (loss, dup, (reorder, par), net_seed)) ->
      let strategy = List.nth Dyno_core.Strategy.all strat in
      let spec =
        Fixture.faulty ~loss ~dup ~reorder ~net_seed
          { Fixture.base with seed; dus = n_dus; scs = n_scs }
      in
      let run ~parallel =
        Dyno_workload.Spec.run
          {
            spec with
            run =
              Dyno_core.Run_config.(
                of_strategy strategy |> with_parallel parallel);
          }
      in
      let ts, stats_s = run ~parallel:1 in
      let tp, stats_p = run ~parallel:par in
      let same_extent =
        Relation.equal
          (Dyno_view.Mat_view.extent ts.Dyno_workload.Scenario.mv)
          (Dyno_view.Mat_view.extent tp.Dyno_workload.Scenario.mv)
      in
      let strong_s =
        Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong ts)
      in
      let strong_p =
        Dyno_core.Consistency.ok (Dyno_workload.Scenario.check_strong tp)
      in
      let convergent =
        match Dyno_workload.Scenario.check_convergent tp with
        | Ok b -> b
        | Error _ -> false
      in
      let same_applied =
        Fixture.applied_per_source ts = Fixture.applied_per_source tp
      in
      let no_undefined =
        stats_s.Dyno_core.Stats.view_undefined
        = stats_p.Dyno_core.Stats.view_undefined
      in
      same_extent && convergent
      && Bool.equal strong_s strong_p
      && same_applied && no_undefined)

let to_alcotest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        List.map to_alcotest [ prop_parallel_equals_serial ] );
    ]
