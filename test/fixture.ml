(* The run the end-to-end tests start from: the paper's world at 10
   tuples per relation charged at face value, every commit tracked, DUs
   0.2 s apart and the schema-change train from 0.1 s, 1.5 s apart.  A
   test sets the seed and the counts, and the faults, shards, recorders
   or run configuration it varies. *)

let base : Dyno_workload.Spec.t =
  {
    Dyno_workload.Spec.default with
    du_interval = 0.2;
    sc_start = 0.1;
    sc_interval = 1.5;
    world =
      Dyno_workload.Scenario.Config.(
        default |> with_rows 10
        |> with_cost { Dyno_sim.Cost_model.default with row_scale = 1.0 }
        |> with_snapshots true);
  }

(* [s] over the properties' fair-lossy channel: [loss], [dup] and
   [reorder] rates, a 0.5 s reorder hold and 0.05 s retransmission, on
   channel stream [net_seed]. *)
let faulty ~loss ~dup ~reorder ~net_seed (s : Dyno_workload.Spec.t) =
  let faults =
    {
      Dyno_net.Channel.reliable with
      loss;
      dup;
      reorder;
      reorder_delay = 0.5;
      retransmit = 0.05;
    }
  in
  {
    s with
    world =
      Dyno_workload.Scenario.Config.(
        s.world |> with_faults faults |> with_net_seed net_seed);
  }

(* Per-source sets of update messages integrated into the view: commit-log
   [maintained] ids resolved through the world's id -> (source, version)
   index, deduplicated and sorted.  Runs that order commits differently
   on the clock (parallel, sharded, self-maintained) must still apply the
   same updates of every source. *)
let applied_per_source (t : Dyno_workload.Scenario.t) =
  let index = Dyno_workload.Scenario.msg_index t in
  let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Dyno_view.Mat_view.commit) ->
      List.iter
        (fun id ->
          match List.assoc_opt id index with
          | None -> ()
          | Some (src, version) -> (
              match Hashtbl.find_opt tbl src with
              | Some l -> l := version :: !l
              | None -> Hashtbl.add tbl src (ref [ version ])))
        c.maintained)
    (Dyno_view.Mat_view.commits t.mv);
  Hashtbl.fold
    (fun src l acc -> (src, List.sort_uniq Int.compare !l) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
