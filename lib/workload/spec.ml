(** One run, declared once: seed, timeline recipe, world and run
    configuration. *)

type t = {
  seed : int;
  dus : int;
  du_interval : float;
  scs : int;
  sc_start : float;
  sc_interval : float;
  world : Scenario.Config.t;
  run : Scenario.Run_config.t;
}

let default =
  {
    seed = 1;
    dus = 100;
    du_interval = 1.0;
    scs = 5;
    sc_start = 0.0;
    sc_interval = 10.0;
    world = Scenario.Config.default;
    run = Scenario.Run_config.default;
  }

let paper_world ~rows =
  Scenario.Config.(
    default |> with_rows rows
    |> with_cost (Dyno_sim.Cost_model.scaled (100_000.0 /. float_of_int rows)))

let with_transport ?net_seed (faults : Dyno_net.Channel.faults) t =
  let faults =
    {
      faults with
      reorder_delay = (if faults.reorder > 0.0 then faults.reorder_delay else 0.0);
      retransmit = t.world.cost.Dyno_sim.Cost_model.retransmit_interval;
    }
  in
  let net_seed = Option.value net_seed ~default:t.seed in
  {
    t with
    world =
      Scenario.Config.(t.world |> with_faults faults |> with_net_seed net_seed);
  }

let timeline t =
  Generator.mixed ~rows:t.world.rows ~seed:t.seed ~n_dus:t.dus
    ~du_interval:t.du_interval ~sc_start:t.sc_start ~sc_interval:t.sc_interval
    ~sc_kinds:(Generator.drop_then_renames t.scs)
    ()

let build ?timeline:tl t =
  let timeline = match tl with Some tl -> tl | None -> timeline t in
  Scenario.make t.world ~timeline

let run ?timeline t =
  let w = build ?timeline t in
  (w, Scenario.run w ~config:t.run)
