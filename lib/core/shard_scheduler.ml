(* Sharded Dyno: see shard_scheduler.mli for the protocol. *)

let run ?config ~plan (w : Dyno_view.Query_engine.t) (mv : Dyno_view.Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let n = Shard.count plan in
  if n > 1 && Dyno_view.Query_engine.route_count w <> n then
    invalid_arg
      (Fmt.str "Shard_scheduler.run: %d shard(s) but %d engine route(s)" n
         (Dyno_view.Query_engine.route_count w));
  Scheduler.dispatch ?config ~plan w [ mv ] mk
