(* Sharded Dyno: see shard_scheduler.mli for the protocol. *)

let run ?config ~plan (w : Dyno_view.Query_engine.t) (mv : Dyno_view.Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  Scheduler.dispatch ?config ~plan w [ mv ] mk
