(** Multi-view Dyno: one update stream, several materialized views — the
    view-set case of {!Scheduler.dispatch}.

    The paper frames Dyno for a single view but notes it "has the
    potential to be plugged into any view system"; this entry point is
    that extension.  One UMQ and one dependency-correction pipeline serve
    a {e set} of views: detection builds one graph against every valid
    view ({!Dep_graph.build_many}), and the head entry is maintained
    against each view in turn, with per-view applied sets covering a
    later view's break.  Statistics are aggregated across views; per-view
    consistency is checked with the ordinary {!Consistency} tools against
    each view's own commit log. *)

open Dyno_view

type t = Mat_view.t list

let create mvs = mvs
let views t = t

(** The shared {!Run_config.t} record; see multi_scheduler.mli for the
    knobs this entry point consumes. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : Run_config.vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
}

let default_config = Run_config.default

let run ?config ?plan (w : Query_engine.t) (t : t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  Scheduler.dispatch ?config ?plan w t mk
