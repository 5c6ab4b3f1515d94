(** Post-run reporting: maintenance episodes per kind and outcome (from
    the {!Stats} tally), event counts, and broken queries by source (from
    the trace). *)

open Dyno_sim

type summary = { count : int; total : float; mean : float; max : float }

type t = {
  episodes : (Stats.episode_kind * bool * summary) list;
      (** (kind, aborted, durations) for each non-empty cell, in table
          order: data updates, schema changes, merged batches; ok before
          aborted *)
  event_counts : (Trace.kind * int) list;  (** non-zero kinds only *)
  broken_by_source : (string * int) list;
}

val of_run : Stats.t -> Trace.t -> t
(** The report of a run that returned these statistics and recorded
    this trace. *)

val pp : Format.formatter -> t -> unit
