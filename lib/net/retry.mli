(** Retry policy (timeout + exponential backoff + budget) for
    maintenance-query RPCs. *)

type policy = {
  timeout : float;  (** wait per attempt before declaring it lost, s *)
  backoff : float;  (** delay before the first retry, s *)
  multiplier : float;  (** backoff growth factor per further retry *)
  max_attempts : int;  (** total attempts (first try included), >= 1 *)
}

val make :
  ?backoff:float ->
  ?multiplier:float ->
  ?max_attempts:int ->
  timeout:float ->
  unit ->
  policy
(** [backoff] defaults to [timeout /. 2]. *)

val of_cost : Dyno_sim.Cost_model.t -> policy
(** Policy derived from the cost model's [rpc_timeout]. *)

val backoff_delay : policy -> attempt:int -> float
(** Delay charged before retry number [attempt] (first retry = 1). *)

(** Verdict after the retry budget is exhausted: a transient transport
    failure, not a broken query. *)
type unreachable = { source : string; attempts : int; waited : float }

val pp_unreachable : Format.formatter -> unreachable -> unit
