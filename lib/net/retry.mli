(** Retry policy (timeout + exponential backoff + attempt budget) for
    maintenance-query RPCs.  A used-up budget is not an error: the query
    waits for its source and starts a fresh round of attempts. *)

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

(** The payload of the constructors perfbench's copied serial loop
    still matches: [Vm.Unreachable], [Vm.Swept_unreachable] and
    [Scheduler.UnreachableStep].  It has no value: a query whose attempts
    run out waits for its source and is asked again
    ([Query_engine.execute_timed]), so nothing builds those constructors.
    Abstract here rather than visibly empty, so that an arm matching one
    of them is not an unused match case, an error in perfbench's dev
    build. *)
type unreachable

val absurd : unreachable -> 'a
(** The arm of a constructor that carries an {!unreachable}: never
    runs. *)
