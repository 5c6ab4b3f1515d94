(** Retry policy for maintenance-query RPCs.

    A probe that gets no answer within [timeout] simulated seconds is
    retried after an exponentially growing backoff, up to [max_attempts]
    total attempts.  Exhausting the budget yields an {!unreachable}
    verdict — a {e transient} transport failure, distinct from a broken
    query: the scheduler waits for the source to recover and retries the
    maintenance step instead of aborting into VS/VA. *)

open Dyno_sim

type policy = {
  timeout : float;  (** wait per attempt before declaring it lost, s *)
  backoff : float;  (** delay before the first retry, s *)
  multiplier : float;  (** backoff growth factor per further retry *)
  max_attempts : int;  (** total attempts (first try included), >= 1 *)
}

let make ?(backoff = 0.0) ?(multiplier = 2.0) ?(max_attempts = 5) ~timeout ()
    =
  let backoff = if backoff > 0.0 then backoff else timeout /. 2.0 in
  { timeout; backoff; multiplier; max_attempts = max 1 max_attempts }

(** Derive a policy from the cost model's transport constants. *)
let of_cost (cm : Cost_model.t) = make ~timeout:cm.rpc_timeout ()

(** [backoff_delay p ~attempt] — delay charged before retry number
    [attempt] (the first retry is attempt 1). *)
let backoff_delay p ~attempt =
  p.backoff *. (p.multiplier ** float_of_int (max 0 (attempt - 1)))

(** Verdict after the retry budget is exhausted. *)
type unreachable = {
  source : string;
  attempts : int;  (** how many probes were sent *)
  waited : float;  (** simulated seconds spent on timeouts + backoff *)
}

let pp_unreachable ppf u =
  Fmt.pf ppf "source %s unreachable after %d attempts (%.3fs waited)"
    u.source u.attempts u.waited
