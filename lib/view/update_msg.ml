(** Update messages: what the wrappers deliver into the Update Message
    Queue.

    Each message wraps one autonomous source commit — a data update or a
    schema change — together with the commit time and the source version
    it produced.  The id is assigned by the UMQ manager at enqueue time and
    identifies the corresponding maintenance process in the dependency
    graph. *)

open Dyno_relational

type payload = Dyno_sim.Timeline.event =
  | Du of Update.t
  | Sc of Schema_change.t

type t = {
  id : int;  (** unique, in arrival order *)
  commit_time : float;  (** when the source committed it *)
  source_version : int;
      (** source version right after this commit — also the per-source
          monotone sequence number the transport dedups and reorders on *)
  payload : payload;
}

let make ~id ~commit_time ~source_version payload =
  { id; commit_time; source_version; payload }

let id m = m.id
let commit_time m = m.commit_time
let source_version m = m.source_version
let payload m = m.payload

let source m = Dyno_sim.Timeline.event_source m.payload

(** Relation targeted, under its name at commit time. *)
let rel m =
  match m.payload with
  | Du u -> Update.rel u
  | Sc sc -> Schema_change.rel sc

let is_sc m = match m.payload with Sc _ -> true | Du _ -> false
let is_du m = match m.payload with Du _ -> true | Sc _ -> false

let as_du m = match m.payload with Du u -> Some u | Sc _ -> None
let as_sc m = match m.payload with Sc sc -> Some sc | Du _ -> None

let pp ppf m =
  match m.payload with
  | Du u ->
      Fmt.pf ppf "#%d@%.3fs DU(%s@%s, %d tuples)" m.id m.commit_time
        (Update.rel u) (Update.source u) (Update.size u)
  | Sc sc -> Fmt.pf ppf "#%d@%.3fs SC(%a)" m.id m.commit_time Schema_change.pp sc
