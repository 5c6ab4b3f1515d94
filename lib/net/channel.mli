(** Simulated unreliable message channel between the view manager and the
    autonomous sources, with deterministic fault injection.

    A {!reliable} channel is a structural pass-through: it draws nothing
    from its RNG and delivers every message at its send time, so the
    zero-fault configuration behaves bit-identically to a direct
    in-process call. *)

(** A timed window during which one source is unreachable. *)
type outage = {
  source : string;  (** unreachable source *)
  starts : float;  (** window start (inclusive), s *)
  ends : float;  (** window end (exclusive), s *)
}

type faults = {
  latency : float;  (** fixed one-way delivery delay, s *)
  jitter : float;  (** max extra uniform delay per message, s *)
  loss : float;  (** P[one transmission is lost] *)
  dup : float;  (** P[a message is delivered twice] *)
  reorder : float;  (** P[a message is held back past its successors] *)
  reorder_delay : float;  (** how long a held-back message is delayed, s *)
  retransmit : float;  (** wrapper retransmission interval after a loss, s *)
  outages : outage list;
}

val reliable : faults
(** All rates and delays zero; no outages. *)

(** One delivered copy of an update message. *)
type 'a packet = {
  source : string;
  seq : int;  (** per-source monotone sequence number *)
  sent : float;  (** commit time at the source *)
  arrival : float;  (** when the view manager receives this copy *)
  payload : 'a;
}

type 'a t

(** [create ?faults ?obs ~seed ()] — [obs] (default
    {!Dyno_obs.Obs.disabled}) receives instant events ([msg-lost],
    [msg-dup], [msg-held], on the source's logical thread) and the
    [net.*] fault counters. *)
val create :
  ?faults:faults -> ?obs:Dyno_obs.Obs.t -> seed:int -> unit -> 'a t
(** @raise Invalid_argument unless [faults.loss] is below 1: a message
    and a maintenance query are retried until one copy gets through, so
    a channel that loses every copy would never deliver. *)

val in_flight : 'a t -> int

val has_packets : 'a t -> bool
(** Some copy is in flight: [in_flight t > 0] in O(1). *)

val lost_transmissions : 'a t -> int
(** Total transmissions dropped by the channel (each was retransmitted). *)

val duplicates_sent : 'a t -> int
(** Total messages the channel delivered twice. *)

type send_report = {
  transmissions : int;  (** 1 + number of lost copies before one arrived *)
  duplicated : bool;
  arrival : float;  (** arrival of the first surviving copy *)
}

val send :
  'a t -> now:float -> source:string -> seq:int -> 'a -> send_report
(** Inject one update message.  Loss is modelled as wrapper retransmission
    — every message eventually arrives, delayed by
    [lost × retransmit]. *)

val due : 'a t -> now:float -> 'a packet list
(** Pop every copy whose arrival time has passed, in arrival order. *)

val flush_source : 'a t -> source:string -> 'a packet list
(** Pop every in-flight copy from [source] regardless of arrival time, in
    sequence order.  Called when a maintenance-query answer arrives from
    that source: under SWEEP's FIFO-stream assumption the answer travels
    the same ordered stream as the updates, so its arrival implies all of
    them arrived first. *)

val next_arrival : 'a t -> float option
(** Earliest pending arrival, if any. *)

val outage_at : 'a t -> source:string -> now:float -> outage option
(** The outage window covering [now] for [source], if any. *)

val rpc_lost : 'a t -> bool
(** Decide the fate of one maintenance-query round trip (request or reply
    lost).  Draws nothing when the loss rate is zero. *)
