(** A simulated, unreliable message channel between the view manager and
    one population of autonomous sources.

    The paper assumes loosely-coupled sources reached over a network; this
    module is that network.  Every wrapper→UMQ update message and every
    maintenance-query RPC crosses a channel that can misbehave in the
    classic ways:

    - {b latency / jitter} — a fixed one-way delay plus a uniform random
      component per message;
    - {b loss} — a transmission is dropped; the wrapper retransmits after
      [retransmit] seconds until one copy gets through (messages are
      {e eventually} delivered — sources cannot abort, so their updates
      cannot be forgotten);
    - {b duplication} — the wrapper's retransmission races the original and
      both copies arrive (exactly-once delivery is restored downstream by
      the UMQ's sequence-number dedup);
    - {b reordering} — a message is held back by [reorder_delay], letting
      later messages overtake it (healed downstream by the UMQ's gap-aware
      hold buffer);
    - {b outages} — timed windows during which a source is unreachable:
      RPCs time out and in-flight messages park until the window closes.

    All randomness comes from one {!Dyno_sim.Rng} stream owned by the
    channel, so runs are exactly reproducible; a {!reliable} channel draws
    {e nothing} and delivers at send time, making the zero-fault
    configuration bit-identical to a direct in-process call. *)

open Dyno_sim

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

let reliable =
  {
    latency = 0.0;
    jitter = 0.0;
    loss = 0.0;
    dup = 0.0;
    reorder = 0.0;
    reorder_delay = 0.0;
    retransmit = 0.0;
    outages = [];
  }

type 'a packet = {
  source : string;
  seq : int;  (** per-source monotone sequence number *)
  sent : float;  (** commit time at the source *)
  arrival : float;  (** when the view manager receives this copy *)
  payload : 'a;
}

type 'a t = {
  faults : faults;
  rng : Rng.t;
  obs : Dyno_obs.Obs.t;
  mutable emitted : int;  (** tie-break for equal arrival times *)
  mutable order : ('a packet * int) list;  (** in flight: packet, emit idx *)
  mutable lost_transmissions : int;
  mutable duplicates_sent : int;
}

let create ?(faults = reliable) ?(obs = Dyno_obs.Obs.disabled) ~seed () =
  if not (faults.loss < 1.0) then
    invalid_arg "Channel.create: loss must be below 1";
  {
    faults;
    rng = Rng.make seed;
    obs;
    emitted = 0;
    order = [];
    lost_transmissions = 0;
    duplicates_sent = 0;
  }

let in_flight t = List.length t.order
let has_packets t = match t.order with [] -> false | _ :: _ -> true
let lost_transmissions t = t.lost_transmissions
let duplicates_sent t = t.duplicates_sent

let outage_at t ~source ~now =
  match t.faults.outages with
  | [] -> None
  | outages ->
      List.find_opt
        (fun (o : outage) ->
          String.equal o.source source && o.starts <= now && now < o.ends)
        outages

(** [rpc_lost t] — fate of one maintenance-query round trip: the request or
    the reply is lost.  Draws nothing when the loss rate is zero. *)
let rpc_lost t =
  let lost = Rng.bernoulli t.rng t.faults.loss in
  (* Evaluate the reply's fate unconditionally so the stream of draws does
     not depend on the request's outcome. *)
  let reply_lost = Rng.bernoulli t.rng t.faults.loss in
  lost || reply_lost

(* Delay the arrival past any outage window covering it: transmissions
   into a partitioned source fail until the window closes. *)
let past_outages t ~source arrival =
  List.fold_left
    (fun a (o : outage) ->
      if String.equal o.source source && o.starts <= a && a < o.ends then
        Float.max a o.ends
      else a)
    arrival t.faults.outages

let push t packet =
  t.order <- (packet, t.emitted) :: t.order;
  t.emitted <- t.emitted + 1

type send_report = {
  transmissions : int;  (** 1 + number of lost copies before one arrived *)
  duplicated : bool;
  arrival : float;  (** arrival of the first surviving copy *)
}

(** [send t ~now ~source ~seq payload] injects one update message.  The
    channel decides its fate deterministically from the fault config and
    the channel RNG; the message always arrives at least once. *)
let send t ~now ~source ~seq payload : send_report =
  let f = t.faults in
  (* Retransmit until one copy survives (geometric in the loss rate,
     which {!create} keeps below 1). *)
  let rec surviving k =
    if Rng.bernoulli t.rng f.loss then begin
      t.lost_transmissions <- t.lost_transmissions + 1;
      surviving (k + 1)
    end
    else k
  in
  let transmissions = surviving 1 in
  let jitter = if f.jitter > 0.0 then Rng.float t.rng f.jitter else 0.0 in
  let held = Rng.bernoulli t.rng f.reorder in
  let sp = Dyno_obs.Obs.spans t.obs
  and mx = Dyno_obs.Obs.metrics t.obs in
  if transmissions > 1 then begin
    Dyno_obs.Metrics.incr mx ~by:(transmissions - 1) "net.lost_transmissions";
    Dyno_obs.Span.instant sp ~time:now ~thread:source "msg-lost"
      (lazy (Fmt.str "seq=%d lost=%d" seq (transmissions - 1)))
  end;
  if held then begin
    Dyno_obs.Metrics.incr mx "net.reorder_held";
    Dyno_obs.Span.instant sp ~time:now ~thread:source "msg-held"
      (lazy (Fmt.str "seq=%d delay=%.3fs" seq f.reorder_delay))
  end;
  let arrival =
    now +. f.latency
    +. (float_of_int (transmissions - 1) *. f.retransmit)
    +. jitter
    +. (if held then f.reorder_delay else 0.0)
    |> past_outages t ~source
  in
  push t { source; seq; sent = now; arrival; payload };
  let duplicated = Rng.bernoulli t.rng f.dup in
  if duplicated then begin
    t.duplicates_sent <- t.duplicates_sent + 1;
    Dyno_obs.Metrics.incr mx "net.duplicates_sent";
    Dyno_obs.Span.instant sp ~time:now ~thread:source "msg-dup"
      (lazy (Fmt.str "seq=%d" seq));
    let echo_lag = Float.max f.retransmit f.latency in
    let arrival2 = past_outages t ~source (arrival +. echo_lag) in
    push t { source; seq; sent = now; arrival = arrival2; payload }
  end;
  { transmissions; duplicated; arrival }

let compare_arrival ((a : _ packet), ia) ((b : _ packet), ib) =
  match Float.compare a.arrival b.arrival with
  | 0 -> Int.compare ia ib
  | c -> c

(** [due t ~now] pops every copy whose arrival time has passed, in arrival
    order. *)
let due t ~now =
  match t.order with
  | [] -> []
  | _ ->
      let ready, rest =
        List.partition
          (fun ((p : _ packet), _) -> p.arrival <= now +. 1e-12)
          t.order
      in
      t.order <- rest;
      List.map fst (List.sort compare_arrival ready)

(** [flush_source t ~source] pops {e every} in-flight copy from [source],
    regardless of arrival time, in sequence order — the FIFO-stream
    semantics of SWEEP: a maintenance-query answer travels the same
    ordered stream as the source's update messages, so its arrival implies
    every earlier message has arrived too. *)
let flush_source t ~source =
  match t.order with
  | [] -> []
  | _ ->
      let mine, rest =
        List.partition
          (fun ((p : _ packet), _) -> String.equal p.source source)
          t.order
      in
      t.order <- rest;
      List.map fst
        (List.sort
           (fun ((a : _ packet), ia) ((b : _ packet), ib) ->
             match Int.compare a.seq b.seq with
             | 0 -> Int.compare ia ib
             | c -> c)
           mine)

(** Earliest pending arrival, if any. *)
let next_arrival t =
  List.fold_left
    (fun acc ((p : _ packet), _) ->
      match acc with
      | None -> Some p.arrival
      | Some a -> Some (Float.min a p.arrival))
    None t.order
