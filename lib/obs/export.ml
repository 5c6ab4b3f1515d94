(** Exporters for recorded spans, events and metrics.

    - {!chrome_trace} — the Chrome trace-event format (a JSON object with
      a [traceEvents] array of [ph]/[ts]/[dur]/[pid]/[tid] objects),
      loadable directly in Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev})
      or [chrome://tracing].  Timestamps are microseconds of simulated
      time; pid 1 is the view manager, tid 0 the scheduler, one tid per
      source (named via [thread_name] metadata events).
    - {!openmetrics} — the metrics registry in OpenMetrics text.

    {!breakdown} reproduces the paper's Figure-style cost split
    (busy / abort / idle / net-wait) {e from spans alone} — no access to
    {!Dyno_core.Stats} — which is what makes it an independent check of
    the accounting. *)

open Dyno_jsonv

let us t = t *. 1e6 (* simulated seconds → trace µs *)

let attrs_json attrs =
  match attrs with
  | [] -> "{}"
  | attrs ->
      "{"
      ^ String.concat ", "
          (List.rev_map
             (fun (k, v) -> Fmt.str "%s: %s" (Jsonv.quote k) (Jsonv.quote v))
             attrs)
      ^ "}"

(** [chrome_trace ?lineage r] — the complete trace as one JSON document.
    With [lineage], each admitted update additionally contributes a
    Perfetto {e flow} — a start ("s") at commit, a step ("t") per
    dispatch and a finish ("f") at its terminal event — rendered as a
    clickable arrow chain following the update across threads. *)
let chrome_trace ?(lineage = Lineage.disabled) (r : Span.recorder) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let sep = ref "" in
  let add line =
    Buffer.add_string b !sep;
    sep := ",\n";
    Buffer.add_string b line
  in
  add
    (Fmt.str
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
        \"args\": {\"name\": \"view manager\"}}");
  List.iter
    (fun (name, tid) ->
      add
        (Fmt.str
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
            %d, \"args\": {\"name\": %s}}"
           tid (Jsonv.quote name)))
    (Span.threads r);
  List.iter
    (fun (sp : Span.t) ->
      add
        (Fmt.str
           "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \
            \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": %s}"
           (Jsonv.quote (Lazy.force sp.name))
           (Jsonv.quote (Span.kind_to_string sp.kind))
           (us sp.start)
           (us (sp.finish -. sp.start))
           sp.tid (attrs_json sp.attrs)))
    (Span.spans r);
  List.iter
    (fun (e : Span.event) ->
      add
        (Fmt.str
           "{\"name\": %s, \"ph\": \"i\", \"ts\": %.3f, \"pid\": 1, \
            \"tid\": %d, \"s\": \"t\", \"args\": {\"detail\": %s}}"
           (Jsonv.quote e.ename) (us e.time) e.etid
           (Jsonv.quote (Lazy.force e.detail))))
    (Span.events r);
  if Lineage.enabled lineage then
    List.iter
      (fun (lr : Lineage.record) ->
        if lr.Lineage.msg_id >= 0 then begin
          let name = Jsonv.quote (Fmt.str "msg %d" lr.Lineage.msg_id) in
          let flow ph ?(bp = "") ts =
            add
              (Fmt.str
                 "{\"name\": %s, \"cat\": \"lineage\", \"ph\": \"%s\", \
                  \"id\": %d, \"ts\": %.3f, \"pid\": 1, \"tid\": 0%s}"
                 name ph lr.Lineage.msg_id (us ts) bp)
          in
          flow "s" lr.Lineage.commit_at;
          List.iter
            (fun (e : Lineage.event) ->
              if e.Lineage.kind = "dispatch" then flow "t" e.Lineage.at)
            (Lineage.events lr);
          let finish_at =
            match lr.Lineage.term with
            | Some _ -> lr.Lineage.term_at
            | None -> lr.Lineage.cursor
          in
          flow "f" ~bp:", \"bp\": \"e\"" finish_at
        end)
      (Lineage.records lineage);
  Buffer.add_string b "\n]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Cost breakdown from spans alone                                     *)
(* ------------------------------------------------------------------ *)

type phase = {
  kind : Span.kind;
  count : int;
  total : float;  (** summed span duration, simulated s *)
  max : float;
}

type breakdown = {
  horizon : float;  (** last span/event timestamp — the run's end time *)
  busy : float;
      (** union of the [Maintain] span intervals (= maintenance cost).
          Serial runs have disjoint [Maintain] spans, so this equals the
          plain sum; under parallel rounds overlapping spans are counted
          once, which is exactly what "simulated busy time" means when
          probe round-trips overlap. *)
  abort_cost : float;
      (** Σ of the [abort_s] attribute over aborted [Maintain] spans:
          work sunk into maintenance steps that aborted *)
  idle : float;  (** [horizon − busy]: waiting for source commits *)
  net_wait : float;  (** Σ [Timeout] + [Retry] + [Stall] span durations *)
  phases : phase list;  (** per-kind totals, non-empty kinds only *)
}

(** [breakdown r] — the busy/abort/idle/net-wait split plus per-phase
    totals, derived exclusively from the recorded spans. *)
let breakdown (r : Span.recorder) : breakdown =
  let spans = Span.spans r in
  let horizon =
    List.fold_left
      (fun acc (sp : Span.t) -> Float.max acc sp.finish)
      (List.fold_left
         (fun acc (e : Span.event) -> Float.max acc e.time)
         0.0 (Span.events r))
      spans
  in
  let sum_kind k =
    List.fold_left
      (fun (n, tot, mx) (sp : Span.t) ->
        if sp.kind = k then
          let d = sp.finish -. sp.start in
          (n + 1, tot +. d, Float.max mx d)
        else (n, tot, mx))
      (0, 0.0, 0.0) spans
  in
  let phases =
    List.filter_map
      (fun k ->
        let count, total, max = sum_kind k in
        if count = 0 then None else Some { kind = k; count; total; max })
      Span.all_kinds
  in
  let total_of k =
    match List.find_opt (fun p -> p.kind = k) phases with
    | Some p -> p.total
    | None -> 0.0
  in
  (* Busy = measure of the union of Maintain intervals.  Spans arrive
     sorted by start time, so one sweep with a current merged interval
     suffices. *)
  let busy =
    let rec sweep acc cur = function
      | [] -> ( match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
      | (sp : Span.t) :: rest when sp.kind <> Span.Maintain ->
          sweep acc cur rest
      | (sp : Span.t) :: rest -> (
          match cur with
          | None -> sweep acc (Some (sp.start, sp.finish)) rest
          | Some (s, e) ->
              if sp.start <= e then
                sweep acc (Some (s, Float.max e sp.finish)) rest
              else sweep (acc +. (e -. s)) (Some (sp.start, sp.finish)) rest)
    in
    sweep 0.0 None spans
  in
  let abort_cost =
    List.fold_left
      (fun acc (sp : Span.t) ->
        if sp.kind = Span.Maintain then
          match List.assoc_opt "abort_s" sp.attrs with
          | Some s -> acc +. (try float_of_string s with _ -> 0.0)
          | None -> acc
        else acc)
      0.0 spans
  in
  {
    horizon;
    busy;
    abort_cost;
    idle = Float.max 0.0 (horizon -. busy);
    net_wait =
      total_of Span.Timeout +. total_of Span.Retry +. total_of Span.Stall;
    phases;
  }

let pp_breakdown ppf (b : breakdown) =
  Fmt.pf ppf
    "@[<v>cost split (from spans): busy %.2f s | abort %.2f s | idle %.2f \
     s | net-wait %.2f s | end %.2f s@,"
    b.busy b.abort_cost b.idle b.net_wait b.horizon;
  Fmt.pf ppf "  %-12s %6s %12s %12s %12s@," "phase" "count" "total(s)"
    "mean(s)" "max(s)";
  List.iter
    (fun p ->
      Fmt.pf ppf "  %-12s %6d %12.3f %12.5f %12.5f@,"
        (Span.kind_to_string p.kind)
        p.count p.total
        (p.total /. float_of_int p.count)
        p.max)
    b.phases;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition                            *)
(* ------------------------------------------------------------------ *)

(* Metric names are restricted to [a-zA-Z0-9_:]; the registry's dotted
   names map onto it with dots (and anything else exotic) as
   underscores, under a [dyno_] namespace prefix. *)
let openmetrics_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "dyno_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(** [openmetrics mx] — the registry in OpenMetrics text exposition:
    counters as [counter] (with the mandated [_total] sample suffix),
    gauges as [gauge], histograms as [summary] (p50/p90/p99 quantile
    series plus [_sum]/[_count]), terminated by [# EOF]. *)
let openmetrics (mx : Metrics.t) : string =
  let b = Buffer.create 2048 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  Metrics.fold mx
    (fun () name m ->
      let om = openmetrics_name name in
      match m with
      | Metrics.Counter r ->
          line "# TYPE %s counter" om;
          line "%s_total %d" om !r
      | Metrics.Gauge r ->
          line "# TYPE %s gauge" om;
          line "%s %.9g" om !r
      | Metrics.Histogram _ -> (
          match Metrics.histogram_summary mx name with
          | None -> ()
          | Some s ->
              line "# TYPE %s summary" om;
              line "%s{quantile=\"0.5\"} %.9g" om s.Metrics.p50;
              line "%s{quantile=\"0.9\"} %.9g" om s.Metrics.p90;
              line "%s{quantile=\"0.99\"} %.9g" om s.Metrics.p99;
              line "%s_sum %.9g" om s.Metrics.sum;
              line "%s_count %d" om s.Metrics.count))
    ();
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
