(* What [bench --check] holds each result-writing experiment to, declared
   once per experiment, and the one comparator that checks a fresh run
   against a committed baseline.  The comparator is a pure function of
   (declaration, baseline entries, fresh entries); the bench prints its
   lines and exits 1 unless it passed. *)

open Dyno_jsonv

type metric = { name : string; higher_better : bool }

(* [field] >= [min] in every fresh entry carrying it — only those whose
   [at] key has that value, when given. *)
type floor = { field : string; min : float; at : (string * float) option }

type t = {
  experiment : string;
  keys : string list;  (* the fields matching a baseline entry to a fresh one *)
  metrics : metric list;  (* compared within [tolerance_pct] *)
  tolerance_pct : float;
  flags : string list;  (* must be true in every fresh entry *)
  floors : floor list;
}

let lower name = { name; higher_better = false }
let higher name = { name; higher_better = true }

let gate ?(tolerance_pct = 25.0) ?(flags = []) ?(floors = []) experiment keys
    metrics =
  { experiment; keys; metrics; tolerance_pct; flags; floors }

let all =
  [
    gate "join" [ "op"; "rows" ] [ lower "ns_per_op" ];
    gate "net" [ "loss" ] [ lower "busy_s" ] ~flags:[ "converged" ];
    gate "overlap" [ "mode" ]
      [ lower "busy_s"; higher "speedup" ]
      ~floors:[ { field = "speedup"; min = 2.0; at = None } ];
    gate "selfmaint" [ "loss" ]
      [ higher "pct_avoided"; lower "busy_sm_s" ]
      ~flags:[ "converged" ]
      ~floors:[ { field = "pct_avoided"; min = 60.0; at = None } ];
    gate "scale" [ "shards" ] [ higher "du_per_s" ] ~tolerance_pct:20.0
      ~flags:[ "slo_pass" ]
      ~floors:
        [ { field = "speedup_vs_1"; min = 2.5; at = Some ("shards", 8.0) } ];
  ]

let find experiment = List.find_opt (fun g -> g.experiment = experiment) all

type report = { lines : string list; compared : int; failures : int }

let passed r = r.compared > 0 && r.failures = 0
let num k o = Option.bind (Jsonv.member k o) Jsonv.num

(* The host footprint entry is hardware-specific: a baseline committed on
   one machine says nothing about another's wall clock or RSS, so it is
   reported, never gated. *)
let is_host o = Jsonv.member "host_wall_s" o <> None

(* "field (key value, ...)" over the keys the entry carries. *)
let label g field o =
  let show = function Jsonv.Str s -> s | v -> Jsonv.to_string v in
  match
    List.filter_map
      (fun k -> Option.map (fun v -> k ^ " " ^ show v) (Jsonv.member k o))
      g.keys
  with
  | [] -> field
  | kvs -> Fmt.str "%s (%s)" field (String.concat ", " kvs)

let check g ~base ~fresh =
  let lines = ref [] and compared = ref 0 and failures = ref 0 in
  let say ?(bad = false) fmt =
    if bad then incr failures;
    Fmt.kstr (fun s -> lines := ("  " ^ s) :: !lines) fmt
  in
  let same_keys b c =
    List.for_all (fun k -> Jsonv.member k b = Jsonv.member k c) g.keys
  in
  let cmp b m bv =
    let l = label g m.name b in
    match
      List.find_map
        (fun c -> if same_keys b c then num m.name c else None)
        fresh
    with
    | None -> say "%-42s (not in this run; skipped)" l
    | Some cv ->
        incr compared;
        let tol = g.tolerance_pct /. 100.0 in
        let bad =
          bv <> 0.0
          &&
          if m.higher_better then cv < bv *. (1.0 -. tol)
          else cv > bv *. (1.0 +. tol)
        in
        let delta = if bv = 0.0 then 0.0 else (cv -. bv) /. bv *. 100.0 in
        say ~bad "%-42s base %12.4g  now %12.4g  %+7.1f%%  %s" l bv cv delta
          (if bad then "REGRESSION" else "ok")
  in
  let host = List.find_opt is_host fresh in
  List.iter
    (fun b ->
      if is_host b then
        List.iter
          (fun k ->
            match (num k b, Option.bind host (num k)) with
            | Some bv, Some cv ->
                say "%-42s base %12.4g  now %12.4g  (informational)" k bv cv
            | _ -> ())
          [ "host_wall_s"; "host_max_rss_kb" ]
      else
        List.iter
          (fun m -> Option.iter (cmp b m) (num m.name b))
          g.metrics)
    base;
  List.iter
    (fun c ->
      List.iter
        (fun f ->
          if (not (is_host c)) && Jsonv.member f c <> Some (Jsonv.Bool true)
          then say ~bad:true "%-42s not true  REGRESSION" (label g f c))
        g.flags)
    fresh;
  List.iter
    (fun fl ->
      let at c =
        match fl.at with None -> true | Some (k, v) -> num k c = Some v
      in
      match
        List.filter_map
          (fun c -> if at c then Option.map (fun v -> (c, v)) (num fl.field c)
            else None)
          fresh
      with
      | [] -> say ~bad:true "%-42s missing  REGRESSION" fl.field
      | hits ->
          List.iter
            (fun (c, v) ->
              let bad = v < fl.min in
              say ~bad "%-42s now %12.4g  floor %g  %s" (label g fl.field c) v
                fl.min
                (if bad then "BELOW FLOOR" else "ok"))
            hits)
    g.floors;
  { lines = List.rev !lines; compared = !compared; failures = !failures }
