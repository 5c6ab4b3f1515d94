(* The bench regression gate.  Each experiment's contract — metrics with
   their harmful direction, tolerance, flags and floors — is pinned here
   independently of [Dyno_bench.Gate]'s declarations, and every rule is
   shown to fail when broken and to pass when just kept, starting from
   the committed baseline. *)

open Dyno_jsonv
module Gate = Dyno_bench.Gate

type spec = {
  tolerance_pct : float;
  worse : (string * [ `Up | `Down ]) list;  (* metric, harmful direction *)
  flags : string list;
  floors : (string * float * (string * float) option) list;
}

let specs =
  [
    ( "join",
      { tolerance_pct = 25.0; worse = [ ("ns_per_op", `Up) ]; flags = [];
        floors = [] } );
    ( "net",
      { tolerance_pct = 25.0; worse = [ ("busy_s", `Up) ];
        flags = [ "converged" ]; floors = [] } );
    ( "overlap",
      { tolerance_pct = 25.0; worse = [ ("busy_s", `Up); ("speedup", `Down) ];
        flags = []; floors = [ ("speedup", 2.0, None) ] } );
    ( "selfmaint",
      { tolerance_pct = 25.0;
        worse = [ ("pct_avoided", `Down); ("busy_sm_s", `Up) ];
        flags = [ "converged" ]; floors = [ ("pct_avoided", 60.0, None) ] } );
    ( "scale",
      { tolerance_pct = 20.0; worse = [ ("du_per_s", `Down) ];
        flags = [ "slo_pass" ];
        floors = [ ("speedup_vs_1", 2.5, Some ("shards", 8.0)) ] } );
  ]

let baseline exp =
  match Jsonv.parse_file (Fmt.str "../BENCH_%s.json" exp) with
  | Ok (Jsonv.Arr entries) -> entries
  | Ok _ -> Alcotest.failf "BENCH_%s.json is not an array" exp
  | Error e -> Alcotest.failf "BENCH_%s.json: %s" exp e

(* Replace field [k] with [f] of its value, in every entry [only] selects
   that carries it. *)
let set ?(only = fun _ -> true) k f entries =
  List.map
    (function
      | Jsonv.Obj kvs as o when only o && List.mem_assoc k kvs ->
          Jsonv.Obj
            (List.map (fun (k', v) -> (k', if k' = k then f v else v)) kvs)
      | o -> o)
    entries

let expect g label want ~base ~fresh =
  let r = Gate.check g ~base ~fresh in
  if Gate.passed r <> want then
    Alcotest.failf "%s: %s expected to %s, got:@.%s" g.Gate.experiment label
      (if want then "pass" else "fail")
      (String.concat "\n" r.lines)

let test_self g _ () =
  let b = baseline g.Gate.experiment in
  expect g "baseline against itself" true ~base:b ~fresh:b

(* Moved just past the tolerance in the harmful direction fails; just
   inside passes. *)
let test_tolerance g s () =
  let b = baseline g.Gate.experiment in
  let tol = s.tolerance_pct /. 100.0 in
  List.iter
    (fun (m, dir) ->
      let harmful by =
        let factor = match dir with `Up -> 1.0 +. by | `Down -> 1.0 -. by in
        set m (function Jsonv.Num x -> Jsonv.Num (x *. factor) | v -> v) b
      in
      expect g (m ^ " just past tolerance") false ~base:b
        ~fresh:(harmful (tol +. 1e-3));
      expect g (m ^ " just inside tolerance") true ~base:b
        ~fresh:(harmful (tol -. 1e-3)))
    s.worse

let test_flags g s () =
  let b = baseline g.Gate.experiment in
  List.iter
    (fun f ->
      let first = ref true in
      let once o =
        let hit = !first && Jsonv.member f o <> None in
        if hit then first := false;
        hit
      in
      expect g (f ^ " false in one entry") false ~base:b
        ~fresh:(set ~only:once f (fun _ -> Jsonv.Bool false) b))
    s.flags

(* A floor missed by a hair fails even when the baseline moved with it
   (no tolerance breach); sitting exactly on it passes. *)
let test_floors g s () =
  let b = baseline g.Gate.experiment in
  List.iter
    (fun (field, min, at) ->
      let only o =
        match at with
        | None -> true
        | Some (k, v) -> Jsonv.member k o = Some (Jsonv.Num v)
      in
      let hair = set ~only field (fun _ -> Jsonv.Num (min -. 1e-6)) b in
      expect g (field ^ " below its floor") false ~base:hair ~fresh:hair;
      let on = set ~only field (fun _ -> Jsonv.Num min) b in
      expect g (field ^ " on its floor") true ~base:on ~fresh:on)
    s.floors

(* A baseline entry the fresh run does not cover is reported as skipped. *)
let test_missing_key g _ () =
  let b = baseline g.Gate.experiment in
  match List.find_opt (fun o -> Jsonv.member (List.hd g.keys) o <> None) b with
  | None -> Alcotest.fail "no keyed baseline entry"
  | Some dropped ->
      let r = Gate.check g ~base:b ~fresh:(List.filter (( != ) dropped) b) in
      Alcotest.(check bool) "still passes" true (Gate.passed r);
      Alcotest.(check bool)
        "reported as skipped" true
        (List.exists
           (String.ends_with ~suffix:"(not in this run; skipped)")
           r.lines)

(* Nothing to compare is a failure, even with every flag and floor kept. *)
let test_nothing_comparable g _ () =
  let r = Gate.check g ~base:[] ~fresh:(baseline g.Gate.experiment) in
  Alcotest.(check (pair int int)) "no comparison, no rule broken" (0, 0)
    (r.compared, r.failures);
  Alcotest.(check bool) "fails" false (Gate.passed r)

(* Host footprint entries are reported, never gated. *)
let test_host g _ () =
  let host wall rss =
    Jsonv.Obj [ ("host_wall_s", Jsonv.Num wall); ("host_max_rss_kb", rss) ]
  in
  let b =
    List.filter
      (fun o -> Jsonv.member "host_wall_s" o = None)
      (baseline g.Gate.experiment)
  in
  expect g "a far slower host" true
    ~base:(b @ [ host 1.0 (Jsonv.Num 1.0) ])
    ~fresh:(b @ [ host 1e9 Jsonv.Null ])

let test_all_pinned () =
  Alcotest.(check (list string))
    "every declared gate has a pinned contract" (List.map fst specs)
    (List.map (fun g -> g.Gate.experiment) Gate.all)

let () =
  Alcotest.run "bench gate"
    (( "declarations",
       [ Alcotest.test_case "all pinned" `Quick test_all_pinned ] )
    :: List.map
         (fun (exp, s) ->
           let g = Option.get (Gate.find exp) in
           let case name f = Alcotest.test_case name `Quick (f g s) in
           ( exp,
             [
               case "baseline passes itself" test_self;
               case "metric past tolerance fails" test_tolerance;
               case "missing key skipped" test_missing_key;
               case "nothing comparable fails" test_nothing_comparable;
               case "host entries never fail" test_host;
             ]
             @ (if s.flags = [] then []
                else [ case "false flag fails" test_flags ])
             @
             if s.floors = [] then []
             else [ case "floor missed by a hair fails" test_floors ] ))
         specs)
