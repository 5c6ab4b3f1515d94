(** Post-run reporting: the answers to the operational questions a user
    of the system asks after a run.  How long do maintenance processes
    take, split by kind and outcome?  The scheduler tallies its episodes
    into {!Stats} as steps settle.  Where do broken queries happen, and
    how often did each activity occur?  The {!Dyno_sim.Trace} says. *)

open Dyno_sim

let episode_kind_to_string : Stats.episode_kind -> string = function
  | Du_maint -> "data update"
  | Sc_maint -> "schema change"
  | Batch_maint -> "merged batch"

type summary = { count : int; total : float; mean : float; max : float }

type t = {
  episodes : (Stats.episode_kind * bool * summary) list;
  event_counts : (Trace.kind * int) list;  (** non-zero kinds only *)
  broken_by_source : (string * int) list;
}

(* The non-empty (kind, aborted) cells of the run's episode tally, in
   table order. *)
let episodes_of (stats : Stats.t) =
  List.concat_map
    (fun kind ->
      List.filter_map
        (fun aborted ->
          let e = Stats.episodes stats kind ~aborted in
          if e.Stats.count = 0 then None
          else
            Some
              ( kind,
                aborted,
                {
                  count = e.Stats.count;
                  total = e.Stats.total;
                  mean = e.Stats.total /. float_of_int e.Stats.count;
                  max = e.Stats.longest;
                } ))
        [ false; true ])
    [ Stats.Du_maint; Sc_maint; Batch_maint ]

let broken_by_source (tr : Trace.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.entry) ->
      (* detail ends with "... at <source>: reason" *)
      let detail = e.detail in
      let rec find_from i =
        if i + 4 > String.length detail then None
        else if String.sub detail i 4 = " at " then Some (i + 4)
        else find_from (i + 1)
      in
      match find_from 0 with
      | Some start ->
          let rest = String.sub detail start (String.length detail - start) in
          let src =
            match String.index_opt rest ':' with
            | Some j -> String.sub rest 0 j
            | None -> rest
          in
          Hashtbl.replace tbl src
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl src))
      | None -> ())
    (Trace.find_all tr Trace.Broken_query);
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** [of_run stats tr] builds the full report. *)
let of_run (stats : Stats.t) (tr : Trace.t) : t =
  {
    episodes = episodes_of stats;
    event_counts =
      List.filter_map
        (fun k ->
          let c = Trace.count tr k in
          if c > 0 then Some (k, c) else None)
        Trace.all_kinds;
    broken_by_source = broken_by_source tr;
  }

let pp ppf (r : t) =
  Fmt.pf ppf "@[<v>maintenance episodes:@,";
  List.iter
    (fun (kind, aborted, s) ->
      Fmt.pf ppf
        "  %-13s %-9s  n=%-4d total=%8.2fs  mean=%7.3fs  max=%7.3fs@,"
        (episode_kind_to_string kind)
        (if aborted then "(aborted)" else "(ok)")
        s.count s.total s.mean s.max)
    r.episodes;
  Fmt.pf ppf "event counts:@,";
  List.iter
    (fun (k, c) -> Fmt.pf ppf "  %-15s %d@," (Trace.kind_to_string k) c)
    r.event_counts;
  if r.broken_by_source <> [] then begin
    Fmt.pf ppf "broken queries by source:@,";
    List.iter
      (fun (s, c) -> Fmt.pf ppf "  %-10s %d@," s c)
      r.broken_by_source
  end;
  Fmt.pf ppf "@]"
