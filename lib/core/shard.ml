(* Partition plan: source → shard assignment.  See shard.mli. *)

type t = {
  shards : int;
  order : string list;  (* all sources, original order *)
  owner : (string, int) Hashtbl.t;
}

let plan ~shards sources =
  if shards < 1 then
    invalid_arg (Fmt.str "Shard.plan: shards = %d (want >= 1)" shards);
  if sources = [] then invalid_arg "Shard.plan: no sources";
  let owner = Hashtbl.create (List.length sources) in
  (* Deal round-robin in list order. *)
  List.iteri
    (fun i s ->
      if Hashtbl.mem owner s then
        invalid_arg (Fmt.str "Shard.plan: duplicate source %s" s);
      Hashtbl.replace owner s (i mod shards))
    sources;
  { shards; order = sources; owner }

let solo sources = plan ~shards:1 sources

let count t = t.shards

let owner t source =
  match Hashtbl.find_opt t.owner source with
  | Some i -> i
  | None -> invalid_arg (Fmt.str "Shard.owner: unknown source %s" source)

let sources_of t i = List.filter (fun s -> Hashtbl.find t.owner s = i) t.order
let sources t = t.order

let pp ppf t =
  Fmt.pf ppf "@[<v>%d shard(s):" t.shards;
  for i = 0 to t.shards - 1 do
    Fmt.pf ppf "@,  %d: %a" i Fmt.(list ~sep:comma string) (sources_of t i)
  done;
  Fmt.pf ppf "@]"
