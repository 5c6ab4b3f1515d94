(* Partition plan: source → shard assignment.  See shard.mli. *)

type t = {
  shards : int;
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
  { shards; owner }

let count t = t.shards

let owner t source =
  match Hashtbl.find_opt t.owner source with
  | Some i -> i
  | None -> invalid_arg (Fmt.str "Shard.owner: unknown source %s" source)
