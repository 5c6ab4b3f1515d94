(** SQL-flavoured rendering of queries, updates and schema changes.

    Purely for human consumption: traces, examples and the CLI render
    everything through this module so that runs read like the paper's
    Queries (1)–(5). *)

let pp_view ppf (q : Query.t) =
  Fmt.pf ppf "@[<v2>CREATE VIEW %s AS@,%a@]" (Query.name q) Query.pp q

let view_to_string q = Fmt.str "%a" pp_view q

let pp_values ppf (t : Tuple.t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

(** Renders a data update as a block of INSERT/DELETE statements. *)
let pp_update ppf (u : Update.t) =
  let rel = Update.rel u and source = Update.source u in
  let stmts =
    Relation.fold
      (fun t c acc ->
        let verb = if c > 0 then "INSERT INTO" else "DELETE FROM" in
        (Fmt.str "%s %s@%s VALUES %a%s" verb rel source pp_values t
           (if abs c > 1 then Fmt.str " x%d" (abs c) else ""))
        :: acc)
      (Update.delta u) []
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut string) (List.sort String.compare stmts)

(** [pp_relation_table ppf r] renders a bordered ASCII table (sorted), used
    by the examples to show view extents. *)
let pp_relation_table ppf r =
  let schema = Relation.schema r in
  let headers = Schema.names schema in
  let rows =
    List.map
      (fun (t, c) ->
        List.map Value.to_string (Array.to_list t)
        @ if c = 1 then [] else [ Fmt.str "x%d" c ])
      (Relation.to_counted r)
  in
  let ncols = List.length headers in
  let width i =
    let of_row row = try String.length (List.nth row i) with _ -> 0 in
    List.fold_left (fun acc row -> max acc (of_row row)) (of_row headers) rows
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    "| "
    ^ String.concat " | " (List.mapi (fun i w -> pad (try List.nth row i with _ -> "") w) widths)
    ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  Fmt.pf ppf "@[<v>%s@,%s@,%s@,%a@,%s@]" sep (render_row headers) sep
    Fmt.(list ~sep:cut string)
    (List.map render_row rows) sep
