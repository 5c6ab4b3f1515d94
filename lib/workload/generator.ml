(** Workload generation for the experiments of Section 6.

    The generator pre-computes a {e timeline} of autonomous source commits
    (data updates and schema changes) against a mirror of the sources'
    evolving state, so that every generated event is valid at its commit
    time even across renames and attribute drops: a DU scheduled after
    "rename R3 to R3_r1" targets [R3_r1] with the post-change schema, just
    as a real autonomous source would emit it. *)

open Dyno_relational
open Dyno_sim

(** Mutable mirror of one relation's state as the generator walks the
    timeline.  [tuples.(0) .. tuples.(count - 1)] is the current extent,
    oldest first: the newest tuple is at [count - 1].  Deletes sample it
    by position counted from the newest, so the walk draws what a
    newest-first list would. *)
type mirror_rel = {
  mutable name : string;
  mutable schema : Schema.t;
  mutable tuples : Tuple.t array;  (** growable; [count] slots used *)
  mutable count : int;
  mutable next_salt : int;
}

type mirror = {
  rels : mirror_rel array;  (** index i ↔ paper relation R(i+1) *)
  rows : int;
}

(* The loaded rows, key [rows - 1] first, so key 0 is the newest. *)
let make_mirror ~rows =
  {
    rels =
      Array.init Paper_schema.n_relations (fun i ->
          let i = i + 1 in
          {
            name = Paper_schema.rel_name i;
            schema = Paper_schema.schema_of_rel i;
            tuples =
              Array.init rows (fun j ->
                  Tuple.of_list (Paper_schema.tuple_for i (rows - 1 - j)));
            count = rows;
            next_salt = 1;
          });
    rows;
  }

let push r tup =
  if r.count = Array.length r.tuples then begin
    let grown = Array.make (max 16 (2 * r.count)) tup in
    Array.blit r.tuples 0 grown 0 r.count;
    r.tuples <- grown
  end;
  r.tuples.(r.count) <- tup;
  r.count <- r.count + 1

(* Removes the newest tuple equal to [victim], which the extent holds:
   after a drop-attribute change collapses tuples, that can be a newer
   duplicate than the one drawn. *)
let remove r victim =
  let rec newest j =
    if Tuple.equal r.tuples.(j) victim then j else newest (j - 1)
  in
  let j = newest (r.count - 1) in
  Array.blit r.tuples (j + 1) r.tuples j (r.count - 1 - j);
  r.count <- r.count - 1

(* Every tuple of the extent through [f], in order. *)
let map_tuples r f =
  let old = r.tuples in
  r.tuples <- Array.init r.count (fun j -> f old.(j))

let source_of_index i = Paper_schema.source_of_rel (i + 1)

(** [gen_du mirror rng i] produces a valid data update against relation
    index [i]: an insert of a fresh tuple on an existing join key (so the
    view delta is non-empty), or a delete of a current tuple. *)
let gen_du (m : mirror) rng i : Update.t =
  let r = m.rels.(i) in
  let du tup k =
    let delta = Relation.create r.schema in
    Relation.add delta tup k;
    Update.make ~source:(source_of_index i) ~rel:r.name delta
  in
  if r.count = 0 || Rng.bool rng then begin
    let k = Rng.int rng m.rows in
    let salt = r.next_salt in
    r.next_salt <- r.next_salt + 1;
    let base = Tuple.of_list (Paper_schema.tuple_for ~salt (i + 1) k) in
    (* The canonical tuple trimmed or extended with nulls to the current
       schema's arity (drops and adds may have changed it), its types
       fixed positionally against that schema. *)
    let tup =
      Array.init (Schema.arity r.schema) (fun j ->
          let v = if j < Array.length base then base.(j) else Value.null in
          let ty = Attr.ty (Schema.attr_at r.schema j) in
          if Value.has_type v ty then v
          else Option.value (Value.coerce_to ty v) ~default:Value.null)
    in
    push r tup;
    du tup 1
  end
  else begin
    let victim = r.tuples.(r.count - 1 - Rng.int rng r.count) in
    remove r victim;
    du victim (-1)
  end

(** Kinds of schema changes the experiments use. *)
type sc_kind =
  | Drop_attr  (** drop a random non-key attribute (paper: "drop attribute") *)
  | Rename_rel  (** rename the relation (paper: "rename relation") *)
  | Rename_attr
  | Add_attr

(* The change [sc], once [r]'s schema has moved across it. *)
let moved r sc =
  r.schema <- Schema_change.schema sc r.schema;
  Some sc

(** [gen_sc mirror rng i kind] produces a valid schema change against
    relation index [i], updating the mirror: its schema through
    {!Schema_change.schema}, its tuples through its own array map. *)
let gen_sc (m : mirror) rng i (kind : sc_kind) : Schema_change.t option =
  let r = m.rels.(i) in
  let source = source_of_index i in
  let non_key_attrs =
    List.filter
      (fun a ->
        not (String.equal (Attr.name a) (Paper_schema.key_attr (i + 1))))
      (Schema.attrs r.schema)
  in
  match kind with
  | Drop_attr -> (
      match non_key_attrs with
      | [] -> None (* nothing droppable left *)
      | attrs ->
          let a = Rng.pick rng attrs in
          let pos = Schema.index_of r.schema (Attr.name a) in
          map_tuples r (fun t -> Tuple.drop_at t pos);
          moved r
            (Schema_change.Drop_attribute
               { source; rel = r.name; attr = Attr.name a }))
  | Rename_rel ->
      let new_name = r.name ^ "_r" ^ string_of_int r.next_salt in
      r.next_salt <- r.next_salt + 1;
      let sc =
        Schema_change.Rename_relation
          { source; old_name = r.name; new_name }
      in
      r.name <- new_name;
      Some sc
  | Rename_attr -> (
      match non_key_attrs with
      | [] -> None
      | attrs ->
          let a = Rng.pick rng attrs in
          let new_name = Attr.name a ^ "_n" ^ string_of_int r.next_salt in
          r.next_salt <- r.next_salt + 1;
          moved r
            (Schema_change.Rename_attribute
               { source; rel = r.name; old_name = Attr.name a; new_name }))
  | Add_attr ->
      let name =
        "X" ^ string_of_int (i + 1) ^ "_" ^ string_of_int r.next_salt
      in
      r.next_salt <- r.next_salt + 1;
      let attr = Attr.int name in
      let default = Value.int 0 in
      map_tuples r (fun t -> Tuple.append t default);
      moved r (Schema_change.Add_attribute { source; rel = r.name; attr; default })

(** One scheduled event request: when, and what kind. *)
type request = At_du of float | At_sc of float * sc_kind

(** [build ~rows ~seed requests] walks the requests in time order against a
    fresh mirror and returns the valid timeline.  Requests that cannot be
    satisfied (e.g. a drop on a relation with no droppable attribute left)
    retry on another random relation, then are skipped. *)
let build ~rows ~seed (requests : request list) : Timeline.t =
  let rng = Rng.make seed in
  let m = make_mirror ~rows in
  let timeline = Timeline.create () in
  let sorted =
    List.stable_sort
      (fun a b ->
        let ta = match a with At_du t | At_sc (t, _) -> t in
        let tb = match b with At_du t | At_sc (t, _) -> t in
        Float.compare ta tb)
      requests
  in
  List.iter
    (fun req ->
      match req with
      | At_du time ->
          let i = Rng.int rng Paper_schema.n_relations in
          Timeline.schedule timeline ~time (Timeline.Du (gen_du m rng i))
      | At_sc (time, kind) ->
          let rec try_rel attempts =
            if attempts = 0 then ()
            else
              let i = Rng.int rng Paper_schema.n_relations in
              match gen_sc m rng i kind with
              | Some sc -> Timeline.schedule timeline ~time (Timeline.Sc sc)
              | None -> try_rel (attempts - 1)
          in
          try_rel 12)
    sorted;
  timeline

(** The paper's mixed workloads: [n_dus] data updates flooding in at
    [du_start] (spaced by [du_interval]) plus a schema-change train —
    [sc_kinds] in order, starting at [sc_start], spaced by [sc_interval]. *)
let mixed ~rows ~seed ?(du_start = 0.0) ?(du_interval = 0.0) ~n_dus
    ?(sc_start = 0.0) ~sc_interval ~sc_kinds () : Timeline.t =
  let dus =
    List.init n_dus (fun k ->
        At_du (du_start +. (float_of_int k *. du_interval)))
  in
  let scs =
    List.mapi
      (fun k kind -> At_sc (sc_start +. (float_of_int k *. sc_interval), kind))
      sc_kinds
  in
  build ~rows ~seed (dus @ scs)

(** The Figure 10/11/12 schema-change train: one drop-attribute followed by
    [n - 1] rename-relation operations; no schema change for [n <= 0]. *)
let drop_then_renames n : sc_kind list =
  if n <= 0 then [] else Drop_attr :: List.init (n - 1) (fun _ -> Rename_rel)

(** Zipf weights: [w_i ∝ (i + 1)^(-alpha)], normalized to sum 1.  The
    canonical heavy-tailed popularity law — [alpha = 0] is uniform,
    larger [alpha] concentrates commits on the first few relations. *)
let zipf ~alpha ~n : float array =
  if n <= 0 then invalid_arg "Generator.zipf: n <= 0";
  let w = Array.init n (fun i -> (float_of_int (i + 1)) ** -.alpha) in
  let z = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. z) w
