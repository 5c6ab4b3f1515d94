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
    timeline. *)
type mirror_rel = {
  mutable name : string;
  mutable schema : Schema.t;
  mutable tuples : Tuple.t list;  (** current extent (sampled for deletes) *)
  mutable next_salt : int;
}

type mirror = {
  rels : mirror_rel array;  (** index i ↔ paper relation R(i+1) *)
  rows : int;
}

let make_mirror ~rows =
  {
    rels =
      Array.init Paper_schema.n_relations (fun i ->
          let i = i + 1 in
          {
            name = Paper_schema.rel_name i;
            schema = Paper_schema.schema_of_rel i;
            tuples =
              List.init rows (fun k ->
                  Tuple.of_list (Paper_schema.tuple_for i k));
            next_salt = 1;
          });
    rows;
  }

let source_of_index i = Paper_schema.source_of_rel (i + 1)

(** [gen_du mirror rng i] produces a valid data update against relation
    index [i]: an insert of a fresh tuple on an existing join key (so the
    view delta is non-empty), or a delete of a current tuple. *)
let gen_du (m : mirror) rng i : Update.t =
  let r = m.rels.(i) in
  let insert () =
    let k = Rng.int rng m.rows in
    let salt = r.next_salt in
    r.next_salt <- r.next_salt + 1;
    let base = Paper_schema.tuple_for ~salt (i + 1) k in
    (* Trim/extend the canonical tuple to the current schema arity: drops
       and adds may have changed it. *)
    let arity = Schema.arity r.schema in
    let values =
      List.filteri (fun j _ -> j < arity) base
      @ List.init (max 0 (arity - List.length base)) (fun _ -> Value.null)
    in
    (* Fix types positionally against the current schema. *)
    let values =
      List.map2
        (fun a v ->
          if Value.has_type v (Attr.ty a) then v
          else
            match Value.coerce_to (Attr.ty a) v with
            | Some v' -> v'
            | None -> Value.null)
        (Schema.attrs r.schema) values
    in
    let tup = Tuple.of_list values in
    r.tuples <- tup :: r.tuples;
    Update.insert ~source:(source_of_index i) ~rel:r.name r.schema
      (Tuple.to_list tup)
  in
  match r.tuples with
  | [] -> insert ()
  | tuples ->
      if Rng.bool rng then insert ()
      else begin
        let victim = List.nth tuples (Rng.int rng (List.length tuples)) in
        let removed = ref false in
        r.tuples <-
          List.filter
            (fun t ->
              if (not !removed) && Tuple.equal t victim then begin
                removed := true;
                false
              end
              else true)
            tuples;
        Update.delete ~source:(source_of_index i) ~rel:r.name r.schema
          (Tuple.to_list victim)
      end

(** Kinds of schema changes the experiments use. *)
type sc_kind =
  | Drop_attr  (** drop a random non-key attribute (paper: "drop attribute") *)
  | Rename_rel  (** rename the relation (paper: "rename relation") *)
  | Rename_attr
  | Add_attr

(** [gen_sc mirror rng i kind] produces a valid schema change against
    relation index [i], updating the mirror. *)
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
          r.schema <- Schema.drop r.schema (Attr.name a);
          r.tuples <- List.map (fun t -> Tuple.drop_at t pos) r.tuples;
          Some
            (Schema_change.Drop_attribute
               { source; rel = r.name; attr = Attr.name a }))
  | Rename_rel ->
      let new_name = Fmt.str "%s_r%d" r.name r.next_salt in
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
          let new_name = Fmt.str "%s_n%d" (Attr.name a) r.next_salt in
          r.next_salt <- r.next_salt + 1;
          let sc =
            Schema_change.Rename_attribute
              { source; rel = r.name; old_name = Attr.name a; new_name }
          in
          r.schema <-
            Schema.rename r.schema ~old_name:(Attr.name a) ~new_name;
          Some sc)
  | Add_attr ->
      let name = Fmt.str "X%d_%d" (i + 1) r.next_salt in
      r.next_salt <- r.next_salt + 1;
      let attr = Attr.int name in
      let default = Value.int 0 in
      r.schema <- Schema.add r.schema attr;
      r.tuples <- List.map (fun t -> Tuple.append t default) r.tuples;
      Some (Schema_change.Add_attribute { source; rel = r.name; attr; default })

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
