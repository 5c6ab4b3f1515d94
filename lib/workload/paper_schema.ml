(** The paper's experimental schema (Section 6.1).

    "Six relations evenly distributed over three different source servers
    with two relations each.  Each relation has four attributes and
    contains 100,000 tuples.  …  The view is defined as a one-to-one join
    among six relations and includes all twenty four attributes."

    Relations [R1]…[R6]; [R1,R2] at [DS1], [R3,R4] at [DS2], [R5,R6] at
    [DS3].  Each [Ri] has attributes [Ki] (the join key), [Ai] (int),
    [Bi] (string), [Ci] (float); the view joins [R1.K1 = R2.K2 = … = R6.K6]
    as a chain and selects all 24 attributes. *)

open Dyno_relational

let n_relations = 6

let source_of_rel i = "DS" ^ string_of_int (((i - 1) / 2) + 1)

let rel_name i = "R" ^ string_of_int i

let sources = [ "DS1"; "DS2"; "DS3" ]

let key_attr i = "K" ^ string_of_int i

let schema_of_rel i =
  Schema.of_list
    [
      Attr.int (key_attr i);
      Attr.int ("A" ^ string_of_int i);
      Attr.string ("B" ^ string_of_int i);
      Attr.float ("C" ^ string_of_int i);
    ]

(** Deterministic tuple for key [k] in relation [i] ([salt] varies the
    payload so inserted duplicates differ from loaded rows). *)
let tuple_for ?(salt = 0) i k : Value.t list =
  [
    Value.int k;
    Value.int ((k * 7) + i + (salt * 1000003));
    Value.string
      (String.concat "-"
         [ "r" ^ string_of_int i; string_of_int k; string_of_int salt ]);
    Value.float (float_of_int ((k * i) + salt) /. 8.0);
  ]

(** The materialized view of the experiments: one-to-one join of all six
    relations on the key chain, all 24 attributes. *)
let view_query () : Query.t =
  Query.make ~name:"V"
    ~select:
      (List.concat_map
         (fun i ->
           List.map
             (fun a -> Query.item (rel_name i ^ "." ^ a))
             (Schema.names (schema_of_rel i)))
         (List.init n_relations (fun i -> i + 1)))
    ~from:
      (List.init n_relations (fun i ->
           let i = i + 1 in
           Query.table (source_of_rel i) (rel_name i)))
    ~where:
      (List.init (n_relations - 1) (fun i ->
           let i = i + 1 in
           Predicate.eq_attr
             (rel_name i ^ "." ^ key_attr i)
             (rel_name (i + 1) ^ "." ^ key_attr (i + 1))))

let view2_query () : Query.t =
  Query.make ~name:"V2"
    ~select:[ Query.item "R1.K1"; Query.item "R1.B1"; Query.item "R2.B2" ]
    ~from:[ Query.table "DS1" "R1"; Query.table "DS1" "R2" ]
    ~where:[ Predicate.eq_attr "R1.K1" "R2.K2" ]

let view_schemas () =
  List.init n_relations (fun i ->
      let i = i + 1 in
      (rel_name i, schema_of_rel i))

(** [build_sources ~rows] creates and loads the three source servers. *)
let build_sources ~rows : Dyno_source.Registry.t =
  let registry = Dyno_source.Registry.create () in
  List.iter
    (fun sid -> Dyno_source.Registry.register registry (Dyno_source.Data_source.create sid))
    sources;
  for i = 1 to n_relations do
    let s = Dyno_source.Registry.find registry (source_of_rel i) in
    Dyno_source.Data_source.add_relation s (rel_name i) (schema_of_rel i);
    Dyno_source.Data_source.load s (rel_name i)
      (List.init rows (fun k -> tuple_for i k))
  done;
  registry

(** Meta knowledge for the experiments: every non-key attribute is
    dispensable (EVE's evolution preference), so drop-attribute schema
    changes rewrite the view by shrinking its select list; join keys have
    no replacement — dropping one would leave the view undefined, which
    the workloads avoid, and dedicated tests exercise. *)
let build_meta () : Dyno_source.Meta_knowledge.t =
  let mk = Dyno_source.Meta_knowledge.create () in
  for i = 1 to n_relations do
    List.iter
      (fun a ->
        Dyno_source.Meta_knowledge.mark_dispensable mk
          ~source:(source_of_rel i) ~rel:(rel_name i) ~attr:a)
      (List.tl (Schema.names (schema_of_rel i)) (* all but the key *))
  done;
  mk
