(** Relation schemas: an ordered list of distinctly-named attributes.

    Order matters — tuples are positional value arrays — so the schema is the
    single authority for translating attribute names to positions. *)

type t = { attrs : Attr.t array }

exception Duplicate_attribute of string
exception No_such_attribute of string

let of_list attrs =
  let arr = Array.of_list attrs in
  let seen = Hashtbl.create (Array.length arr) in
  Array.iter
    (fun a ->
      let n = Attr.name a in
      if Hashtbl.mem seen n then raise (Duplicate_attribute n)
      else Hashtbl.add seen n ())
    arr;
  { attrs = arr }

let attrs s = Array.to_list s.attrs
let arity s = Array.length s.attrs
let attr_at s i = s.attrs.(i)

let names s = Array.to_list (Array.map Attr.name s.attrs)

let mem s name =
  Array.exists (fun a -> String.equal (Attr.name a) name) s.attrs

(** [index_of s name] is the position of attribute [name].
    @raise No_such_attribute when absent. *)
let index_of s name =
  let rec go i =
    if i >= Array.length s.attrs then raise (No_such_attribute name)
    else if String.equal (Attr.name s.attrs.(i)) name then i
    else go (i + 1)
  in
  go 0

let index_of_opt s name =
  match index_of s name with i -> Some i | exception No_such_attribute _ -> None

let find s name = attr_at s (index_of s name)
let find_opt s name = Option.map (attr_at s) (index_of_opt s name)

let equal a b =
  a == b
  || Array.length a.attrs = Array.length b.attrs
     && Array.for_all2 Attr.equal a.attrs b.attrs

(** Same attribute names and types regardless of order. *)
let equivalent a b =
  let sort s = List.sort Attr.compare (attrs s) in
  List.equal Attr.equal (sort a) (sort b)

let pp ppf s =
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Attr.pp) (attrs s)

(* -- Schema surgery: the primitives that schema changes are built from. -- *)

(** [project s names] keeps exactly [names], in the order given.
    @raise No_such_attribute when a name is absent. *)
let project s names =
  of_list (List.map (fun n -> find s n) names)

(** [drop s name] removes one attribute.
    @raise No_such_attribute when absent. *)
let drop s name =
  let i = index_of s name in
  of_list
    (List.filteri (fun j _ -> j <> i) (attrs s))

(** [add s attr] appends a new attribute.
    @raise Duplicate_attribute when the name is taken. *)
let add s attr =
  of_list (attrs s @ [ attr ])

(** [rename s ~old_name ~new_name] renames one attribute in place.
    @raise No_such_attribute / @raise Duplicate_attribute accordingly. *)
let rename s ~old_name ~new_name =
  let _ = index_of s old_name in
  if (not (String.equal old_name new_name)) && mem s new_name then
    raise (Duplicate_attribute new_name);
  of_list
    (List.map
       (fun a ->
         if String.equal (Attr.name a) old_name then Attr.rename a new_name
         else a)
       (attrs s))

(** [concat a b] is the schema of a join product; clashing names on the
    right-hand side are disambiguated with a ["_r"] suffix (repeated until
    fresh), mirroring how the paper's view has 24 = 6×4 attributes with
    implicit disambiguation. *)
let concat a b =
  let taken = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace taken n ()) (names a);
  let fresh n =
    let rec go n = if Hashtbl.mem taken n then go (n ^ "_r") else n in
    let n' = go n in
    Hashtbl.replace taken n' ();
    n'
  in
  of_list
    (attrs a
    @ List.map (fun at -> Attr.rename at (fresh (Attr.name at))) (attrs b))

(** [typecheck s values] verifies arity and per-position type membership. *)
let typecheck s (values : Value.t array) =
  Array.length values = arity s
  && Array.for_all2 (fun a v -> Value.has_type v (Attr.ty a)) s.attrs values

let empty = { attrs = [||] }
