(** Typed atomic values stored in tuples.

    The engine is dynamically checked: every value carries its own tag and
    the schema records the declared {!Vtype.t} of each attribute.  [VNull]
    inhabits every type, mirroring SQL's NULL (with two-valued comparison
    semantics: NULL equals NULL, which is what the view-maintenance
    literature assumes for delta bookkeeping of whole tuples). *)

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VNull

(** Declared type of an attribute. *)
module Vtype = struct
  type t = TInt | TFloat | TString | TBool

  let to_string = function
    | TInt -> "INT"
    | TFloat -> "FLOAT"
    | TString -> "VARCHAR"
    | TBool -> "BOOLEAN"

  let pp ppf t = Fmt.string ppf (to_string t)

  let equal (a : t) (b : t) = a = b

  let compare (a : t) (b : t) = Stdlib.compare a b

  let all = [ TInt; TFloat; TString; TBool ]
end

(** [type_of v] is [Some ty] for a non-null value, [None] for [VNull]. *)
let type_of = function
  | VInt _ -> Some Vtype.TInt
  | VFloat _ -> Some Vtype.TFloat
  | VString _ -> Some Vtype.TString
  | VBool _ -> Some Vtype.TBool
  | VNull -> None

(** [has_type v ty] holds when [v] may legally be stored in an attribute
    declared with type [ty].  [VNull] is a member of every type. *)
let has_type v ty =
  match type_of v with None -> true | Some t -> Vtype.equal t ty

let equal (a : t) (b : t) =
  match (a, b) with
  | VInt x, VInt y -> Int.equal x y
  | VFloat x, VFloat y -> Float.equal x y
  | VString x, VString y -> String.equal x y
  | VBool x, VBool y -> Bool.equal x y
  | VNull, VNull -> true
  | _ -> false

(** Total order across all values; values of distinct types are ordered by
    constructor rank so that sorting heterogeneous columns is deterministic. *)
let compare (a : t) (b : t) =
  let rank = function
    | VNull -> 0
    | VBool _ -> 1
    | VInt _ -> 2
    | VFloat _ -> 3
    | VString _ -> 4
  in
  match (a, b) with
  | VInt x, VInt y -> Int.compare x y
  | VFloat x, VFloat y -> Float.compare x y
  | VString x, VString y -> String.compare x y
  | VBool x, VBool y -> Bool.compare x y
  | VNull, VNull -> 0
  | _ -> Int.compare (rank a) (rank b)

(** [hash v] hashes the payload and mixes the constructor in
    arithmetically, so it allocates nothing (hashing a [(tag, payload)]
    pair would box one per value).  Equal values hash equally:
    [Hashtbl.hash] already maps every NaN to one hash and [-0.0] to that
    of [0.0], which is where {!Float.equal} equates floats. *)
let hash (v : t) =
  match v with
  | VInt x -> Hashtbl.hash x * 5
  | VFloat x -> (Hashtbl.hash x * 5) + 1
  | VString x -> (Hashtbl.hash x * 5) + 2
  | VBool x -> (Hashtbl.hash x * 5) + 3
  | VNull -> 4

let pp ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.float ppf f
  | VString s -> Fmt.pf ppf "'%s'" s
  | VBool b -> Fmt.bool ppf b
  | VNull -> Fmt.string ppf "NULL"

let to_string v = Fmt.str "%a" pp v

(* Convenience constructors, used pervasively by tests and examples. *)
let int i = VInt i
let float f = VFloat f
let string s = VString s
let bool b = VBool b
let null = VNull

(** [coerce_to ty v] converts [v] to type [ty] when a lossless conversion
    exists (int→float, anything→string); otherwise returns [None].  Used by
    view adaptation when a replacement attribute has a compatible but not
    identical declared type. *)
let coerce_to ty v =
  match (ty, v) with
  | _, VNull -> Some VNull
  | Vtype.TInt, VInt _ | Vtype.TFloat, VFloat _ -> Some v
  | Vtype.TString, VString _ | Vtype.TBool, VBool _ -> Some v
  | Vtype.TFloat, VInt i -> Some (VFloat (float_of_int i))
  | Vtype.TString, (VInt _ | VFloat _ | VBool _) -> Some (VString (to_string v))
  | _ -> None
