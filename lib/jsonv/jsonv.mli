(** Minimal RFC-8259 JSON: a value type, a strict recursive-descent
    parser and string quoting.  No external JSON library is in the
    dependency cone on purpose; this covers exactly what the repo needs —
    quoting strings for the exporters and validating their output in
    tests and CI. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict RFC 8259: rejects trailing garbage, unescaped control
    characters, bare NaN/Infinity.  The error carries a byte offset. *)

val check : string -> (unit, string) result
(** Well-formedness only. *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects too). *)

val num : t -> float option

val quote : string -> string
(** A JSON string literal, quotes included. *)
