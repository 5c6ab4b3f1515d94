(** Minimal RFC-8259 JSON: a value type, a strict recursive-descent
    parser, and a small pretty-printing emitter.  No external JSON
    library is in the dependency cone on purpose; this covers exactly
    what the repo needs — emitting and re-reading the benchmark baseline
    files ([bench --json] / [bench --check]) and validating exporter
    output in tests and CI. *)

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

val parse_file : string -> (t, string) result

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects too). *)

val num : t -> float option
val arr : t -> t list option

val to_string : t -> string
(** Pretty form: 2-space indent, one array element or object member per
    line, numbers in [%.6g] (integers without a point), no trailing
    newline. *)

val quote : string -> string
(** A JSON string literal, quotes included. *)
