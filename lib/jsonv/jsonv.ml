(* Minimal RFC-8259 JSON value + strict parser + emitter.  The grammar
   is exactly RFC 8259 (objects, arrays, strings with escapes, numbers,
   true/false/null); anything else — trailing garbage, control
   characters, lone surrogates' hex digits are still accepted as \u
   escapes — is rejected with a byte offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int

type cursor = { s : string; mutable pos : int }

let fail (c : cursor) msg = raise (Bad (msg, c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> fail c "unexpected end of input"

let expect c ch =
  let got = next c in
  if got <> ch then
    raise (Bad (Printf.sprintf "expected %C, got %C" ch got, c.pos - 1))

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        go ()
    | _ -> ()
  in
  go ()

let expect_lit c lit = String.iter (fun ch -> expect c ch) lit

let hex_digit c =
  match next c with
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | ch -> raise (Bad (Printf.sprintf "bad hex digit %C" ch, c.pos - 1))

let hex4 c =
  let a = hex_digit c in
  let b = hex_digit c in
  let d = hex_digit c in
  let e = hex_digit c in
  (a lsl 12) lor (b lsl 8) lor (d lsl 4) lor e

(* UTF-8 encode one scalar value into the buffer. *)
let encode_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (match next c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let cp = hex4 c in
            let cp =
              (* surrogate pair: \uD800-\uDBFF must be followed by a low
                 surrogate escape; combine into one scalar value. *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                expect c '\\';
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail c "high surrogate not followed by a low surrogate";
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail c "lone low surrogate"
              else cp
            in
            encode_utf8 buf cp
        | ch -> raise (Bad (Printf.sprintf "bad escape %C" ch, c.pos - 1)));
        go ()
    | ch when Char.code ch < 0x20 ->
        raise (Bad ("unescaped control character in string", c.pos - 1))
    | ch ->
        Buffer.add_char buf ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  (match peek c with Some '-' -> ignore (next c) | _ -> ());
  let digits () =
    let n = ref 0 in
    let rec go () =
      match peek c with
      | Some '0' .. '9' ->
          incr n;
          c.pos <- c.pos + 1;
          go ()
      | _ -> ()
    in
    go ();
    if !n = 0 then fail c "expected digit"
  in
  digits ();
  (match peek c with
  | Some '.' ->
      c.pos <- c.pos + 1;
      digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some ('+' | '-') -> c.pos <- c.pos + 1
      | _ -> ());
      digits ()
  | _ -> ());
  float_of_string (String.sub c.s start (c.pos - start))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '"' -> Str (parse_string c)
  | Some '{' -> parse_object c
  | Some '[' -> parse_array c
  | Some 't' ->
      expect_lit c "true";
      Bool true
  | Some 'f' ->
      expect_lit c "false";
      Bool false
  | Some 'n' ->
      expect_lit c "null";
      Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)
  | None -> fail c "unexpected end of input"

and parse_object c =
  expect c '{';
  skip_ws c;
  match peek c with
  | Some '}' ->
      c.pos <- c.pos + 1;
      Obj []
  | _ ->
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match next c with
        | ',' -> members ((k, v) :: acc)
        | '}' -> Obj (List.rev ((k, v) :: acc))
        | ch ->
            raise
              (Bad (Printf.sprintf "expected , or }, got %C" ch, c.pos - 1))
      in
      members []

and parse_array c =
  expect c '[';
  skip_ws c;
  match peek c with
  | Some ']' ->
      c.pos <- c.pos + 1;
      Arr []
  | _ ->
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match next c with
        | ',' -> elements (v :: acc)
        | ']' -> Arr (List.rev (v :: acc))
        | ch ->
            raise
              (Bad (Printf.sprintf "expected , or ], got %C" ch, c.pos - 1))
      in
      elements []

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    (v, peek c)
  with
  | v, None -> Ok v
  | _, Some ch -> Error (Printf.sprintf "trailing %C at %d" ch c.pos)
  | exception Bad (msg, pos) -> Error (Printf.sprintf "%s at %d" msg pos)

let check s = Result.map (fun _ -> ()) (parse s)

let parse_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      parse s

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num = function Num f -> Some f | _ -> None
let arr = function Arr l -> Some l | _ -> None

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.6g" f
  else "null" (* NaN/inf have no JSON representation *)

let to_string v =
  let buf = Buffer.create 256 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> Buffer.add_string buf (quote s)
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr l ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) v)
          l;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_string buf (quote k);
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          kvs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf
