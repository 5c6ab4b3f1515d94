(** Hand-written lexer for the SQL dialect of {!Sql_parser}.

    Tokens cover exactly what view definitions (Queries (1)–(5)), DML and
    DDL statements need: identifiers (optionally qualified and
    [@source]-annotated at the parser level), integer/float/string
    literals, comparison operators, punctuation and a fixed keyword set.
    Keywords are case-insensitive; identifiers are case-sensitive. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KEYWORD of string  (** uppercased *)
  | COMMA
  | DOT
  | AT
  | LPAREN
  | RPAREN
  | STAR
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | SEMI
  | EOF

exception Lex_error of string

let keywords =
  [
    "CREATE"; "VIEW"; "TABLE"; "AS"; "SELECT"; "FROM"; "WHERE"; "AND";
    "INSERT"; "INTO"; "VALUES"; "DELETE"; "ALTER"; "SOURCE"; "RENAME";
    "DROP"; "ADD"; "COLUMN"; "TO"; "DEFAULT"; "INT"; "FLOAT"; "VARCHAR";
    "BOOLEAN"; "TRUE"; "FALSE"; "NULL";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | INT i -> Fmt.pf ppf "integer %d" i
  | FLOAT f -> Fmt.pf ppf "float %g" f
  | STRING s -> Fmt.pf ppf "string '%s'" s
  | KEYWORD k -> Fmt.pf ppf "keyword %s" k
  | COMMA -> Fmt.string ppf "','"
  | DOT -> Fmt.string ppf "'.'"
  | AT -> Fmt.string ppf "'@'"
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | STAR -> Fmt.string ppf "'*'"
  | EQ -> Fmt.string ppf "'='"
  | NEQ -> Fmt.string ppf "'<>'"
  | LT -> Fmt.string ppf "'<'"
  | LE -> Fmt.string ppf "'<='"
  | GT -> Fmt.string ppf "'>'"
  | GE -> Fmt.string ppf "'>='"
  | SEMI -> Fmt.string ppf "';'"
  | EOF -> Fmt.string ppf "end of input"

(** [tokenize s] lexes the whole input.
    @raise Lex_error on malformed input. *)
let tokenize (s : string) : token list =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      let word = String.sub s start (!i - start) in
      let upper = String.uppercase_ascii word in
      if List.mem upper keywords then emit (KEYWORD upper) else emit (IDENT word)
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit s.[!i] do incr i done;
      if !i < n && s.[!i] = '.' then begin
        incr i;
        while !i < n && is_digit s.[!i] do incr i done;
        emit (FLOAT (float_of_string (String.sub s start (!i - start))))
      end
      else emit (INT (int_of_string (String.sub s start (!i - start))))
    end
    else if c = '\'' then begin
      (* string literal; '' escapes a quote *)
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if s.[!i] = '\'' then
          if !i + 1 < n && s.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      if not !closed then raise (Lex_error "unterminated string literal");
      emit (STRING (Buffer.contents buf))
    end
    else begin
      (match c with
      | ',' -> emit COMMA
      | '.' -> emit DOT
      | '@' -> emit AT
      | '(' -> emit LPAREN
      | ')' -> emit RPAREN
      | '*' -> emit STAR
      | ';' -> emit SEMI
      | '=' -> emit EQ
      | '<' ->
          if !i + 1 < n && s.[!i + 1] = '>' then begin
            emit NEQ;
            incr i
          end
          else if !i + 1 < n && s.[!i + 1] = '=' then begin
            emit LE;
            incr i
          end
          else emit LT
      | '>' ->
          if !i + 1 < n && s.[!i + 1] = '=' then begin
            emit GE;
            incr i
          end
          else emit GT
      | c -> raise (Lex_error (Fmt.str "unexpected character %C" c)));
      incr i
    end
  done;
  List.rev (EOF :: !toks)

(** [statements script] splits a script on each [;] outside a string
    literal (where [''] escapes a quote) and drops each [--] comment
    outside a string literal up to its end of line; every statement comes
    back trimmed, and empty ones are dropped. *)
let statements (script : string) : string list =
  let n = String.length script in
  let stmts = ref [] and cur = Buffer.create 64 in
  let flush () =
    let stmt = String.trim (Buffer.contents cur) in
    if stmt <> "" then stmts := stmt :: !stmts;
    Buffer.clear cur
  in
  let rec code i =
    if i < n then
      match script.[i] with
      | ';' ->
          flush ();
          code (i + 1)
      | '-' when i + 1 < n && script.[i + 1] = '-' -> comment (i + 2)
      | '\'' ->
          Buffer.add_char cur '\'';
          literal (i + 1)
      | c ->
          Buffer.add_char cur c;
          code (i + 1)
  and comment i =
    if i < n then if script.[i] = '\n' then code i else comment (i + 1)
  and literal i =
    if i < n then begin
      Buffer.add_char cur script.[i];
      (* a closing quote, unless it is the first of a [''] escape *)
      if script.[i] <> '\'' then literal (i + 1)
      else if i + 1 < n && script.[i + 1] = '\'' then begin
        Buffer.add_char cur '\'';
        literal (i + 2)
      end
      else code (i + 1)
    end
  in
  code 0;
  flush ();
  List.rev !stmts
