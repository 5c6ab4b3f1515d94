(** Hand-written lexer for the SQL dialect of {!Sql_parser}: identifiers,
    integer/float/string literals (['' ] escapes a quote), comparison
    operators, punctuation and a fixed case-insensitive keyword set. *)

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

val keywords : string list

val pp_token : Format.formatter -> token -> unit

val tokenize : string -> token list
(** Lex the whole input (ends with [EOF]).
    @raise Lex_error on malformed input. *)

val statements : string -> string list
(** Split a script into its statements: on each [;] outside a string
    literal, with every [--] comment outside a string literal dropped up
    to its end of line.  Each statement is trimmed; empty ones are
    dropped.  An unterminated literal runs to the end of the script, for
    {!tokenize} to report. *)
