(** Recursive-descent parser for the SQL dialect the system speaks.

    Grammar (keywords case-insensitive; [rel@source] names the hosting
    data source explicitly, since queries span many autonomous sources):

    {v
    view      ::= CREATE VIEW ident AS select | select
    select    ::= SELECT items FROM tables [WHERE conj]
    items     ::= item (',' item)*           item ::= ref [AS ident]
    tables    ::= table (',' table)*         table ::= ident '@' ident [AS ident]
    conj      ::= atom (AND atom)*           atom ::= operand op operand
    operand   ::= ref | literal              ref ::= [ident '.'] ident
    op        ::= '=' | '<>' | '<' | '<=' | '>' | '>='
    literal   ::= int | float | string | TRUE | FALSE | NULL

    statement ::= insert | delete | create_table | alter
    insert    ::= INSERT INTO ident '@' ident VALUES tuple (',' tuple)*
    delete    ::= DELETE FROM ident '@' ident VALUES tuple (',' tuple)*
    create_table ::= CREATE TABLE ident '@' ident '(' coldef (',' coldef)* ')'
    coldef    ::= ident type                 type ::= INT | FLOAT | VARCHAR | BOOLEAN
    alter     ::= ALTER SOURCE ident (RENAME TABLE ident TO ident | DROP TABLE ident)
                | ALTER TABLE ident '@' ident
                    ( RENAME COLUMN ident TO ident
                    | DROP COLUMN ident
                    | ADD COLUMN ident type DEFAULT literal )
    v}

    Inserts/deletes parse into {!Update.t} given the relation's schema
    (supplied by the caller: the schema it has when the statement
    commits). *)

open Sql_lexer

exception Parse_error of string

let err fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let eat st expected =
  let t = peek st in
  if t = expected then advance st
  else err "expected %a but found %a" pp_token expected pp_token t

let eat_kw st kw = eat st (KEYWORD kw)

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> err "expected an identifier, found %a" pp_token t

let literal st : Value.t =
  match peek st with
  | INT i ->
      advance st;
      Value.int i
  | FLOAT f ->
      advance st;
      Value.float f
  | STRING s ->
      advance st;
      Value.string s
  | KEYWORD "TRUE" ->
      advance st;
      Value.bool true
  | KEYWORD "FALSE" ->
      advance st;
      Value.bool false
  | KEYWORD "NULL" ->
      advance st;
      Value.null
  | t -> err "expected a literal, found %a" pp_token t

let vtype st : Value.Vtype.t =
  match peek st with
  | KEYWORD "INT" ->
      advance st;
      Value.Vtype.TInt
  | KEYWORD "FLOAT" ->
      advance st;
      Value.Vtype.TFloat
  | KEYWORD "VARCHAR" ->
      advance st;
      Value.Vtype.TString
  | KEYWORD "BOOLEAN" ->
      advance st;
      Value.Vtype.TBool
  | t -> err "expected a type, found %a" pp_token t

let attr_ref st : Attr.Qualified.t =
  let first = ident st in
  if peek st = DOT then begin
    advance st;
    let attr = ident st in
    Attr.Qualified.make ~rel:first attr
  end
  else Attr.Qualified.make first

(* rel '@' source [AS alias] *)
let table_ref st : Query.table_ref =
  let rel = ident st in
  eat st AT;
  let source = ident st in
  let alias =
    if peek st = KEYWORD "AS" then begin
      advance st;
      Some (ident st)
    end
    else None
  in
  Query.table ?alias source rel

let operand st : Predicate.operand =
  match peek st with
  | IDENT _ -> Predicate.Ref (attr_ref st)
  | _ -> Predicate.Const (literal st)

let comparison st : Predicate.op =
  match peek st with
  | EQ ->
      advance st;
      Predicate.Eq
  | NEQ ->
      advance st;
      Predicate.Ne
  | LT ->
      advance st;
      Predicate.Lt
  | LE ->
      advance st;
      Predicate.Le
  | GT ->
      advance st;
      Predicate.Gt
  | GE ->
      advance st;
      Predicate.Ge
  | t -> err "expected a comparison operator, found %a" pp_token t

let atom st : Predicate.atom =
  let lhs = operand st in
  let op = comparison st in
  let rhs = operand st in
  Predicate.atom lhs op rhs

let rec sep_by st parse =
  let x = parse st in
  if peek st = COMMA then begin
    advance st;
    x :: sep_by st parse
  end
  else [ x ]

let conjunction st =
  let rec go acc =
    let a = atom st in
    if peek st = KEYWORD "AND" then begin
      advance st;
      go (a :: acc)
    end
    else List.rev (a :: acc)
  in
  go []

let select_item st : Query.select_item =
  let expr = attr_ref st in
  let as_name =
    if peek st = KEYWORD "AS" then begin
      advance st;
      Some (ident st)
    end
    else None
  in
  { Query.expr; as_name = Option.value as_name ~default:(Attr.Qualified.attr expr) }

let select_body ~name st : Query.t =
  eat_kw st "SELECT";
  let select = sep_by st select_item in
  eat_kw st "FROM";
  let from = sep_by st table_ref in
  let where = if peek st = KEYWORD "WHERE" then (advance st; conjunction st) else [] in
  Query.make ~name ~select ~from ~where

(** [parse_view s] parses [CREATE VIEW name AS SELECT …] (or a bare
    [SELECT …], named ["query"]). *)
let parse_view (s : string) : (Query.t, string) result =
  try
    let st = { toks = tokenize s } in
    let q =
      if peek st = KEYWORD "CREATE" then begin
        advance st;
        eat_kw st "VIEW";
        let name = ident st in
        eat_kw st "AS";
        select_body ~name st
      end
      else select_body ~name:"query" st
    in
    if peek st = SEMI then advance st;
    eat st EOF;
    Ok q
  with
  | Lex_error e | Parse_error e -> Error e
  | Query.Malformed e -> Error e

(** Parsed DML/DDL statements.  Inserts/deletes carry raw value tuples —
    they become {!Update.t}s once the caller provides the relation's
    schema (see {!to_update}). *)
type statement =
  | Insert of { source : string; rel : string; rows : Value.t list list }
  | Delete of { source : string; rel : string; rows : Value.t list list }
  | Create_table of { source : string; rel : string; schema : Schema.t }
  | Alter of Schema_change.t

let tuple st =
  eat st LPAREN;
  let vs = sep_by st literal in
  eat st RPAREN;
  vs

let rel_at_source st =
  let rel = ident st in
  eat st AT;
  let source = ident st in
  (rel, source)

(** [parse_statement s] parses one DML/DDL statement. *)
let parse_statement (s : string) : (statement, string) result =
  try
    let st = { toks = tokenize s } in
    let stmt =
      match peek st with
      | KEYWORD "INSERT" ->
          advance st;
          eat_kw st "INTO";
          let rel, source = rel_at_source st in
          eat_kw st "VALUES";
          Insert { source; rel; rows = sep_by st tuple }
      | KEYWORD "DELETE" ->
          advance st;
          eat_kw st "FROM";
          let rel, source = rel_at_source st in
          eat_kw st "VALUES";
          Delete { source; rel; rows = sep_by st tuple }
      | KEYWORD "CREATE" ->
          advance st;
          eat_kw st "TABLE";
          let rel, source = rel_at_source st in
          eat st LPAREN;
          let cols =
            sep_by st (fun st ->
                let name = ident st in
                let ty = vtype st in
                Attr.make name ty)
          in
          eat st RPAREN;
          Create_table { source; rel; schema = Schema.of_list cols }
      | KEYWORD "ALTER" -> (
          advance st;
          match peek st with
          | KEYWORD "SOURCE" -> (
              advance st;
              let source = ident st in
              match peek st with
              | KEYWORD "RENAME" ->
                  advance st;
                  eat_kw st "TABLE";
                  let old_name = ident st in
                  eat_kw st "TO";
                  let new_name = ident st in
                  Alter (Schema_change.Rename_relation { source; old_name; new_name })
              | KEYWORD "DROP" ->
                  advance st;
                  eat_kw st "TABLE";
                  Alter (Schema_change.Drop_relation { source; name = ident st })
              | t -> err "expected RENAME or DROP, found %a" pp_token t)
          | KEYWORD "TABLE" -> (
              advance st;
              let rel, source = rel_at_source st in
              match peek st with
              | KEYWORD "RENAME" ->
                  advance st;
                  eat_kw st "COLUMN";
                  let old_name = ident st in
                  eat_kw st "TO";
                  let new_name = ident st in
                  Alter
                    (Schema_change.Rename_attribute { source; rel; old_name; new_name })
              | KEYWORD "DROP" ->
                  advance st;
                  eat_kw st "COLUMN";
                  Alter (Schema_change.Drop_attribute { source; rel; attr = ident st })
              | KEYWORD "ADD" ->
                  advance st;
                  eat_kw st "COLUMN";
                  let name = ident st in
                  let ty = vtype st in
                  eat_kw st "DEFAULT";
                  let default = literal st in
                  Alter
                    (Schema_change.Add_attribute
                       { source; rel; attr = Attr.make name ty; default })
              | t -> err "expected RENAME, DROP or ADD, found %a" pp_token t)
          | t -> err "expected SOURCE or TABLE, found %a" pp_token t)
      | t -> err "expected a statement, found %a" pp_token t
    in
    if peek st = SEMI then advance st;
    eat st EOF;
    Ok stmt
  with
  | Lex_error e | Parse_error e -> Error e
  | Schema.Duplicate_attribute a -> Error (Fmt.str "duplicate column %s" a)

(** [to_update schema stmt] converts a parsed insert/delete into an
    {!Update.t}, typechecking every row against [schema]. *)
let to_update (schema : Schema.t) (stmt : statement) : (Update.t, string) result
    =
  let build ~source ~rel ~sign rows =
    let delta = Relation.create schema in
    try
      List.iter
        (fun row ->
          let tup = Tuple.of_list row in
          if not (Schema.typecheck schema tup) then
            err "row %a does not match schema %a" Tuple.pp tup Schema.pp schema;
          Relation.add delta tup sign)
        rows;
      Ok (Update.make ~source ~rel delta)
    with Parse_error e -> Error e
  in
  match stmt with
  | Insert { source; rel; rows } -> build ~source ~rel ~sign:1 rows
  | Delete { source; rel; rows } -> build ~source ~rel ~sign:(-1) rows
  | Create_table _ | Alter _ -> Error "not a data update"
