(* Unit tests for the SQL lexer/parser: view definitions, DML, DDL, error
   reporting, and a semantic round trip through the evaluator. *)

open Dyno_relational

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_lexer () =
  let toks = Sql_lexer.tokenize "SELECT a.b, 'it''s' <= 3.5 <> -2 @;" in
  Alcotest.(check int) "token count" 13 (List.length toks);
  Alcotest.(check bool) "string escape" true
    (List.exists (function Sql_lexer.STRING "it's" -> true | _ -> false) toks);
  Alcotest.(check bool) "negative int" true
    (List.exists (function Sql_lexer.INT (-2) -> true | _ -> false) toks);
  Alcotest.(check bool) "keyword recognized" true
    (List.exists (function Sql_lexer.KEYWORD "SELECT" -> true | _ -> false) toks);
  Alcotest.(check bool) "unterminated string" true
    (match Sql_lexer.tokenize "'oops" with
    | _ -> false
    | exception Sql_lexer.Lex_error _ -> true);
  Alcotest.(check bool) "bad char" true
    (match Sql_lexer.tokenize "a # b" with
    | _ -> false
    | exception Sql_lexer.Lex_error _ -> true)

let bookinfo_sql =
  "CREATE VIEW BookInfo AS \
   SELECT Store, Book, I.Author, Price, Publisher, Category, Review \
   FROM Store@Retailer AS S, Item@Retailer AS I, Catalog@Library AS C \
   WHERE S.SID = I.SID AND I.Book = C.Title"

let test_parse_view_query1 () =
  let q = ok (Sql_parser.parse_view bookinfo_sql) in
  Alcotest.(check string) "name" "BookInfo" (Query.name q);
  Alcotest.(check int) "7 select items" 7 (List.length (Query.select q));
  Alcotest.(check (list string)) "aliases" [ "S"; "I"; "C" ] (Query.aliases q);
  Alcotest.(check (list string)) "sources" [ "Retailer"; "Library" ] (Query.sources q);
  Alcotest.(check int) "2 join conditions" 2 (List.length (Query.where q))

let test_parse_bare_select () =
  let q = ok (Sql_parser.parse_view "SELECT R.x FROM R@ds WHERE R.x > 3") in
  Alcotest.(check string) "default name" "query" (Query.name q);
  Alcotest.(check int) "filter" 1 (List.length (Query.where q))

let test_roundtrip_through_printer () =
  (* printing a parsed view and reparsing yields the same structure *)
  let q = ok (Sql_parser.parse_view bookinfo_sql) in
  let printed = Sql.view_to_string q in
  let q2 = ok (Sql_parser.parse_view printed) in
  Alcotest.(check string) "roundtrip" (Query.to_string q) (Query.to_string q2)

let test_parse_view_semantics () =
  (* parsed query evaluates like a hand-built one *)
  let q = ok (Sql_parser.parse_view
                "SELECT A.k, B.w FROM A@x AS A, B@x AS B WHERE A.k = B.k2 AND B.w >= 10")
  in
  let a_schema = Schema.of_list [ Attr.int "k" ] in
  let b_schema = Schema.of_list [ Attr.int "k2"; Attr.int "w" ] in
  let a = Relation.of_list a_schema [ [ Value.int 1 ]; [ Value.int 2 ] ] in
  let b =
    Relation.of_list b_schema
      [ [ Value.int 1; Value.int 10 ]; [ Value.int 2; Value.int 5 ] ]
  in
  let out = Eval.run ~catalog:(Eval.catalog [ ("A", a); ("B", b) ]) q in
  Alcotest.(check int) "only w>=10 row" 1 (Relation.cardinality out)

let test_parse_insert_delete () =
  let schema = Schema.of_list [ Attr.int "k"; Attr.string "s" ] in
  let stmt = ok (Sql_parser.parse_statement "INSERT INTO R@ds VALUES (1, 'a'), (2, 'b')") in
  let u = ok (Sql_parser.to_update schema stmt) in
  Alcotest.(check int) "two inserts" 2 (Relation.cardinality (Update.delta u));
  Alcotest.(check string) "source" "ds" (Update.source u);
  let stmt = ok (Sql_parser.parse_statement "DELETE FROM R@ds VALUES (1, 'a');") in
  let u = ok (Sql_parser.to_update schema stmt) in
  Alcotest.(check int) "negative delta" (-1) (Relation.cardinality (Update.delta u));
  (* typecheck enforced *)
  let stmt = ok (Sql_parser.parse_statement "INSERT INTO R@ds VALUES ('wrong', 1)") in
  Alcotest.(check bool) "type error reported" true
    (match Sql_parser.to_update schema stmt with Error _ -> true | Ok _ -> false)

let test_parse_ddl () =
  let check_sc sql expected =
    match ok (Sql_parser.parse_statement sql) with
    | Sql_parser.Alter sc ->
        Alcotest.(check string) sql expected (Schema_change.to_string sc)
    | _ -> Alcotest.fail "expected ALTER"
  in
  check_sc "ALTER SOURCE ds RENAME TABLE R TO R2"
    "ALTER SOURCE ds RENAME TABLE R TO R2";
  check_sc "ALTER SOURCE ds DROP TABLE R" "ALTER SOURCE ds DROP TABLE R";
  check_sc "ALTER TABLE R@ds RENAME COLUMN a TO b"
    "ALTER TABLE R@ds RENAME COLUMN a TO b";
  check_sc "ALTER TABLE R@ds DROP COLUMN a" "ALTER TABLE R@ds DROP COLUMN a";
  (match ok (Sql_parser.parse_statement "ALTER TABLE R@ds ADD COLUMN n INT DEFAULT 0") with
  | Sql_parser.Alter (Schema_change.Add_attribute { attr; default; _ }) ->
      Alcotest.(check string) "attr name" "n" (Attr.name attr);
      Alcotest.(check bool) "default" true (Value.equal default (Value.int 0))
  | _ -> Alcotest.fail "expected ADD COLUMN");
  match ok (Sql_parser.parse_statement "CREATE TABLE T@ds (k INT, s VARCHAR, f FLOAT, b BOOLEAN)") with
  | Sql_parser.Create_table { schema; rel; source } ->
      Alcotest.(check string) "rel" "T" rel;
      Alcotest.(check string) "source" "ds" source;
      Alcotest.(check int) "4 columns" 4 (Schema.arity schema)
  | _ -> Alcotest.fail "expected CREATE TABLE"

let test_parse_errors () =
  let bad sql =
    match Sql_parser.parse_view sql with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "missing FROM" true (bad "SELECT a");
  Alcotest.(check bool) "missing source annotation" true (bad "SELECT a FROM R");
  Alcotest.(check bool) "trailing junk" true (bad "SELECT a FROM R@x garbage");
  Alcotest.(check bool) "duplicate alias" true
    (bad "SELECT a FROM R@x AS T, S@x AS T");
  let bads =
    match Sql_parser.parse_statement "INSERT INTO R@ds (1)" with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "missing VALUES" true bads

(* A script split into statements and each statement parsed. *)
let script_statements script =
  List.map
    (fun stmt -> ok (Sql_parser.parse_statement stmt))
    (Sql_lexer.statements script)

let inserted_rows = function
  | [ Sql_parser.Insert { rows; _ } ] -> rows
  | stmts ->
      Alcotest.failf "expected one INSERT, got %d statements"
        (List.length stmts)

let test_script_comment () =
  (* the first '-' on the line is a sign; the comment starts later *)
  let rows =
    inserted_rows
      (script_statements "INSERT INTO R@S VALUES (-1, 5); -- note\n")
  in
  Alcotest.(check bool) "row (-1, 5)" true
    (rows = [ [ Value.int (-1); Value.int 5 ] ])

let test_script_literal () =
  (* ';', '--' and an escaped quote inside a literal are text *)
  let rows =
    inserted_rows
      (script_statements
         "INSERT INTO R@S VALUES (1, 'a;b'), (2, 'it''s -- here');\n-- end")
  in
  Alcotest.(check bool) "rows kept whole" true
    (rows
    = [
        [ Value.int 1; Value.string "a;b" ];
        [ Value.int 2; Value.string "it's -- here" ];
      ])

let () =
  Alcotest.run "sql"
    [
      ( "sql",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "parse Query (1)" `Quick test_parse_view_query1;
          Alcotest.test_case "bare SELECT" `Quick test_parse_bare_select;
          Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip_through_printer;
          Alcotest.test_case "parsed views evaluate" `Quick test_parse_view_semantics;
          Alcotest.test_case "INSERT/DELETE" `Quick test_parse_insert_delete;
          Alcotest.test_case "DDL statements" `Quick test_parse_ddl;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "script: comment after a negative literal" `Quick
            test_script_comment;
          Alcotest.test_case "script: ';' and '--' inside a literal" `Quick
            test_script_literal;
        ] );
    ]
