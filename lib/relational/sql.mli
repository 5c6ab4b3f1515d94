(** SQL-flavoured rendering of queries, updates and schema changes, so
    that traces and examples read like the paper's Queries (1)–(5).
    The inverse direction (parsing) lives in {!Sql_parser}. *)

val pp_view : Format.formatter -> Query.t -> unit
(** [CREATE VIEW name AS SELECT …] — parseable back by
    {!Sql_parser.parse_view} (when the WHERE clause is non-empty). *)

val view_to_string : Query.t -> string

val pp_update : Format.formatter -> Update.t -> unit
(** A block of INSERT/DELETE statements. *)

val pp_relation_table : Format.formatter -> Relation.t -> unit
(** Bordered ASCII table (sorted rows), used by the examples and the CLI
    to show view extents. *)
