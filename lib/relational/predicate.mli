(** Conjunctive predicates over (possibly qualified) attribute references —
    the SPJ predicate class of the paper's Queries (1)–(5): equality joins
    plus constant filters (all six comparison operators supported). *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type operand = Ref of Attr.Qualified.t | Const of Value.t

type atom = { lhs : operand; op : op; rhs : operand }

type t = atom list
(** Conjunction of atoms; [[]] is TRUE. *)

val op_to_string : op -> string
val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Constructors. *)

val atom : operand -> op -> operand -> atom

val eq_attr : string -> string -> atom
(** [eq_attr "S.SID" "I.SID"] — equality between two references (parsed
    with {!Attr.Qualified.of_string}). *)

val eq_const : string -> Value.t -> atom
val cmp : string -> op -> Value.t -> atom

val refs : t -> Attr.Qualified.t list
(** Every attribute reference occurring in the conjunction. *)

val eval : (Attr.Qualified.t -> int) -> t -> Tuple.t -> bool

val compile : (Attr.Qualified.t -> int) -> t -> Tuple.t -> bool
(** [compile resolve p] resolves every reference to its tuple position
    once, up front, and returns a closure evaluating the conjunction by
    array indexing alone — the form the {!Eval.run} inner loops use.
    Semantically identical to [eval resolve p]; resolution failures
    (whatever [resolve] raises) surface at compile time instead of on
    the first tuple. *)

val map_refs : (Attr.Qualified.t -> Attr.Qualified.t) -> t -> t
(** Rewrite every reference (view synchronization uses this to apply
    renamings). *)

val partition_by_alias :
  (Attr.Qualified.t -> string) -> t -> atom list * atom list
(** Split into (per-alias local atoms, multi-alias join atoms); the
    function resolves unqualified references to their owning alias. *)

val equijoin_pairs :
  (Attr.Qualified.t -> string) ->
  t ->
  ((string * Attr.Qualified.t) * (string * Attr.Qualified.t)) list
(** Atoms of shape [R.a = S.b] with distinct aliases — the conditions a
    hash join can use, as ((alias, ref), (alias, ref)) pairs. *)
