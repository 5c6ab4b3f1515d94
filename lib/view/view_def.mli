(** The view definition: the critical shared resource of the paper.
    Concurrent dependencies (Definition 3) are read–write conflicts on
    this object: every maintenance process reads it (r(VD)) to construct
    its queries, and the maintenance of a schema change rewrites it
    (w(VD)). *)

open Dyno_relational

type t

val create : schemas:(string * Schema.t) list -> Query.t -> t
(** [schemas] is the view manager's {e believed} schema of each FROM
    alias — maintenance queries are built from this possibly-stale
    knowledge, which is exactly why they can break. *)

val read : t -> Query.t * int
(** The r(VD) step: the current definition and the version it was read
    at. *)

val peek : t -> Query.t
(** Read without counting a maintenance read. *)

val schemas : t -> (string * Schema.t) list
val schema_of_alias : t -> string -> Schema.t option
val version : t -> int
val is_valid : t -> bool
val reads : t -> int

val write : t -> schemas:(string * Schema.t) list -> Query.t -> unit
(** The w(VD) step: install a rewritten definition and the believed
    schemas it was derived for (in-memory; the physical rewrite happens
    together with w(MV) — the paper's footnote 1). *)

type saved

val save : t -> saved
val restore : t -> saved -> unit
(** Roll back to a saved state — an aborted maintenance process must leave
    no trace of its w(VD). *)

val invalidate : t -> unit
(** Mark the view undefined (no rewriting exists). *)

(** {1 Derived plans} *)

type derived = ..
(** Values a higher layer derives from one version of the definition —
    the VM's compiled sweeps ({!Dyno_vm.Maint_query.sweep_for}) extend
    this type. *)

val derived : t -> derived list
(** What has been derived from the current version.  Every {!write},
    {!restore} and {!invalidate} moves the version and empties it. *)

val remember : t -> derived -> unit
(** Keep a value derived from the current version. *)

val name : t -> string
