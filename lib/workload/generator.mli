(** Workload generation for the experiments of Section 6.  The generator
    walks a mirror of the sources' evolving state, so every generated
    event is valid at its commit time even across renames, drops and adds:
    a DU scheduled after "rename R3 to R3_r1" targets [R3_r1] with the
    post-change schema, as a real autonomous source would emit it. *)

open Dyno_sim

(** Kinds of schema changes the experiments use. *)
type sc_kind =
  | Drop_attr  (** drop a random non-key attribute *)
  | Rename_rel
  | Rename_attr
  | Add_attr

(** One scheduled event request: when, and what kind. *)
type request = At_du of float | At_sc of float * sc_kind

val build : rows:int -> seed:int -> request list -> Timeline.t
(** Walk the requests in time order against a fresh mirror; requests that
    cannot be satisfied (e.g. a drop with no droppable attribute left)
    retry on another relation, then are skipped. *)

val mixed :
  rows:int ->
  seed:int ->
  ?du_start:float ->
  ?du_interval:float ->
  n_dus:int ->
  ?sc_start:float ->
  sc_interval:float ->
  sc_kinds:sc_kind list ->
  unit ->
  Timeline.t
(** The paper's mixed workloads: [n_dus] data updates spaced by
    [du_interval] plus a schema-change train spaced by [sc_interval]. *)

val drop_then_renames : int -> sc_kind list
(** The Figure 10/11/12 train: one drop-attribute followed by [n-1]
    rename-relation operations; empty for [n <= 0]. *)

val zipf : alpha:float -> n:int -> float array
(** Normalized Zipf weights [w_i ∝ (i+1)^(-alpha)]; [alpha = 0] is
    uniform, larger values concentrate mass on the first entries. *)
