(** Auxiliary-view derivation: the projections that make a view
    self-maintainable.  One descriptor per joined table, onto exactly the
    attributes the view's maintenance probes reference
    ({!Dyno_vm.Maint_query.needed_attrs}); SPJ linearity over signed
    multisets guarantees the count-summed projection answers every probe
    with the same result as the full relation. *)

type aux_def = {
  source : string;  (** data source owning the projected relation *)
  rel : string;  (** relation name at the source *)
  alias : string;  (** the view alias the projection stands in for *)
  attrs : string list;
      (** needed attributes, in first-reference order — the probe columns *)
}

val derive : Dyno_view.Mat_view.t -> aux_def list
(** [derive mv] — one projection descriptor per table the (current,
    possibly rewritten) view definition joins.  An invalidated view or an
    unresolvable alias yields no descriptor, so maintenance falls back to
    probing rather than trusting a stale plan. *)
