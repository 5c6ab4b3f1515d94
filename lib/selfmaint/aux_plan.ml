(** Auxiliary-view derivation: which projections make a view
    self-maintainable.

    SWEEP probes a join partner for exactly the attributes the view query
    references anywhere — select list, local filters, join predicates
    (see {!Dyno_vm.Maint_query.needed_attrs}).  A projection of the
    partner onto that attribute set therefore answers every maintenance
    probe the view can ever issue, and because SPJ queries are linear
    over signed multisets, the count-summed projection joins to exactly
    the same result as the full relation.  [derive] reads the (current,
    possibly VS-rewritten) view definition and emits one such projection
    descriptor per joined table — the plan the {!Aux_store} materializes
    and keeps current from the delivered update stream. *)

open Dyno_relational

type aux_def = {
  source : string;  (** data source owning the projected relation *)
  rel : string;  (** relation name at the source *)
  alias : string;  (** the view alias the projection stands in for *)
  attrs : string list;
      (** needed attributes, in first-reference order — the probe columns *)
}

(** [derive mv] — one projection per table the view joins, onto the
    attributes its maintenance probes need.  An invalidated view
    definition (the view is undefined after an unhandled drop) or an
    alias whose references cannot be resolved yields no descriptor: the
    store simply never covers it and maintenance falls back to probing. *)
let derive (mv : Dyno_view.Mat_view.t) : aux_def list =
  let vd = Dyno_view.Mat_view.def mv in
  if not (Dyno_view.View_def.is_valid vd) then []
  else
    let q = Dyno_view.View_def.peek vd in
    let schemas = Dyno_view.View_def.schemas vd in
    let owner = Dyno_vm.Maint_query.owner_of_schemas schemas in
    List.filter_map
      (fun (tr : Query.table_ref) ->
        match Dyno_vm.Maint_query.needed_attrs q owner tr.Query.alias with
        | [] -> None
        | attrs ->
            Some
              {
                source = tr.Query.source;
                rel = tr.Query.rel;
                alias = tr.Query.alias;
                attrs;
              }
        | exception Eval.Error _ -> None)
      (Query.from q)
