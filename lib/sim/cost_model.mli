(** Cost model: translates engine work into simulated seconds, replacing
    the paper's testbed (4× Pentium III, Oracle8i, JDBC) with explicit
    constants calibrated to its reported scales — one DU maintenance
    ≈ 0.23 s, one schema-change maintenance ≈ 20–26 s (which is why the
    abort-cost peak of Figure 10 sits at inter-SC intervals near the SC
    maintenance time).  [row_scale] lets benchmarks run on a physically
    smaller extent while charging time as if relations had the paper's
    100k tuples. *)

type t = {
  query_latency : float;  (** fixed round-trip per maintenance query, s *)
  per_tuple_scan : float;  (** source-side cost per tuple scanned, s *)
  per_tuple_transfer : float;  (** per result tuple shipped to the view, s *)
  view_write_per_tuple : float;  (** applying a delta tuple to the MV, s *)
  view_commit : float;  (** fixed cost of committing a view refresh, s *)
  vs_rewrite : float;  (** view synchronization (rewrite + meta lookup), s *)
  va_fixed : float;  (** fixed part of view adaptation, s *)
  va_per_tuple : float;  (** adaptation cost per tuple scanned/written, s *)
  va_rebuild_per_tuple : float;
      (** extra per-tuple cost of rebuilding the whole extent when the
          rewritten view changed shape — what makes drop-attribute
          maintenance substantially more expensive than renames *)
  detect_flag : float;  (** checking the schema-change flag, s *)
  detect_per_edge : float;  (** dependency-graph work per examined pair, s *)
  correct_per_node : float;  (** topo-sort/SCC work per node+edge, s *)
  rpc_timeout : float;
      (** wait for a maintenance-query answer before retrying, s *)
  retransmit_interval : float;
      (** wrapper retransmission interval after a lost update message, s *)
  row_scale : float;  (** logical rows per physical row (cost scaling) *)
}

val default : t

val scaled : float -> t
(** A model whose physical extent is [1/k] of the logical one. *)

val free : t
(** Zero-cost model for pure-algorithm runs (unit tests). *)

val rows : t -> int -> float
(** Physical row count scaled to logical rows. *)

val probe : t -> scanned:int -> returned:int -> float
(** One maintenance-query probe: round trip + scan + result transfer. *)

val refresh : t -> delta_tuples:int -> float
val synchronize : t -> float
val adapt : t -> scanned:int -> written:int -> float
val rebuild : t -> written:int -> float

val detect : t -> n:int -> m:int -> float
(** Pre-exec detection over [n] updates with [m] schema changes —
    O(m·n + n) pair examinations. *)

val correct : t -> nodes:int -> edges:int -> float
(** Correction (SCC + topological sort), O(n + e). *)
