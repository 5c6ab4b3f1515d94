(** Partition plan: which shard owns which source.

    Scale-out slices the view manager by {e source}: every update stream
    is owned by exactly one shard, which runs its own UMQ, transport
    channel and exactly-once sequencer.  Per-source FIFO
    order (the sequencer's invariant) is therefore preserved trivially —
    a source's messages never cross a shard boundary — while shards
    drain their queues independently until a schema change forces a
    cross-shard barrier (see {!Shard_scheduler}).

    A plan is a total function from the world's sources to shard ids
    [0 .. shards-1].  Sources without an explicit [partition] override
    are dealt round-robin in the order given, so the default plan is
    balanced by source count (not by load — heavy-tailed workloads pass
    overrides to spread hot sources). *)

type t

val plan :
  ?partition:(string * int) list -> shards:int -> string list -> t
(** [plan ?partition ~shards sources] assigns every source a shard.
    Explicit [partition] pairs win; remaining sources are dealt
    round-robin over the shards in list order.
    @raise Invalid_argument if [shards < 1], a partition override names
    an unknown source or an out-of-range shard, or [sources] is empty
    or contains duplicates. *)

val solo : string list -> t
(** [plan ~shards:1 sources] — everything on one shard. *)

val count : t -> int
(** Number of shards (≥ 1). *)

val owner : t -> string -> int
(** The shard owning a source — O(1).
    @raise Invalid_argument on a source outside the plan. *)

val sources_of : t -> int -> string list
(** Sources owned by a shard, in the original [sources] order. *)

val sources : t -> string list
(** Every source in the plan, in the original order. *)

val pp : Format.formatter -> t -> unit
