(** Partition plan: which shard owns which source.

    Scale-out slices the view manager by {e source}: every update stream
    is owned by exactly one shard, which runs its own UMQ, transport
    channel and exactly-once sequencer.  Per-source FIFO
    order (the sequencer's invariant) is therefore preserved trivially —
    a source's messages never cross a shard boundary — while shards
    drain their queues independently until a schema change forces a
    cross-shard barrier (see {!Scheduler.dispatch}).

    A plan is a total function from the world's sources to shard ids
    [0 .. shards-1]: sources are dealt round-robin in the order given, so
    a plan is balanced by source count (not by load). *)

type t

val plan : shards:int -> string list -> t
(** [plan ~shards sources] deals the sources round-robin over the
    shards in list order.
    @raise Invalid_argument if [shards < 1], or [sources] is empty or
    contains duplicates. *)

val count : t -> int
(** Number of shards (≥ 1). *)

val owner : t -> string -> int
(** The shard owning a source — O(1).
    @raise Invalid_argument on a source outside the plan. *)
