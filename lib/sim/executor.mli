(** Deterministic cooperative task executor over the simulated clock.

    Tasks are single-domain effect-handler coroutines: a spawned task
    runs until it sleeps, at which point control returns to the driver,
    which resumes whichever parked task has the earliest wake-up time
    (ties broken by spawn order).  Simulated time only moves forward,
    via {!Clock.advance_to}, so a round of tasks interleaves exactly
    like a discrete-event simulation: deterministic and repeatable, with
    no OS threads involved.

    The intended use is overlapping maintenance work whose latencies are
    simulated clock advances (probe round-trips): each independent piece
    of work becomes a task, every in-task time charge routes through
    {!sleep_for}/{!sleep_until}, and the round's elapsed simulated time
    becomes the {e maximum} rather than the {e sum} of the tasks'
    individual latencies. *)

type t

val create : Clock.t -> t

val on_switch : t -> (int option -> unit) -> unit
(** Install a hook called with [Some id] every time task [id] starts or
    resumes, and with [None] every time control returns to the driver.
    Used to retarget ambient observability state (the span recorder's
    current logical thread) at each context switch. *)

val sleep_for : t -> float -> unit
(** Charge a duration of simulated time.  Inside a task this parks the
    task and lets others run in the meantime; outside any task it is
    exactly [Clock.advance].
    @raise Invalid_argument on a negative duration. *)

val sleep_until : t -> float -> unit
(** Park until an absolute simulated time (clamped to now if already
    past).  Outside any task it is exactly [Clock.advance_to]. *)

val run_all : t -> (unit -> unit) list -> unit
(** Spawn one task per thunk (all runnable now, in list order) and drive
    them to completion, advancing the clock to each earliest wake-up
    time in turn.  Returns once every task has finished; the clock then
    sits at the latest wake-up reached.  If tasks raised, the remaining
    tasks still run to completion and the first exception (in occurrence
    order) is re-raised afterwards.
    @raise Invalid_argument when called from inside a task or while
    another [run_all] on the same executor is in progress. *)
