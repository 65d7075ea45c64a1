(** Shared-memory domain pool: the multi-seed runner.

    [map ~jobs ~f items] is [List.map f items] computed by up to [jobs]
    domains (the caller participates as one of them), self-scheduling
    items off a shared atomic counter. There is no serialization and no
    per-shard process — results are ordinary heap values and the domains
    share the same runtime.

    There is no fault isolation: a worker that calls [exit], drives the
    runtime into the ground, or hangs takes the whole process with it.
    Work is expected to be bounded cooperatively (the simulation engine's
    operation and revision budgets). An item function that {e raises} is
    handled: the exception is caught per item and reported as
    {!Worker_error}.

    [f] must be domain-safe: it may not touch shared mutable state. The
    simulation runner qualifies — each run builds its own network and Rng
    from the scenario closure.

    Spawning a domain permanently disables [Unix.fork] in this process
    (an OCaml 5 runtime rule), so code that forks must run before the
    first [map] with [jobs >= 2]. *)

exception Worker_error of { index : int; message : string }
(** Raised by {!map} when [f] raised for some item: [index] is the
    0-based position of the failing item in the input list and [message]
    reads ["worker raised: ..."]. When several items fail, the lowest
    index is reported, deterministically. *)

val map : jobs:int -> f:('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs ~f items] is [List.map f items]. With [jobs <= 1] or a
    single item, runs on the calling domain only (no spawn).

    @raise Worker_error when [f] raised for some item. *)
