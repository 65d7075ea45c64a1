(** Constraint propagation to fixpoint.

    Implements the Design Constraint Manager's propagation step
    (Section 2.2): starting from the current argument values — the assigned
    point for bound properties, the initial range E_i for unbound ones —
    HC4-revise every constraint until no domain changes, then classify every
    constraint's status. The result is the feasible subspace v_F(a_i) of
    every property plus the status of every constraint.

    Every HC4 revision and every final status classification counts as one
    "constraint evaluation", the cost unit of the paper's evaluation
    (each corresponds to a run of a constraint-based system or verification
    tool in the real environment).

    Two consistency levels are available: hull consistency (the default,
    one HC4 fixpoint) and a stronger 3B-style {e bound shaving} that tries
    to refute the outermost slices of each unbound variable's box with
    probe propagations — narrower feasible subspaces at a higher
    evaluation cost. *)

open Adpm_interval

(** @see <../trace/tracer.mli> the emit-path contract. *)

type outcome = {
  feasible : Domain.t array;
      (** Feasible subspace per property, indexed by dense prop id
          ({!Network.prop_id}); a symbolic property's entry is its initial
          domain. *)
  statuses : Constr.status array;  (** Per constraint, indexed by id. *)
  evaluations : int;  (** Constraint evaluations performed. *)
  revisions : int;
      (** HC4 revisions performed (the evaluation total minus the final
          status sweep) — the implementation work the incremental engine
          reduces, reported separately from the paper's evaluation cost
          unit. *)
  fixpoint : bool;  (** False when stopped by the revision budget. *)
}

val run :
  ?max_revisions:int ->
  ?consistency:[ `Hull | `Shave of int ] ->
  ?tracer:Adpm_trace.Tracer.t ->
  Network.t ->
  outcome
(** Pure with respect to the network: reads assignments and initial domains,
    writes nothing. [max_revisions] (default 10_000) bounds non-terminating
    slow convergence. A projection is applied and requeued only when it
    makes a box strictly narrower: HC4's built-in magnitude-relative
    projection slack already quantises narrowings and guarantees
    termination, and the strict gate leaves the revision operator monotone,
    which makes the fixpoint independent of revision order — the property
    the incremental path's bit-identical equivalence with from-scratch runs
    rests on. This from-scratch run is the reference the incremental path
    is checked against.
    [consistency] defaults to [`Hull]; [`Shave n] additionally shaves each
    unbound variable's bounds in [1/n]-width slices (n >= 2).

    When an active [tracer] is supplied, one [Propagation_started] /
    [Propagation_finished] event pair is emitted per call; the finish event
    carries per-wave revision counts of the primary HC4 fixpoint (shaving
    probes are charged to the evaluation total but not waved). *)

val run_incremental :
  ?max_revisions:int ->
  ?tracer:Adpm_trace.Tracer.t ->
  Network.t ->
  outcome
(** Incremental propagation (hull consistency only). Restarts from the box
    store persisted in the network by the previous call
    ({!Network.prop_state}), seeding the worklist with only the constraints
    of properties whose assignment changed since then
    ({!Network.dirty_props}).

    Soundness: propagation is a fair chaotic iteration of monotone
    contracting revision operators, so the restart converges to the same
    (bit-identical) fixpoint as a from-scratch run — provided the restart
    only {e narrows} the start and no constraint turns empty. Concretely,
    the incremental path is used only when every dirty property's fresh
    box lies inside its stored contracted box and the stored state carries
    no empty marks; if the seeded run then discovers an empty constraint
    (a conflicting assignment), the attempt is discarded and a full run
    replaces it, inheriting the attempt's revision count. On any widening
    (unassignment, assignment outside the stored box), on structural
    changes (which invalidate the stored state), and on the first call, it
    likewise falls back to a full from-scratch run. Either way the
    contracted store is persisted back into the network and the dirty set
    cleared; feasible subspaces and statuses are {e not} applied (see
    {!apply}).

    The [evaluations] total charges one unit per HC4 revision plus the
    full status sweep, so N_T counts the revisions this path actually
    performs; [revisions] is where the saving over {!run} shows. This is
    the DCM's propagation ({!Adpm_core.Dpm.run_propagation}). *)

val apply : Network.t -> outcome -> unit
(** Store the numeric properties' feasible subspaces and every status into
    the network. *)

val numeric_feasible : Network.t -> outcome -> (string * Domain.t) list
(** The numeric properties' feasible subspaces, named, in id order: a
    reporting view of [outcome.feasible]. *)

val run_incremental_and_apply :
  ?max_revisions:int ->
  ?tracer:Adpm_trace.Tracer.t ->
  Network.t ->
  outcome

val relaxed_feasible : ?max_revisions:int -> Network.t -> string -> Domain.t * int
(** [relaxed_feasible net p]: the feasible subspace of [p] computed with
    [p]'s own assignment ignored (all other assignments kept) — the
    "constraint margin" trade-off information the browser of Fig. 2 shows
    for bound properties and that conflict resolution exploits. Returns the
    domain and the number of constraint evaluations spent. *)

val relaxed_feasible_group :
  ?max_revisions:int ->
  Network.t ->
  target:string ->
  unpin:string list ->
  Domain.t * int
(** As {!relaxed_feasible} for [target], but additionally ignoring the
    assignments of the [unpin] properties — used when [target] is a design
    parameter whose dependent performance properties must be free to move
    with it. Hull consistency; the network is only read (its
    {!Network.revision} does not move). The evaluation count is that of a
    {!run} on the relaxed network: the HC4 revisions plus one status
    evaluation per constraint.
    @raise Invalid_argument for an unknown [target] or [unpin] name. *)
