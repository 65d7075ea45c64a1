(** The Design Process Manager: the next-state function delta.

    Implements the transition model of Fig. 1. A designer submits an
    operation theta_n; the DPM applies its operator to the target problem
    and updates the design state. What happens next depends on the mode
    (the paper's lambda switch, Section 3.1.2):

    - {b Conventional} (lambda = F): no constraint propagation runs.
      Designers learn of violations and infeasible values only by requesting
      verification operations, which execute only when their input
      properties are bound; constraints relating multiple subproblems are
      evaluated only when all involved subproblems are solved and none of
      their internal constraints is known-violated. A constraint's verified
      status goes stale as soon as one of its arguments is reassigned.

    - {b ADPM} (lambda = T): after every operation the Design Constraint
      Manager runs constraint propagation, computing infeasible property
      values and the status of all constraints; the results are mined into
      heuristic-support data and the Notification Manager pushes relevant
      events to each affected designer.

    The DPM also maintains the paper's cost accounting: executed operations
    N_O, constraint evaluations N_T, and design spins (operations motivated
    by a cross-subsystem violation). *)

open Adpm_csp

type mode = Conventional | Adpm

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string} (also accepts ["adpm"]); used when
    decoding recorded traces. *)

type t

type result = {
  r_index : int;  (** 1-based index of this operation *)
  r_evaluations : int;  (** constraint evaluations caused by the operation *)
  r_newly_violated : int list;
      (** constraints whose known status switched to Violated *)
  r_resolved : int list;
      (** constraints whose known status left Violated for Satisfied *)
  r_status_changes : (int * Constr.status * Constr.status) list;
      (** every known-status transition [(cid, before, after)] the
          operation caused, sorted by constraint id — including
          conventional-mode freshness decay (Violated -> Consistent when a
          verified constraint's argument is reassigned), which
          [r_newly_violated]/[r_resolved] do not cover. Deferred-delivery
          designers rebuild their believed statuses from this list. *)
  r_skipped : int list;
      (** requested verifications that were not eligible *)
  r_notifications : Notify.notification list;
  r_spin : bool;
}

(** {1 Construction} *)

val create :
  mode:mode ->
  ?max_revisions:int ->
  Network.t ->
  objects:Design_object.t list ->
  top:Problem.t ->
  t
(** Take ownership of the network and problem hierarchy root. Additional
    problems enter via decomposition operations or {!register_problem}. *)

val register_problem : t -> parent:int option -> Problem.t -> unit
(** Scenario-construction hook: attach a pre-built problem. Problem ids
    must be unique. *)

val fresh_problem_id : t -> int

(** {1 Accessors} *)

val mode : t -> mode

val problem_revision : t -> int
(** Moves on every problem registration ({!create}, {!register_problem},
    decomposition operations) and on nothing else: with
    {!Adpm_csp.Network.structure_revision} it keys the layers compiled from
    the problem tree — the cross-subsystem flags here and each designer's
    decision view. *)

val network : t -> Network.t
val top_problem : t -> Problem.t
val problems : t -> Problem.t list
(** Insertion order. *)

val find_problem : t -> int -> Problem.t
val problems_owned_by : t -> string -> Problem.t list
val objects : t -> Design_object.t list
val find_object : t -> string -> Design_object.t option
val designers : t -> string list
(** Distinct problem owners. *)

val op_count : t -> int
val eval_count : t -> int
val spin_count : t -> int

val revision_work : t -> int
(** Total HC4 revisions performed by the propagations this DPM ran
    (synthesis/decomposition updates and {!run_propagation}) — the
    implementation-cost counter incremental propagation reduces, separate
    from the paper's evaluation unit N_T. *)

(** {1 Propagation} *)

val run_propagation : ?max_revisions:int -> t -> Adpm_csp.Propagate.outcome
(** Propagate over the network and apply the results — the entry point
    the simulation engine uses for the pre-turn setup propagation. This is
    the DCM's one propagation path: {!Adpm_csp.Propagate.run_incremental},
    which restarts from the box store persisted in the network and seeds
    the worklist with the constraints of dirty properties only, falling
    back to a from-scratch {!Adpm_csp.Propagate.run} when it cannot. Its
    feasible subspaces and statuses are bit-identical to a from-scratch
    run's; the evaluations it charges to N_T are the revisions it actually
    performs. [max_revisions] defaults to the value given at {!create}. *)

(** {1 Tracing} *)

val set_tracer : t -> Adpm_trace.Tracer.t -> unit
(** Attach a tracer after construction (scenario builders need no trace
    awareness). The DPM advances the tracer's logical clock to the
    operation index at the start of every {!apply} and emits
    [Op_executed], [Constraint_status_changed], and (via the NM)
    [Notification_pushed] events; propagation runs inside the transition
    carry the tracer too. Defaults to [Tracer.null]: tracing disabled. *)

val tracer : t -> Adpm_trace.Tracer.t

val charge_evaluations : t -> int -> unit
(** Add externally-incurred constraint evaluations to N_T. The replay
    driver uses this to re-charge decision-time evaluation costs (relaxed
    feasibility queries recorded in [Op_submitted] events) so that replayed
    N_T totals match the live run exactly. Negative amounts are ignored. *)

(** {1 Mode-aware knowledge} *)

val known_status : t -> int -> Constr.status
(** The status a designer can rely on. In ADPM mode, the latest propagation
    result. In conventional mode, the last verified status — unless an
    argument was reassigned since, in which case [Consistent] (unknown). *)

val known_violations : t -> int list
(** Constraint ids with [known_status = Violated], ascending. Read from
    {!known_violated}. *)

val known_violated : t -> bool array
(** The known-violated set, indexed by constraint id: [true] exactly where
    {!known_status} is [Violated]. The DPM keeps it up to date from the
    status changes {!apply} and {!shift_requirement} compute; any other
    change to the network (a setup {!run_propagation}, a direct edit)
    triggers one rescan at the next read. The array is owned by the DPM:
    callers must not mutate it, and it is only valid until the next
    transition. *)

val known_statuses : t -> (int * Constr.status) list
(** [known_status] of every constraint, in network constraint order. The
    simulation engine snapshots this after the ADPM setup propagation to
    seed each designer's believed statuses (the kickoff meeting). *)

val heuristic_info : t -> string -> Heuristic_data.prop_info option
(** Mined heuristic-support data for a property; [None] in conventional
    mode (the information does not exist without propagation). *)

val relaxed_feasible : t -> string -> Adpm_interval.Domain.t
(** ADPM only: feasible subspace of a property ignoring its own assignment
    (constraint-margin information used during conflict resolution). The
    propagation this needs is charged to the evaluation counter.
    @raise Invalid_argument in conventional mode. *)

val relaxed_feasible_group :
  t -> target:string -> unpin:string list -> Adpm_interval.Domain.t
(** As {!relaxed_feasible} but also ignoring the assignments of [unpin]
    (the performance properties the target parameter drives).
    @raise Invalid_argument in conventional mode. *)

val eligible_verifications : t -> designer:string -> int list
(** Constraints the given designer could usefully verify now, respecting
    the mode's eligibility rules and skipping fresh statuses: the
    {!verification_eligible} constraints of its problems, ascending. *)

val verification_eligible : t -> int -> bool
(** Could the constraint usefully be verified now? Conventional mode only
    ([false] in ADPM mode): its arguments are bound, its verified status
    is not fresh, and a cross-subsystem constraint waits until every leaf
    problem it involves is solved.
    @raise Invalid_argument for an unknown constraint id. *)

val subsystem_of_prop : t -> string -> int option
(** Id of the top-level subproblem (child of the top problem) whose subtree
    contains the property; [None] for system-level properties. *)

val is_cross_subsystem : t -> Constr.t -> bool
(** Do the constraint's arguments span at least two subsystems? *)

val integration_ready : t -> bool
(** Conventional-mode gate: every leaf problem is Solved. *)

val solved : t -> bool
(** The top-level problem is Solved — i.e. every output has a value and no
    constraint is (known) violated, established through the mode's own
    information channels. *)

val ground_truth_solved : t -> bool
(** Oracle check (for tests and the simulation engine's safety net): all
    numeric properties bound and all constraints actually satisfied. *)

(** {1 The transition} *)

val apply : t -> Operator.t -> result
(** Execute one design operation and perform the mode's state update.
    @raise Invalid_argument for malformed operations (unknown problem,
    assignment to a property outside the problem, non-positive ids). *)

val shift_requirement :
  t -> prop:string -> value:float -> (int * Constr.status * Constr.status) list
(** Re-assign a requirement property mid-run — the adaptability workload's
    "the goalposts moved" transition. Unlike {!apply} it is not a design
    operation: no operation index is consumed and no history entry is
    written. The assignment is stamped newer than every executed operation,
    so conventional-mode verifications of the affected constraints go
    stale; in ADPM mode one propagation runs immediately (its evaluations
    are charged to the run). Returns the known-status changes, which are
    also traced as [Constraint_status_changed] events.
    @raise Invalid_argument for an unknown property. *)

(** {1 History} *)

type history_entry = {
  h_index : int;
  h_op : Operator.t;
  h_evaluations : int;
  h_new_violations : int;
  h_known_violations : int;  (** total known violations after the op *)
  h_spin : bool;
}

val history : t -> history_entry list
(** Chronological. *)
