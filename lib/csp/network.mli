(** The network of constraints C_n.

    Holds every design property (with its initial range E_i, current
    assignment, and feasible subspace v_F from the last propagation) and
    every design constraint, plus the property-to-constraint adjacency used
    by the heuristic-support computations (alpha_i, beta_i) of Section 2.3.

    The network is a mutable store updated by the design process manager;
    {!copy} produces an independent snapshot so many simulations can share
    one scenario definition. *)

open Adpm_interval
open Adpm_expr

type prop = private {
  p_name : string;
  p_id : int;  (** dense index (insertion order), keys the flat stores *)
  p_initial : Domain.t;
  mutable p_assigned : Value.t option;
  mutable p_feasible : Domain.t;
  p_meta : (string * string) list;
}

type pstate = {
  ps_lo : float array;  (** lower bounds, indexed by dense prop id *)
  ps_hi : float array;  (** upper bounds, indexed by dense prop id *)
  ps_mask : bool array;
      (** [true] where the property has a box (numeric, not symbolic) *)
  ps_empties : (int, unit) Hashtbl.t;
      (** constraints proven unsatisfiable during that fixpoint *)
}
(** Persistent propagation state: the contracted box store kept across
    design operations so the incremental engine can restart from the
    previous fixpoint instead of the initial ranges. Struct-of-arrays
    float layout so HC4 kernels revise it without allocating. *)

type t

val create : unit -> t
val copy : t -> t

(** {1 Revision tracking}

    The revision counter increments on every mutation (assignments,
    structural additions, status and feasible updates), so memoised
    heuristic layers can key their caches on it. The dirty set records
    which properties changed assignment since the last time a propagation
    engine consumed it. *)

val revision : t -> int

val structure_revision : t -> int
(** The structural revision: moves only on {!add_prop}, {!add_constraint}
    and {!declare_monotone} — the edits that can change a constraint's
    arguments or the direction {!helps_direction} reports. Layers that
    compile per-structure views (the designers' decision tables) key them
    on it. *)

val dirty_props : t -> string list
(** Properties assigned or unassigned since the last {!clear_dirty}
    (unspecified order). *)

val clear_dirty : t -> unit

val prop_state : t -> pstate option
(** The box store persisted by the last propagation run, if still valid.
    Structural changes ({!add_prop}, {!add_constraint},
    {!reset_assignments}) invalidate it. *)

val store_prop_state : t -> pstate -> unit
val invalidate_prop_state : t -> unit

(** {1 Properties} *)

val add_prop : t -> ?meta:(string * string) list -> string -> Domain.t -> unit
(** @raise Invalid_argument on duplicate names or an [Empty] initial
    domain. *)

val prop_names : t -> string list
(** Insertion order. *)

val find_prop : t -> string -> prop
(** @raise Invalid_argument for unknown names, naming the property. *)

val mem_prop : t -> string -> bool

val prop_count : t -> int
(** Number of properties; dense prop ids range over [0 .. prop_count-1]. *)

val prop_by_id : t -> int -> prop

val prop_id : t -> string -> int
(** @raise Invalid_argument for unknown names. *)

val initial_domain : t -> string -> Domain.t
val feasible : t -> string -> Domain.t
val set_feasible : t -> string -> Domain.t -> unit

val assign : t -> string -> Value.t -> unit
(** Bind a property. Numeric assignments must be numeric-domain properties
    and symbolic assignments symbolic ones; the value need not lie inside
    the current feasible subspace (designers may choose infeasible values —
    that is what creates violations) but must lie in the initial range E_i.
    @raise Invalid_argument on kind mismatch or out-of-range values. *)

val unassign : t -> string -> unit
val assigned : t -> string -> Value.t option
val assigned_num : t -> string -> float option
val is_bound : t -> string -> bool
val all_numeric_bound : t -> bool

val box : t -> string -> Interval.t option
(** Interval view for propagation: the assigned point when bound, otherwise
    the hull of the initial range. [None] for symbolic properties. *)

val env_box : t -> string -> Interval.t
(** As {!box} but usable directly as an HC4 environment.
    @raise Expr.Unbound_variable for symbolic properties.
    @raise Invalid_argument for unknown properties. *)

val env_point : t -> string -> float
(** Assigned numeric value.
    @raise Expr.Unbound_variable when unbound. *)

(** {1 Constraints} *)

val add_constraint : t -> name:string -> Expr.t -> Constr.rel -> Expr.t -> Constr.t
(** Registers the constraint and its adjacency.
    @raise Invalid_argument if an argument property is unknown or
    symbolic. *)

val constraints : t -> Constr.t list
(** Insertion order. Cached on {!structure_revision}: repeated calls
    return the same list physically until the structure changes. *)

val find_constraint : t -> int -> Constr.t
(** @raise Invalid_argument for unknown ids, naming the id. *)

val constraint_count : t -> int

val constraints_of_prop : t -> string -> Constr.t list
(** Constraints mentioning the property, insertion order.
    @raise Invalid_argument for unknown properties. *)

(** {1 Flat propagation views}

    Derived dense-id views used by the propagation hot path; all cached on
    {!structure_revision}. *)

val constraint_array : t -> Constr.t array
(** All constraints, indexed by their (dense) constraint id. *)

val adjacency_by_id : t -> int array array
(** For each dense prop id, the ids of the constraints mentioning it, in
    constraint insertion order. *)

val kernels : t -> Adpm_expr.Hc4.kernel array
(** The compiled HC4 kernel of every constraint ([diff] against the
    default [target]), indexed by constraint id. Kernels hold mutable
    scratch: they are shared with {!copy}s and must only be used from one
    domain at a time. *)

val kernel : t -> Constr.t -> Adpm_expr.Hc4.kernel
(** [kernel t c] is [(kernels t).(c.id)]. *)

val status : t -> int -> Constr.status
(** Last recorded status; [Consistent] before any evaluation. *)

val set_status : t -> int -> Constr.status -> unit
val reset_statuses : t -> unit
val violated : t -> Constr.t list

(** {1 Heuristic-support data (Section 2.3)} *)

val beta : t -> string -> int
(** Number of constraints mentioning the property. *)

val alpha : t -> string -> int
(** Number of currently-violated constraints mentioning the property
    (equation 3). *)

val declare_monotone : t -> int -> string -> Monotone.direction -> unit
(** DDDL-style declaration overriding the structural analysis: the recorded
    direction is that of the constraint's [diff] expression in the
    property. Moves {!structure_revision}. *)

val helps_direction : t -> Constr.t -> string -> [ `Up | `Down | `None ]
(** Which way to move the property's value to help satisfy the constraint
    (the paper's constraint-monotonicity notion): [`Up] means increasing
    helps. Uses the declared direction when present, otherwise the
    structural analysis over initial ranges. [`None] when not monotone or
    for [Eq] relations with unknown slope. *)

(** {1 Ground truth} *)

val check_constraint_point : t -> Constr.t -> bool
(** Evaluate at the current assignment (all arguments must be bound).
    @raise Expr.Unbound_variable otherwise. *)

val solved : t -> bool
(** All numeric properties bound and every constraint satisfied at the
    assignment — the simulation termination condition of Section 3.1.2. *)

val reset_assignments : t -> unit
