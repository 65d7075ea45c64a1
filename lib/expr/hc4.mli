(** HC4 revision: the propagation workhorse.

    The paper's Design Constraint Manager "runs a constraint propagation
    algorithm to compute infeasible property values and the status of all
    constraints" (Section 2.2), delegating numeric work to constraint-based
    systems. HC4 (Benhamou et al., "Revising hull and box consistency",
    ICLP 1999) is the classical such algorithm for arithmetic constraints:
    a forward interval-evaluation sweep annotates every node of the
    expression tree, then a backward sweep projects the constraint's target
    interval onto each variable, shrinking its domain.

    One call to {!revise_kernel} is one "constraint evaluation" in the
    paper's cost accounting. *)

open Adpm_interval

val bound_slack : float -> float
(** [bound_slack t] is the magnitude-relative slack ([1e-11 * max 1 |t|])
    a projection's finite bound [t] is widened by before it is
    intersected, so that a one-ulp rounding gap never reads as Empty. *)

(** {1 Compiled flat kernel}

    The propagation inner loop, allocation-free: an
    expression is {!compile}d once into a postorder opcode program with
    preallocated scratch, then {!revise_kernel} revises it directly
    against a struct-of-arrays box store ([lo]/[hi] float arrays indexed
    by a dense property id), allocating nothing. Results are bit-identical
    to the boxed HC4 interpreter kept as the test reference
    ([test/hc4_ref.ml]) — every float formula mirrors the boxed [Interval]
    operations branch for branch, and the backward sweep recurses in the
    same order. *)

type fpair = { mutable rlo : float; mutable rhi : float }
(** Flat two-float scratch: an operation's result bounds, or the
    projection handed to the next intersection. *)

type kernel = {
  k_op : int array;
  k_a : int array;
  k_b : int array;
  k_cval : float array;
  k_vars : int array;
      (** dense ids of the expression's distinct variables, {!Expr.vars}
          order; slot [j] of the accumulators belongs to [k_vars.(j)] *)
  k_flo : float array;
  k_fhi : float array;
  k_blo : float array;
  k_bhi : float array;
  k_acc_lo : float array;
      (** after a successful {!revise_kernel}: narrowed lower bound per
          variable slot *)
  k_acc_hi : float array;
  k_tmp : fpair;
  k_tlo : float;
  k_thi : float;
}
(** Treat as read-only outside {!revise_kernel}; the scratch arrays make a
    kernel single-threaded — share it only within one domain. *)

val compile : var_id:(string -> int) -> Expr.t -> target:Interval.t -> kernel
(** [compile ~var_id e ~target] builds the kernel enforcing
    [e IN target]. [var_id] maps each variable of [e] to its dense store
    index. @raise Invalid_argument on a negative exponent or a NaN
    constant (which the boxed evaluators reject too). *)

val eval_kernel : kernel -> lo:float array -> hi:float array -> bool
(** The forward sweep alone: interval evaluation of the expression on the
    store, the flat counterpart of {!Expr.eval_interval}. Returns [false]
    where that returns [None] (a [sqrt] or [ln] argument entirely outside
    its domain); on [true] the result is in [k_flo]/[k_fhi] at the root
    (the last node). Allocates nothing; the store is not written. *)

val revise_kernel : kernel -> lo:float array -> hi:float array -> bool
(** One HC4 revision against the flat store. Returns [false] when the
    constraint is certainly unsatisfiable on the box (the boxed [Empty]);
    on [true] the narrowed per-variable intervals are left in
    [k_acc_lo]/[k_acc_hi] (slot order [k_vars]). The store itself is not
    written. *)
