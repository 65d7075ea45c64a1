(** The Notification Manager (NM).

    After each state transition the NM "alerts designers of
    constraint-related events, including violations and reductions of a
    property's feasible subspace", selecting the subset of the new state
    relevant to each designer (Section 2.2). Relevance is determined by
    subscriptions: a designer is subscribed to the properties of the
    problems they own, and receives an event when it touches a subscribed
    property. *)

open Adpm_interval
open Adpm_csp

type event =
  | Violation_detected of int  (** constraint id *)
  | Violation_resolved of int
  | Feasible_reduced of string * Domain.t
      (** property and its new, smaller feasible subspace *)
  | Feasible_empty of string
      (** every value of the property was found infeasible *)

type notification = { n_recipient : string; n_events : event list }

type subscriptions = (string * string list) list
(** designer name -> subscribed properties *)

val routed_events :
  args_of:(int -> string list) ->
  old_statuses:(int -> Constr.status) ->
  new_statuses:(int * Constr.status) list ->
  old_feasible:(string -> Domain.t) ->
  new_feasible:(string * Domain.t) list ->
  (string list * event) list
(** The raw event list {!diff} routes, each tagged with the properties it
    touches. Status transitions: entering [Violated] emits
    [Violation_detected]; leaving [Violated] (for [Satisfied] {e or}
    [Consistent]) emits [Violation_resolved]; any other transition is
    silent. Feasibility: an emptied domain emits [Feasible_empty] (never
    also [Feasible_reduced]); a strictly smaller measure emits
    [Feasible_reduced]; widening emits nothing. *)

val diff :
  subscriptions:subscriptions ->
  args_of:(int -> string list) ->
  old_statuses:(int -> Constr.status) ->
  new_statuses:(int * Constr.status) list ->
  old_feasible:(string -> Domain.t) ->
  new_feasible:(string * Domain.t) list ->
  notification list
(** Compute the per-designer event lists arising from a propagation result.
    [args_of] maps a constraint id to its argument properties (used for
    routing violation events). Only designers with at least one event get a
    notification. *)

val event_label : event -> string
(** Compact machine-readable rendering (e.g. ["violation-detected:3"]);
    the payload format of [Notification_pushed] / [Notification_delivered]
    trace events. *)

val detected_violations : notification -> int list
(** Ids of the constraints a notification reports newly violated. *)

val trace_pushed :
  Adpm_trace.Tracer.t -> op_index:int -> notification list -> unit
(** Emit one [Notification_pushed] trace event per notification (no-op on
    an inactive tracer) — the NM's side of the observability contract.
    [op_index] is the history index of the operation that raised them,
    pairing each push with its later delivery / drop fate. *)
