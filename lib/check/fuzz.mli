(** Schedule fuzzing with shrinking.

    A {e schedule} is everything that perturbs one simulation run beyond
    the scenario itself: the Rng seed (turn shuffles, duration draws,
    fault fates), the delivery latency, the duration model, and the fault
    plan. The fuzzer draws schedules from a splittable stream, runs each
    on the discrete-event engine with a complete (unbounded) in-memory
    trace, and checks the temporal-property suite ({!Props}) over the
    trace.

    On a violation it {e shrinks}: greedily simplifies the schedule —
    dropping crash entries, silencing fault dimensions, lowering latency,
    flattening the duration model — as long as the same property keeps
    failing. Runs are deterministic in the schedule, so a reproducing
    candidate reproduces forever. The minimized run is written out as a
    replayable artifact: the trace as JSONL ([teamsim replay] accepts
    it) plus a JSON summary carrying the schedule and the repro command
    line. *)

open Adpm_core
open Adpm_trace
module Model = Adpm_sim.Model
module Fault = Adpm_fault.Fault
module Scenario = Adpm_teamsim.Scenario

type schedule = {
  fs_seed : int;
  fs_latency : int;
  fs_duration : Model.duration;
  fs_faults : Fault.plan;
}

val schedule_to_string : schedule -> string
(** e.g. ["seed=7 latency=2 duration=uniform:1 drop=0.1 dup=0 jitter=3
    crashes=alice@5+3"]. *)

val gen_schedule :
  rng:Adpm_util.Rng.t ->
  roster:string list ->
  ?faults:Fault.plan ->
  unit ->
  schedule
(** Draw one random schedule. [faults], when given, is used verbatim
    (the caller pins the fault plan); otherwise drop/dup/jitter rates
    and an occasional single crash on a roster designer are drawn too. *)

val run_schedule :
  mode:Dpm.mode ->
  ?max_ops:int ->
  Scenario.t ->
  schedule ->
  Event.stamped list
(** One engine run under the schedule, traced into an unbounded
    collector — the checker never sees a truncated stream. Deterministic
    in (scenario, mode, schedule). *)

type violation = {
  v_prop : string;  (** failing property *)
  v_reason : string;
  v_from_seq : int;
  v_to_seq : int;
  v_original : schedule;  (** as drawn by the fuzzer *)
  v_schedule : schedule;  (** after shrinking *)
  v_shrink_steps : int;  (** accepted simplification steps *)
  v_events : Event.stamped list;  (** trace of the minimized run *)
}

type report = {
  fz_schedules : int;  (** schedules run (stops at the first violation) *)
  fz_violation : violation option;
}

val shrink :
  ?suite:(schedule -> Prop.t list) ->
  ?max_ops:int ->
  mode:Dpm.mode ->
  scenario:Scenario.t ->
  prop:string ->
  schedule ->
  schedule * int
(** Greedy descent: repeatedly take the first candidate simplification
    under which property [prop] still fails, until none does. Returns
    the minimized schedule and the number of accepted steps. *)

val fuzz :
  ?suite:(schedule -> Prop.t list) ->
  ?faults:Fault.plan ->
  ?max_ops:int ->
  ?progress:(int -> unit) ->
  mode:Dpm.mode ->
  seed:int ->
  count:int ->
  Scenario.t ->
  report
(** Run up to [count] random schedules; on the first property failure,
    shrink it and stop. [progress] is called with the 1-based index
    after each clean schedule. [suite] (also {!shrink}'s) defaults to
    {!Props.suite} tuned to the schedule: horizon from latency + jitter,
    crash deadlines from the plan. *)

val write_artifact :
  prefix:string ->
  scenario:string ->
  mode:Dpm.mode ->
  violation ->
  string list
(** Write [<prefix>.trace.jsonl] (the minimized run, replayable) and
    [<prefix>.json] (schedule, property, witness window, repro command).
    Returns the paths written. *)
