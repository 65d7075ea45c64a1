(* Per-layer attribution of a simulation run from its event stream.

   [sink] is an [Adpm_trace.Sink.t] that stamps every event with the
   monotonic clock as it is written, so the engine's own trace events
   become span boundaries:

   - run      Run_started .. Run_finished (the root span)
   - designer Turn_started .. Op_submitted, or .. the next turn when the
              designer chose nothing (drain + choose, including the
              relaxed-feasible queries the designer runs while choosing)
   - dpm      Op_submitted .. Op_executed (the DPM transition)
   - dcm      Propagation_started .. Propagation_finished, wherever it
              nests (setup, inside a transition)
   - nm       inside a transition, from the last Constraint_status_changed
              to Op_executed (spin check + Notify.diff + pushes); on
              transitions where no status changed, that stretch cannot be
              told apart from the DPM's own sweep and stays in dpm
   - engine   the rest of the root span: rounds, scheduler pops,
              scheduling and handing out deliveries

   Each gap between two consecutive events is charged to exactly one of
   these, so a layer's self time is its span minus the child spans that
   nest inside it, and the self times add up to the root span. How much
   of the wall time of [Engine.run] the root span covers is the
   [coverage] check: what lies outside it (the scenario build before
   [Run_started], the summary after [Run_finished]) is unattributed. *)

open Adpm_trace

type recorder = {
  mutable times : float array;  (** nanoseconds, unboxed *)
  mutable events : Event.t array;
  mutable len : int;
}

let recorder () =
  let filler = Event.Op_completed { index = 0; at = 0 } in
  { times = Array.make 1024 0.; events = Array.make 1024 filler; len = 0 }

let reset r = r.len <- 0

let sink r =
  let write (s : Event.stamped) =
    let t = Int64.to_float (Clock.now_ns ()) in
    if r.len = Array.length r.times then begin
      let n = 2 * r.len in
      let times = Array.make n 0. and events = Array.make n s.Event.event in
      Array.blit r.times 0 times 0 r.len;
      Array.blit r.events 0 events 0 r.len;
      r.times <- times;
      r.events <- events
    end;
    r.times.(r.len) <- t;
    r.events.(r.len) <- s.Event.event;
    r.len <- r.len + 1
  in
  { Sink.write; close = (fun () -> ()) }

(* Totals over any number of runs. Times in nanoseconds. *)
type totals = {
  mutable runs : int;
  mutable wall_ns : float;  (** around each [Engine.run] call *)
  mutable designer_ns : float;
  mutable dcm_ns : float;
  mutable dpm_ns : float;
  mutable nm_ns : float;
  mutable engine_ns : float;
  mutable turns : int;
  mutable ops : int;
  mutable choose_evals : int;
  mutable propagations : int;
  mutable incremental : int;
  mutable revisions : int;
  mutable notifications : int;
  mutable engine_events : int;
}

let totals () =
  {
    runs = 0;
    wall_ns = 0.;
    designer_ns = 0.;
    dcm_ns = 0.;
    dpm_ns = 0.;
    nm_ns = 0.;
    engine_ns = 0.;
    turns = 0;
    ops = 0;
    choose_evals = 0;
    propagations = 0;
    incremental = 0;
    revisions = 0;
    notifications = 0;
    engine_events = 0;
  }

type phase = Engine | Turn | Apply | Nm

(* Fold one recorded run (its events plus the wall time around the
   [Engine.run] call) into [acc]. *)
let attribute acc r ~wall_ns =
  acc.runs <- acc.runs + 1;
  acc.wall_ns <- acc.wall_ns +. wall_ns;
  let phase = ref Engine and in_prop = ref false in
  (* the gap from event [prev] to event [next], in the state [prev] left *)
  let charge dt prev next =
    match (!in_prop, !phase) with
    | true, _ -> acc.dcm_ns <- acc.dcm_ns +. dt
    | false, Turn -> acc.designer_ns <- acc.designer_ns +. dt
    | false, Nm -> acc.nm_ns <- acc.nm_ns +. dt
    | false, Engine -> acc.engine_ns <- acc.engine_ns +. dt
    | false, Apply -> (
      match (prev, next) with
      | ( Event.Constraint_status_changed _,
          (Event.Notification_pushed _ | Event.Op_executed _) ) ->
        acc.nm_ns <- acc.nm_ns +. dt
      | _ -> acc.dpm_ns <- acc.dpm_ns +. dt)
  in
  for i = 0 to r.len - 1 do
    let ev = r.events.(i) in
    (match ev with
    | Event.Turn_started _ ->
      phase := Turn;
      acc.turns <- acc.turns + 1;
      acc.engine_events <- acc.engine_events + 1
    | Event.Op_submitted { choose_evaluations; _ } ->
      phase := Apply;
      acc.ops <- acc.ops + 1;
      acc.choose_evals <- acc.choose_evals + choose_evaluations
    | Event.Propagation_started _ -> in_prop := true
    | Event.Propagation_finished { engine; revisions; _ } ->
      in_prop := false;
      acc.propagations <- acc.propagations + 1;
      acc.revisions <- acc.revisions + revisions;
      if engine = "incremental" then acc.incremental <- acc.incremental + 1
    | Event.Notification_pushed _ ->
      if !phase = Apply then phase := Nm;
      acc.notifications <- acc.notifications + 1
    | Event.Op_executed _ -> phase := Engine
    | Event.Op_completed _ | Event.Notification_delivered _ ->
      phase := Engine;
      acc.engine_events <- acc.engine_events + 1
    | _ -> ());
    if i + 1 < r.len then
      charge (r.times.(i + 1) -. r.times.(i)) ev r.events.(i + 1)
  done

(* A self time per run, in milliseconds. *)
let per_run acc ns = ns /. 1e6 /. float_of_int (max 1 acc.runs)

(* The self times add up to the root span: its share of the wall time. *)
let coverage acc =
  (acc.designer_ns +. acc.dcm_ns +. acc.dpm_ns +. acc.nm_ns +. acc.engine_ns)
  /. acc.wall_ns
