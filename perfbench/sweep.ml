(* The Fig. 9 sweep workloads: sequential [Engine.run] over a fixed
   round-robin of scenarios with consecutive seeds, every run checked
   against its pinned (completed, operations, evaluations, spins). *)

open Adpm_teamsim
module Dpm = Adpm_core.Dpm
module Stats_acc = Adpm_util.Stats_acc

let label = function Dpm.Adpm -> "adpm" | Dpm.Conventional -> "conventional"

type pin = { completed : bool; operations : int; evaluations : int; spins : int }

let pin_of (s : Metrics.run_summary) =
  {
    completed = s.Metrics.s_completed;
    operations = s.Metrics.s_operations;
    evaluations = s.Metrics.s_evaluations;
    spins = s.Metrics.s_spins;
  }

let resolve name =
  match Adpm_scenarios.Registry.resolve_result name with
  | Ok sc -> sc
  | Error e -> failwith (Printf.sprintf "cannot resolve scenario %s: %s" name e)

let run_one ?tracer ~mode ~seed sc =
  (Engine.run ?tracer (Config.default ~mode ~seed) sc).Engine.o_summary

(* Pins: one tab-separated line per scenario x mode x pool seed. *)
let load_pins path =
  let tbl = Hashtbl.create 2048 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ sc; mode; seed; completed; operations; evaluations; spins ] ->
        Hashtbl.replace tbl
          (sc, mode, int_of_string seed)
          {
            completed = bool_of_string completed;
            operations = int_of_string operations;
            evaluations = int_of_string evaluations;
            spins = int_of_string spins;
          }
      | _ -> failwith ("bad pin line: " ^ line))
    (In_channel.with_open_text path In_channel.input_lines);
  tbl

(* Every simulation seed a bench run can use: the pool 1..seed_pool,
   and the held-out pool of as many seeds from held_out_first. *)
let pool_seeds (spec : Spec.t) =
  List.init spec.Spec.seed_pool (fun i -> 1 + i)
  @ List.init spec.Spec.seed_pool (fun i -> spec.Spec.held_out_first + i)

let make_pins (spec : Spec.t) =
  Out_channel.with_open_text spec.Spec.pins (fun oc ->
      List.iter
        (fun name ->
          let sc = resolve name in
          List.iter
            (fun mode ->
              List.iter
                (fun seed ->
                  let p = pin_of (run_one ~mode ~seed sc) in
                  Printf.fprintf oc "%s\t%s\t%d\t%b\t%d\t%d\t%d\n" name
                    (label mode) seed p.completed p.operations p.evaluations
                    p.spins)
                (pool_seeds spec))
            [ Dpm.Adpm; Dpm.Conventional ])
        spec.Spec.scenarios)

type ctx = {
  spec : Spec.t;
  scenarios : (string * Scenario.t) array;
  pins : (string * string * int, pin) Hashtbl.t;
}

let check_pin ctx report ~name ~mode ~seed summary =
  let want = Hashtbl.find_opt ctx.pins (name, label mode, seed) in
  Tally.check report
    (want = Some (pin_of summary))
    "%s %s seed %d: %s" name (label mode) seed
    (Metrics.summary_line summary)

(* Set-up: resolve every scenario, read the pins, one warm-up run per
   scenario. Repeated, each time followed by a calibration of
   [setup_units]; the median of the scaled times is [setup_s]. *)
let setup spec ~mode =
  let cal = Calib.create ~reference_rate:spec.Spec.reference_rate in
  let once () =
    let t0 = Clock.now () in
    let scenarios =
      Array.of_list (List.map (fun n -> (n, resolve n)) spec.Spec.scenarios)
    in
    let pins = load_pins spec.Spec.pins in
    Array.iter (fun (_, sc) -> ignore (run_one ~mode ~seed:1 sc)) scenarios;
    let dt = Clock.since t0 in
    Calib.reset cal;
    Calib.run_units cal spec.Spec.setup_units;
    ({ spec; scenarios; pins }, dt *. Calib.scale cal)
  in
  let times = Stats_acc.create () and ctx = ref None in
  for _ = 1 to max 1 spec.Spec.sweep_setup_repeats do
    let c, dt = once () in
    Stats_acc.add times dt;
    ctx := Some c
  done;
  (Option.get !ctx, Stats_acc.median times)

(* Simulation seed of round [r] for a bench run started from [seed]:
   consecutive seeds of the pinned pool 1..pool from a seed-chosen
   offset. The held-out seed alone walks the held-out pool instead, so
   its simulations are never among those of any other seed. *)
let sim_seed ctx ~seed r =
  let spec = ctx.spec in
  let pool = spec.Spec.seed_pool in
  let first =
    if seed = spec.Spec.held_out_seed then spec.Spec.held_out_first else 1
  in
  first + ((((seed * 97) + r) mod pool) + pool) mod pool

(* The timed loop: whole rounds until [seconds] have elapsed, with a
   fixed number of calibration units after every round (about a tenth of
   the time on the reference host). Every run time and every one-second
   window's run rate is scaled by the calibration speed of its window
   (see [Calib]); throughput is the median over the windows, the latency
   percentiles are over every run. *)
let timed ctx report ~mode ~seed ~seconds =
  let spec = ctx.spec in
  let units =
    match mode with
    | Dpm.Adpm -> spec.Spec.units_per_round_adpm
    | Dpm.Conventional -> spec.Spec.units_per_round_conventional
  in
  let times = Stats_acc.create () and raw = Stats_acc.create () in
  let rates = Stats_acc.create () and cal_rates = Stats_acc.create () in
  let cal = Calib.create ~reference_rate:spec.Spec.reference_rate in
  let window = ref [] and work = ref 0. in
  let close_window () =
    let scale = Calib.scale cal in
    List.iter
      (fun dt ->
        Stats_acc.add times (dt *. scale);
        Stats_acc.add raw dt)
      !window;
    Stats_acc.add rates (float_of_int (List.length !window) /. !work /. scale);
    Stats_acc.add cal_rates (Calib.rate cal);
    window := [];
    work := 0.;
    Calib.reset cal
  in
  let t_start = Clock.now () and r = ref 0 in
  while Clock.since t_start < seconds do
    let s = sim_seed ctx ~seed !r in
    Array.iter
      (fun (name, sc) ->
        let t0 = Clock.now () in
        let summary = run_one ~mode ~seed:s sc in
        let dt = Clock.since t0 in
        window := dt :: !window;
        work := !work +. dt;
        check_pin ctx report ~name ~mode ~seed:s summary)
      ctx.scenarios;
    incr r;
    Calib.run_units cal units;
    if !work >= 1. then close_window ()
  done;
  if !work > 0. then close_window ();
  let m = Tally.metric report in
  m "throughput_per_s" "1/s" (Stats_acc.median rates);
  m "latency_ms_p50" "ms" (1000. *. Stats_acc.quantile times 0.5);
  m "latency_ms_p99" "ms" (1000. *. Stats_acc.quantile times 0.99);
  Printf.eprintf
    "perfbench: %d runs (%d rounds) in %.2fs; unscaled p50 %.3f ms, p99 %.3f \
     ms; calibration %.0f units/s (median window)\n%!"
    (Stats_acc.count times) !r (Clock.since t_start)
    (1000. *. Stats_acc.quantile raw 0.5)
    (1000. *. Stats_acc.quantile raw 0.99)
    (Stats_acc.median cal_rates)

(* The traced run: [rounds] rounds, each run executed untraced (wall,
   minor words) and then traced through the timestamping sink (spans).
   Reports every simulation-layer metric. *)
let traced ctx report ~mode ~seed ~rounds =
  let acc = Spans.totals () in
  let rc = Spans.recorder () in
  let untraced_ns = ref 0. and words = ref 0. and runs = ref 0 in
  for r = 0 to rounds - 1 do
    let s = sim_seed ctx ~seed r in
    Array.iter
      (fun (name, sc) ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let s1 = run_one ~mode ~seed:s sc in
        let t1 = Clock.now_ns () in
        words := !words +. (Gc.minor_words () -. w0);
        untraced_ns := !untraced_ns +. Int64.to_float (Int64.sub t1 t0);
        incr runs;
        check_pin ctx report ~name ~mode ~seed:s s1;
        Spans.reset rc;
        let tracer = Adpm_trace.Tracer.create (Spans.sink rc) in
        let t0 = Clock.now_ns () in
        let s2 = run_one ~tracer ~mode ~seed:s sc in
        let t1 = Clock.now_ns () in
        Adpm_trace.Tracer.close tracer;
        Spans.attribute acc rc ~wall_ns:(Int64.to_float (Int64.sub t1 t0));
        check_pin ctx report ~name ~mode ~seed:s s2)
      ctx.scenarios
  done;
  let per_run ns = Spans.per_run acc ns in
  let n = float_of_int (max 1 acc.Spans.runs) in
  let m = Tally.metric report in
  m "designer.choose_ms" "ms" (per_run acc.Spans.designer_ns);
  m "designer.turn_yield" "ratio"
    (float_of_int acc.Spans.ops /. float_of_int (max 1 acc.Spans.turns));
  m "designer.choose_evals" "count" (float_of_int acc.Spans.choose_evals /. n);
  m "dcm.propagate_ms" "ms" (per_run acc.Spans.dcm_ns);
  m "dcm.propagations" "count" (float_of_int acc.Spans.propagations /. n);
  m "dcm.revisions" "count" (float_of_int acc.Spans.revisions /. n);
  m "dcm.incremental_share" "ratio"
    (if acc.Spans.propagations = 0 then 0.
     else
       float_of_int acc.Spans.incremental
       /. float_of_int acc.Spans.propagations);
  m "dpm.apply_ms" "ms" (per_run acc.Spans.dpm_ns);
  m "nm.notify_ms" "ms" (per_run acc.Spans.nm_ns);
  m "nm.notifications" "count" (float_of_int acc.Spans.notifications /. n);
  m "engine.sched_ms" "ms" (per_run acc.Spans.engine_ns);
  m "engine.events" "count" (float_of_int acc.Spans.engine_events /. n);
  m "run.ms" "ms" (!untraced_ns /. 1e6 /. float_of_int (max 1 !runs));
  m "run.minor_words" "words" (!words /. float_of_int (max 1 !runs));
  m "trace.overhead" "ratio" (acc.Spans.wall_ns /. !untraced_ns);
  let coverage = Spans.coverage acc in
  m "trace.coverage" "ratio" coverage;
  (* The self times add up to the root span by construction, so this
     bounds only the time outside it (build before, summary after). *)
  Tally.check report
    (Float.abs (coverage -. 1.) <= 0.10)
    "per-layer self times cover %.1f%% of traced wall time (want 90-110%%)"
    (100. *. coverage);
  (* Misattribution shows in the split: no propagation at all in
     conventional mode; in ADPM mode designer, DPM and DCM each carry a
     visible share. *)
  let share ns = ns /. acc.Spans.wall_ns in
  match mode with
  | Dpm.Conventional ->
    Tally.check report
      (acc.Spans.propagations = 0 && acc.Spans.dcm_ns = 0.)
      "conventional mode: %d propagations, %.3f ms per run in dcm"
      acc.Spans.propagations (per_run acc.Spans.dcm_ns)
  | Dpm.Adpm ->
    List.iter
      (fun (layer, ns) ->
        Tally.check report
          (share ns >= 0.02)
          "ADPM mode: %s carries %.1f%% of traced wall time (want >= 2%%)" layer
          (100. *. share ns))
      [
        ("designer", acc.Spans.designer_ns);
        ("dpm", acc.Spans.dpm_ns);
        ("dcm", acc.Spans.dcm_ns);
      ]
