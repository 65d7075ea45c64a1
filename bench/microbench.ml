(* Bechamel micro-benchmarks of the engines underneath the experiments:
   interval arithmetic, HC4 revision (the compiled kernel the propagation
   loop runs), full propagation fixpoints on the paper's two design cases,
   a complete ADPM simulation, and the CSP backtracking search with the two
   informed orderings; plus the minor-heap words a fixpoint allocates per
   revision, and the words and time a designer's turn costs. *)

(* CLOCK_MONOTONIC in unboxed ns; bound before [Toolkit] shadows the name *)
module Clock = Monotonic_clock
open Bechamel
open Toolkit
open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let interval_mul_test =
  let a = Interval.make 1.5 3.5 and b = Interval.make (-2.) 7. in
  Test.make ~name:"interval mul" (Staged.stage (fun () -> Interval.mul a b))

let kernel_test_name = "HC4 revise_kernel (9-node expr)"

let hc4_kernel_test =
  let e =
    Expr.(
      Sub
        ( Add (Mul (Var "x", Var "y"), Sqrt (Var "z")),
          Mul (Const 2., Var "w") ))
  in
  let var_id = function
    | "x" -> 0
    | "y" -> 1
    | "z" -> 2
    | "w" -> 3
    | x -> invalid_arg x
  in
  let k = Hc4.compile ~var_id e ~target:(Interval.make neg_infinity 0.) in
  let lo = [| 1.; 0.5; 0.; 1. |] and hi = [| 4.; 2.; 9.; 3. |] in
  Test.make ~name:kernel_test_name
    (Staged.stage (fun () -> Hc4.revise_kernel k ~lo ~hi))

let propagate_test name scenario =
  let net = Dpm.network (scenario.Scenario.sc_build ~mode:Dpm.Adpm) in
  Test.make ~name (Staged.stage (fun () -> Propagate.run net))

(* Steady-state repropagation: one assignment perturbs the network, then
   [repropagate] re-establishes the fixpoint. The DCM's incremental path
   restarts from the persisted box store seeded with the dirty property's
   constraints; the from-scratch [Propagate.run] oracle recomputes from the
   initial domains. *)
let repropagate_test name repropagate =
  let dpm = Receiver.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  ignore (Dpm.run_propagation dpm);
  let net = Dpm.network dpm in
  Test.make ~name
    (Staged.stage (fun () ->
         Network.assign net "diff-pair-w" (Value.Num 5.);
         repropagate dpm net))

let simulation_test name scenario mode =
  let cfg = Config.default ~mode ~seed:7 in
  Test.make ~name (Staged.stage (fun () -> Engine.run cfg scenario))

let search_test heuristic =
  let rng = Rng.create 42 in
  let csp =
    Search.random_csp rng ~nvars:12 ~domain_size:5 ~density:0.4 ~tightness:0.3
  in
  Test.make
    ~name:(Printf.sprintf "CSP search (%s)" (Search.heuristic_name heuristic))
    (Staged.stage (fun () -> Search.solve ~heuristic csp))

let tests =
  Test.make_grouped ~name:"adpm" ~fmt:"%s %s"
    [
      interval_mul_test;
      hc4_kernel_test;
      propagate_test "propagate fixpoint (sensor, 21 constraints)"
        Sensor.scenario;
      propagate_test "propagate fixpoint (receiver, 30 constraints)"
        Receiver.scenario;
      repropagate_test "repropagate after 1 assign (receiver, full)"
        (fun _ net -> Propagate.apply net (Propagate.run net));
      repropagate_test "repropagate after 1 assign (receiver, incremental)"
        (fun dpm _ -> ignore (Dpm.run_propagation dpm));
      simulation_test "full simulation (sensor, ADPM)" Sensor.scenario Dpm.Adpm;
      simulation_test "full simulation (sensor, conventional)" Sensor.scenario
        Dpm.Conventional;
      search_test Search.Lexicographic;
      search_test Search.Min_domain;
    ]

(* Minor-heap words per HC4 revision of from-scratch [Propagate.run]
   fixpoints on the paper's two design cases, store build and outcome lists
   included: a deterministic count. *)
let fixpoint_words_per_rev () =
  let nets =
    List.map
      (fun s -> Dpm.network (s.Scenario.sc_build ~mode:Dpm.Adpm))
      [ Sensor.scenario; Receiver.scenario ]
  in
  List.iter (fun net -> ignore (Propagate.run net : Propagate.outcome)) nets;
  let w0 = Gc.minor_words () in
  let revisions =
    List.fold_left
      (fun acc net -> acc + (Propagate.run net).Propagate.revisions)
      0 nets
  in
  (Gc.minor_words () -. w0) /. float_of_int revisions

(* {2 Designer decision cost}

   Lockstep team runs of receiver in both modes over fixed seeds, with the
   engine's turn discipline (a shuffled round; everyone observes every
   outcome). [choose] wraps every [Designer.choose_operation] call, so
   what it measures is the designer's decision alone: f_p, f_a, f_v and
   the relaxed-feasible queries they make, not the DPM transition. *)
let designer_turns choose =
  let sc = Receiver.scenario in
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let cfg = Config.default ~mode ~seed in
          let dpm = sc.Scenario.sc_build ~mode in
          let rng = Rng.create seed in
          let designers =
            List.map
              (fun name ->
                Designer.create cfg ~rng:(Rng.split rng)
                  ~models:sc.Scenario.sc_models name)
              (Dpm.designers dpm)
          in
          if mode = Dpm.Adpm then
            ignore (Dpm.run_propagation dpm : Propagate.outcome);
          let finished = ref false in
          while (not !finished) && Dpm.op_count dpm < cfg.Config.max_ops do
            let acted = ref false in
            List.iter
              (fun d ->
                if not !finished then
                  match choose d dpm with
                  | None -> ()
                  | Some op ->
                    acted := true;
                    let result = Dpm.apply dpm op in
                    List.iter
                      (fun peer ->
                        Designer.observe peer dpm ~own:(peer == d) op result)
                      designers;
                    if Dpm.solved dpm then finished := true)
              (Rng.shuffle rng designers);
            if not !acted then finished := true
          done)
        [ 1; 2; 3 ])
    [ Dpm.Adpm; Dpm.Conventional ]

(* Minor-heap words per [Designer.choose_operation] call over
   [designer_turns]: a deterministic count. *)
let designer_words_per_turn () =
  let words = ref 0. and turns = ref 0 in
  designer_turns (fun d dpm ->
      let w0 = Gc.minor_words () in
      let op = Designer.choose_operation d dpm in
      words := !words +. (Gc.minor_words () -. w0);
      incr turns;
      op);
  !words /. float_of_int !turns

(* Wall time per [Designer.choose_operation] call over [designer_turns],
   repeated [repeats] times: (median, min, max) in microseconds. *)
let designer_us_per_turn ~repeats =
  let per_repeat () =
    let ns = ref 0. and turns = ref 0 in
    designer_turns (fun d dpm ->
        let t0 = Clock.now () in
        let op = Designer.choose_operation d dpm in
        ns := !ns +. Int64.to_float (Int64.sub (Clock.now ()) t0);
        incr turns;
        op);
    !ns /. 1e3 /. float_of_int !turns
  in
  let samples = List.sort compare (List.init repeats (fun _ -> per_repeat ())) in
  ( List.nth samples (repeats / 2),
    List.hd samples,
    List.nth samples (repeats - 1) )

(* Prints the table; returns the kernel's time per revision in ns. *)
let run ~fast () =
  let quota = Time.second (if fast then 0.25 else 1.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Printf.printf "%-55s %15s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
          else Printf.sprintf "%.1f ns" est
        in
        let r2 =
          match Analyze.OLS.r_square result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        Printf.printf "%-55s %15s %10s\n" name pretty r2
      | Some [] | None -> Printf.printf "%-55s %15s\n" name "(no estimate)")
    entries;
  match
    List.find_map
      (fun (name, result) ->
        if String.ends_with ~suffix:kernel_test_name name then
          Option.bind (Analyze.OLS.estimates result) (function
            | est :: _ -> Some est
            | [] -> None)
        else None)
      entries
  with
  | Some ns -> ns
  | None -> nan
