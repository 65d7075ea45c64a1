(* Tests for the interactive session (a human playing one designer) and the
   full-scale DDDL scenario twins. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let session () =
  Interactive.create ~mode:Dpm.Adpm ~seed:1 Lna.scenario ~designer:"circuit"

let ok s = match s with Ok out -> out | Error e -> Alcotest.fail e
let err s = match s with Error e -> e | Ok _ -> Alcotest.fail "expected error"

let test_create_validation () =
  Alcotest.(check bool) "unknown designer rejected" true
    (try
       ignore
         (Interactive.create ~mode:Dpm.Adpm ~seed:1 Lna.scenario
            ~designer:"nobody");
       false
     with Invalid_argument _ -> true)

let test_help_and_status () =
  let s = session () in
  Alcotest.(check bool) "help lists set" true (contains (ok (Interactive.execute s "help")) "set PROP VALUE");
  let status = ok (Interactive.execute s "status") in
  Alcotest.(check bool) "status lists problems" true (contains status "analog");
  Alcotest.(check bool) "status lists props" true (contains status "Diff-pair-W");
  Alcotest.(check bool) "prompt renders" true
    (contains (Interactive.prompt s) "circuit")

let test_browse () =
  let s = session () in
  Alcotest.(check bool) "object browser" true
    (contains (ok (Interactive.execute s "browse LNA+Mixer")) "Consistent values");
  Alcotest.(check bool) "unknown object" true
    (contains (err (Interactive.execute s "browse Nothing")) "unknown object");
  Alcotest.(check bool) "props view" true
    (contains (ok (Interactive.execute s "props")) "# c's");
  Alcotest.(check bool) "conflicts view" true
    (contains (ok (Interactive.execute s "conflicts")) "PROPERTIES")

let test_set_and_feedback () =
  let s = session () in
  let out = ok (Interactive.execute s "set Diff-pair-W 2.5") in
  Alcotest.(check bool) "reports execution" true (contains out "executed");
  Alcotest.(check bool) "reports evaluations" true (contains out "evaluations");
  (* not an own output *)
  Alcotest.(check bool) "foreign property rejected" true
    (contains (err (Interactive.execute s "set Beam-length 13")) "not an output");
  Alcotest.(check bool) "non-number rejected" true
    (contains (err (Interactive.execute s "set Diff-pair-W abc")) "not a number")

let test_set_derived_rejected () =
  let s =
    Interactive.create ~mode:Dpm.Adpm ~seed:1 Simple.scenario ~designer:"alice"
  in
  Alcotest.(check bool) "derived property rejected" true
    (contains (err (Interactive.execute s "set pa 10")) "tool computes")

let test_suggest_auto_step () =
  let s = session () in
  Alcotest.(check bool) "suggest names an operation" true
    (contains (ok (Interactive.execute s "suggest")) "suggested");
  Alcotest.(check bool) "auto executes" true
    (contains (ok (Interactive.execute s "auto")) "executed");
  Alcotest.(check bool) "step drives teammates" true
    (let out = ok (Interactive.execute s "step") in
     contains out "device" || contains out "leader" || contains out "executed"
     || contains out "idles")

let test_unknown_command () =
  let s = session () in
  Alcotest.(check bool) "unknown command" true
    (contains (err (Interactive.execute s "frobnicate")) "unknown command");
  Alcotest.(check string) "empty line is a no-op" ""
    (ok (Interactive.execute s ""))

let test_playthrough_to_completion () =
  (* drive the whole design with auto + step: the human delegates *)
  let s = session () in
  let steps = ref 0 in
  while (not (Interactive.finished s)) && !steps < 200 do
    incr steps;
    ignore (Interactive.execute s "auto");
    ignore (Interactive.execute s "step")
  done;
  Alcotest.(check bool) "session reaches completion" true (Interactive.finished s)

let test_conventional_verify () =
  let s =
    Interactive.create ~mode:Dpm.Conventional ~seed:1 Lna.scenario
      ~designer:"circuit"
  in
  ignore (ok (Interactive.execute s "set Diff-pair-W 3.5"));
  ignore (ok (Interactive.execute s "set Freq-ind 0.2"));
  let out = ok (Interactive.execute s "verify") in
  Alcotest.(check bool) "verification executes" true (contains out "verification")

(* {2 Exception containment (PR 8 regressions)}

   Before PR 8 only the [set] branch of [Interactive.execute] caught
   [Invalid_argument]; a session command that made a designer model raise
   on the [auto]/[step]/[verify] paths killed the whole loop — fatal for
   a daemon hosting many sessions. These scenarios are deliberately
   poisoned so those exact raises happen. *)

(* alice owns two problems: "params" with the free output x, and "perf"
   whose output y is derived (model y = x + 1). Her forward synthesis on
   x recomputes every derived output she can address and ships the
   (y, …) assignment inside an operation targeting "params" — which
   [Dpm.apply] rejects with [Invalid_argument] ("y is not an output of
   problem params"). *)
let cross_problem_scenario =
  {
    (Adpm_dddl.Elaborate.load_string
       {|scenario "broken-synthesis" {
           property x : real [0, 10];
           property y : real [0, 20];
           constraint "y-band" : y <= 15;
           model y = x + 1;
           problem top owner leader {
             subproblem params owner alice { outputs: x; }
             subproblem perf owner alice {
               outputs: y;
               constraints: "y-band";
             }
           }
         }|})
    with
    Scenario.sc_description =
      "poisoned: synthesis ships a cross-problem assignment";
  }

(* alice's problem lists a constraint id that the session's network does
   not know (the constraint was built on a different network), so in
   conventional mode [Dpm.verification_eligible] raises
   [Invalid_argument] at {e choose} time — before any apply. DDDL
   validation rejects such a problem, so the network is built directly. *)
let alien_constraint_scenario =
  let open Adpm_csp in
  let build ~mode =
    let net = Network.create () in
    Network.add_prop net "x" (Adpm_interval.Domain.continuous 0. 10.);
    let alien_net = Network.create () in
    Network.add_prop alien_net "a" (Adpm_interval.Domain.continuous 0. 1.);
    let alien =
      List.nth
        (List.map
           (fun i ->
             Network.add_constraint alien_net
               ~name:(Printf.sprintf "alien-%d" i)
               (Adpm_expr.Expr.var "a") Constr.Le
               (Adpm_expr.Expr.const (float_of_int i)))
           [ 1; 2; 3; 4; 5 ])
        4
    in
    let top = Problem.make ~id:0 ~name:"top" ~owner:"leader" () in
    let dpm = Dpm.create ~mode net ~objects:[] ~top in
    Dpm.register_problem dpm ~parent:(Some 0)
      (Problem.make ~id:1 ~name:"work" ~owner:"alice" ~outputs:[ "x" ]
         ~constraints:[ alien.Constr.id ] ());
    dpm
  in
  Scenario.make ~name:"broken-verify"
    ~description:"poisoned: a problem lists an unknown constraint id" build

let no_exception_leak name result =
  match result with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s reports the engine error" name)
      true
      (contains msg "not an output" || contains msg "unknown constraint")
  | Ok out -> Alcotest.failf "%s unexpectedly succeeded: %s" name out
  | exception Invalid_argument msg ->
    Alcotest.failf "%s leaked Invalid_argument: %s" name msg

let test_auto_contains_exceptions () =
  let s =
    Interactive.create ~mode:Dpm.Adpm ~seed:1 cross_problem_scenario
      ~designer:"alice"
  in
  no_exception_leak "auto" (Interactive.execute s "auto");
  (* the session survives and keeps answering *)
  ignore (ok (Interactive.execute s "status"))

let test_step_contains_exceptions () =
  (* same poison, but the throwing designer is a simulated teammate *)
  let s =
    Interactive.create ~mode:Dpm.Adpm ~seed:1 cross_problem_scenario
      ~designer:"leader"
  in
  no_exception_leak "step" (Interactive.execute s "step");
  ignore (ok (Interactive.execute s "status"))

let test_verify_contains_exceptions () =
  let s =
    Interactive.create ~mode:Dpm.Conventional ~seed:1 alien_constraint_scenario
      ~designer:"alice"
  in
  no_exception_leak "verify" (Interactive.execute s "verify");
  ignore (ok (Interactive.execute s "status"))

(* {2 Full-scale DDDL twins}

   The shipped scenarios are elaborated from their embedded DDDL sources.
   The hand-built OCaml networks they replaced are gone; their runs survive
   as the pinned rows of [Test_scenarios], which each source must
   reproduce. *)

let test_sensor_dddl_twin () = Test_scenarios.check_pinned Sensor.scenario
let test_receiver_dddl_twin () = Test_scenarios.check_pinned Receiver.scenario
let test_lna_dddl_twin () = Test_scenarios.check_pinned Lna.scenario

let suite =
  [
    ("create validation", `Quick, test_create_validation);
    ("help and status", `Quick, test_help_and_status);
    ("browser commands", `Quick, test_browse);
    ("set with tool feedback", `Quick, test_set_and_feedback);
    ("derived properties are tool-owned", `Quick, test_set_derived_rejected);
    ("suggest, auto, step", `Quick, test_suggest_auto_step);
    ("unknown command", `Quick, test_unknown_command);
    ("delegated playthrough completes", `Quick, test_playthrough_to_completion);
    ("conventional verify", `Quick, test_conventional_verify);
    ("auto contains engine exceptions", `Quick, test_auto_contains_exceptions);
    ("step contains engine exceptions", `Quick, test_step_contains_exceptions);
    ( "verify contains engine exceptions",
      `Quick,
      test_verify_contains_exceptions );
    ("sensor DDDL twin is exact", `Slow, test_sensor_dddl_twin);
    ("lna DDDL twin is exact", `Quick, test_lna_dddl_twin);
    ("receiver DDDL twin is exact", `Slow, test_receiver_dddl_twin);
  ]
