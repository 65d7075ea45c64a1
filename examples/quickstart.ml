(* Quickstart: build a tiny constraint network by hand, propagate it, read
   the heuristic-support data, then run the same design twice through
   TeamSim — once conventionally, once with ADPM — and compare.

     dune exec examples/quickstart.exe *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim

let () =
  print_endline "=== 1. A network of constraints ===";
  (* Two properties of a receiver and a power budget: the paper's
     introductory example constraint  Pf + Ps <= Pm. *)
  let net = Network.create () in
  Network.add_prop net "front-end-power" (Domain.continuous 10. 200.);
  Network.add_prop net "deserializer-power" (Domain.continuous 5. 150.);
  Network.add_prop net "power-budget" (Domain.continuous 50. 300.);
  let budget =
    Network.add_constraint net ~name:"PowerBudget"
      Expr.(var "front-end-power" + var "deserializer-power")
      Constr.Le (Expr.var "power-budget")
  in
  let balance =
    Network.add_constraint net ~name:"PowerBalance"
      (Expr.var "front-end-power") Constr.Ge
      Expr.(scale 0.5 (Expr.var "deserializer-power"))
  in
  Network.assign net "power-budget" (Value.Num 120.);
  Printf.printf "constraints: %s / %s\n" (Constr.to_string budget)
    (Constr.to_string balance);

  print_endline "\n=== 2. Propagation computes feasible subspaces ===";
  let outcome = Propagate.run net in
  Propagate.apply net outcome;
  List.iter
    (fun (prop, d) ->
      Printf.printf "  feasible %-20s = %s\n" prop (Domain.to_string d))
    (Propagate.numeric_feasible net outcome);
  Printf.printf "  (%d constraint evaluations)\n" outcome.Propagate.evaluations;

  print_endline "\n=== 3. Heuristic-support data (Section 2.3) ===";
  List.iter
    (fun info -> Format.printf "  %a@." Heuristic_data.pp_prop_info info)
    (Heuristic_data.mine net);

  print_endline "\n=== 4. The same design process, simulated both ways ===";
  let scenario = Adpm_scenarios.Simple.scenario in
  List.iter
    (fun mode ->
      let cfg = Config.default ~mode ~seed:9 in
      let result = Engine.run cfg scenario in
      Printf.printf "  %s\n" (Metrics.summary_line result.Engine.o_summary))
    [ Dpm.Conventional; Dpm.Adpm ];
  print_endline "\nADPM completes in fewer designer operations but spends more";
  print_endline "constraint evaluations - the paper's headline trade-off."
