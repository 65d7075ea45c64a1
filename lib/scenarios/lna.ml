open Adpm_teamsim

let diff_pair_w = "Diff-pair-W"
let freq_ind = "Freq-ind"
let beam_length = "Beam-length"
let min_zin = "Min-LNA-Zin"

(* The scenario's one definition: [scenario] is elaborated from this text,
   and [walkthrough] from an edit of its declaration. *)
let source =
  {|
// The Section 2.4 walkthrough case in DDDL: LNA + mixer circuitry and a
// MEMS filtering device. Constants calibrated so the Fig. 2 feasible
// windows fall out of propagation.
scenario lna {
  property "Diff-pair-W" : real [2.5, 10] levels "Transistor,Geometry";
  property "Freq-ind"    : real [0.05, 0.5] levels "Transistor,Geometry";
  property "Beam-length" : real [5, 50];
  property "Min-gain"    : real [10, 100];
  property "Max-power"   : real [50, 400];
  property "Min-LNA-Zin" : real [10, 100];

  constraint "LNAPower-C7" :
    40 + 38.5522 * "Diff-pair-W" + 100 * "Freq-ind" <= "Max-power";
  constraint "LNAGain-C10" :
    30 * "Diff-pair-W" * sqrt("Freq-ind") >= "Min-gain";
  constraint "LNA-Zin-C9" :
    60 * "Diff-pair-W" * "Freq-ind" >= "Min-LNA-Zin";
  constraint "FilterMatch-C4" :
    "Freq-ind" >= 0.0134042 * "Beam-length";

  requirement "Min-gain" = 40;
  requirement "Max-power" = 200;
  requirement "Min-LNA-Zin" = 40;

  object "LNA+Mixer" { properties: "Diff-pair-W", "Freq-ind"; }
  object "MEMS-Filter" { properties: "Beam-length"; }

  problem "receiver-front-end" owner leader {
    inputs: "Min-gain", "Max-power", "Min-LNA-Zin";
    constraints: "FilterMatch-C4";
    subproblem analog owner circuit {
      inputs: "Min-gain", "Max-power", "Min-LNA-Zin";
      outputs: "Diff-pair-W", "Freq-ind";
      constraints: "LNAPower-C7", "LNAGain-C10", "LNA-Zin-C9";
      object: "LNA+Mixer";
    }
    subproblem "mems-filter" owner device {
      outputs: "Beam-length";
      object: "MEMS-Filter";
    }
  }
}
|}

let scenario =
  {
    (Adpm_dddl.Elaborate.load_string source) with
    Scenario.sc_description = "Section 2.4 LNA + MEMS filter walkthrough case";
  }

(* The walkthrough leader adjusts requirements through operations, so the
   top problem's inputs become its outputs; [Min-LNA-Zin] starts at the
   25 Ohm the leader later tightens to 40. *)
let walkthrough =
  let open Adpm_dddl in
  let decl =
    Elaborate.override_requirements [ (min_zin, 25.) ] (Parser.parse source)
  in
  let top = decl.Ast.sd_problem in
  {
    (Elaborate.scenario
       {
         decl with
         Ast.sd_problem =
           {
             top with
             Ast.prd_inputs = [];
             prd_outputs = top.Ast.prd_inputs @ top.Ast.prd_outputs;
           };
       })
    with
    Scenario.sc_name = "lna-walkthrough";
    sc_description = "Section 2.4 walkthrough: requirements the leader adjusts";
  }
