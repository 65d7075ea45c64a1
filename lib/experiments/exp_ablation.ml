open Adpm_util
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type teamsim_row = {
  label : string;
  mean_ops : float;
  sd_ops : float;
  mean_evals : float;
  completion : int;
  runs : int;
}

type search_row = {
  s_label : string;
  heuristic : Search.heuristic;
  inference : Search.inference;
  mean_nodes : float;
  mean_checks : float;
  solved : int;
  instances : int;
}

type consistency_row = {
  c_label : string;
  c_mean_window : float;
  c_evaluations : int;
}

type result = {
  teamsim : teamsim_row list;
  search : search_row list;
  consistency : consistency_row list;
}

let teamsim_row ~jobs label cfg seeds =
  let summaries =
    Engine.run_many ~jobs cfg Receiver.scenario
      ~seeds:(List.init seeds (fun i -> i + 1))
  in
  let ops = Stats_acc.create () and evals = Stats_acc.create () in
  let completed = ref 0 in
  List.iter
    (fun s ->
      if s.Metrics.s_completed then incr completed;
      Stats_acc.add_int ops s.Metrics.s_operations;
      Stats_acc.add_int evals s.Metrics.s_evaluations)
    summaries;
  {
    label;
    mean_ops = Stats_acc.mean ops;
    sd_ops = Stats_acc.stddev ops;
    mean_evals = Stats_acc.mean evals;
    completion = !completed;
    runs = seeds;
  }

let teamsim_ablation ~jobs seeds =
  let base = Config.default ~mode:Dpm.Adpm ~seed:0 in
  [
    teamsim_row ~jobs "ADPM, all heuristics" base seeds;
    teamsim_row ~jobs "no feasible-subspace ordering (2.3.1)"
      { base with Config.forward_ordering = Config.Random_target }
      seeds;
    teamsim_row ~jobs "most-constrained-first ordering (2.3.2)"
      { base with Config.forward_ordering = Config.Most_constrained }
      seeds;
    teamsim_row ~jobs "no alpha conflict repair (2.3.3)"
      { base with Config.use_alpha_repair = false }
      seeds;
    teamsim_row ~jobs "no monotone direction hints"
      { base with Config.use_monotone_hints = false }
      seeds;
    teamsim_row ~jobs "no constraint-margin repair windows"
      { base with Config.use_relaxed_feasible = false }
      seeds;
    teamsim_row ~jobs "no design-history tabu"
      { base with Config.use_history_tabu = false }
      seeds;
    teamsim_row ~jobs "conventional (lambda = F)"
      (Config.default ~mode:Dpm.Conventional ~seed:0)
      seeds;
  ]

let search_ablation instances =
  let row heuristic inference =
    let nodes = Stats_acc.create () and checks = Stats_acc.create () in
    let solved = ref 0 in
    for i = 1 to instances do
      let rng = Rng.create (1000 + i) in
      (* near the solvable-but-hard region for model-B instances *)
      let csp =
        Search.random_csp rng ~nvars:14 ~domain_size:6 ~density:0.4
          ~tightness:0.35
      in
      let stats = Search.solve ~rng:(Rng.create i) ~inference ~heuristic csp in
      if stats.Search.solution <> None then incr solved;
      Stats_acc.add_int nodes stats.Search.nodes;
      Stats_acc.add_int checks stats.Search.checks
    done;
    {
      s_label =
        Printf.sprintf "%s / %s"
          (Search.heuristic_name heuristic)
          (Search.inference_name inference);
      heuristic;
      inference;
      mean_nodes = Stats_acc.mean nodes;
      mean_checks = Stats_acc.mean checks;
      solved = !solved;
      instances;
    }
  in
  List.map (fun h -> row h Search.Forward_check) Search.all_heuristics
  @ [
      row Search.Min_domain Search.No_inference;
      row Search.Min_domain Search.Mac;
    ]

(* DCM consistency comparison: window precision vs evaluation cost on a
   mid-design receiver state (tight gain spec, two analog parameters
   committed) where hull consistency is measurably weaker. *)
let consistency_ablation () =
  let measure label consistency =
    let dpm =
      Adpm_dddl.(
        Elaborate.scenario
          (Elaborate.override_requirements
             [ ("req-gain", 2000.) ]
             (Parser.parse Receiver.source)))
        .Scenario.sc_build ~mode:Dpm.Adpm
    in
    let net = Dpm.network dpm in
    Network.assign net "bias-current" (Value.Num 9.);
    Network.assign net "mixer-gm" (Value.Num 18.);
    let outcome = Propagate.run ~consistency net in
    let windows =
      List.filter_map
        (fun (name, d) ->
          if Network.is_bound net name then None
          else
            Some
              (Adpm_interval.Domain.relative_measure
                 ~initial:(Network.initial_domain net name)
                 d))
        (Propagate.numeric_feasible net outcome)
    in
    let mean =
      List.fold_left ( +. ) 0. windows /. float_of_int (List.length windows)
    in
    { c_label = label; c_mean_window = mean;
      c_evaluations = outcome.Propagate.evaluations }
  in
  [
    measure "hull consistency (HC4 fixpoint)" `Hull;
    measure "bound shaving, 4 slices" (`Shave 4);
    measure "bound shaving, 8 slices" (`Shave 8);
  ]

let run ?(seeds = 15) ?(instances = 30) ?(jobs = 1) () =
  {
    teamsim = teamsim_ablation ~jobs seeds;
    search = search_ablation instances;
    consistency = consistency_ablation ();
  }

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Ablation (a): ADPM heuristics on the receiver case ===\n\n";
  let table =
    Table.create [ "Configuration"; "Ops (mean)"; "Ops (sd)"; "Evals"; "Done" ]
  in
  Table.set_align table
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.label;
          Printf.sprintf "%.1f" row.mean_ops;
          Printf.sprintf "%.1f" row.sd_ops;
          Printf.sprintf "%.0f" row.mean_evals;
          Printf.sprintf "%d/%d" row.completion row.runs;
        ])
    r.teamsim;
  add "%s\n" (Table.render table);
  add "=== Ablation (b): CSP variable-ordering heuristics (random binary CSPs) ===\n\n";
  let table =
    Table.create
      [ "Heuristic / inference"; "Nodes (mean)"; "Checks (mean)"; "Solved" ]
  in
  Table.set_align table [ Table.Left; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.s_label;
          Printf.sprintf "%.0f" row.mean_nodes;
          Printf.sprintf "%.0f" row.mean_checks;
          Printf.sprintf "%d/%d" row.solved row.instances;
        ])
    r.search;
  add "%s\n" (Table.render table);
  add "expected shape: informed orderings (min-domain, dom/deg) expand far\n";
  add "fewer nodes than lexicographic/random — the premise behind ADPM's\n";
  add "smallest-feasible-subspace and most-constrained-first guidance.\n\n";
  add "=== Ablation (c): DCM consistency level (receiver, mid-design state) ===\n\n";
  let table =
    Table.create [ "Consistency"; "Mean relative window"; "Evaluations" ]
  in
  Table.set_align table [ Table.Left; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.c_label;
          Printf.sprintf "%.4f" row.c_mean_window;
          string_of_int row.c_evaluations;
        ])
    r.consistency;
  add "%s\n" (Table.render table);
  add "expected shape: shaving buys narrower windows (more precise guidance)\n";
  add "at a higher evaluation cost.\n";
  Buffer.contents buf
