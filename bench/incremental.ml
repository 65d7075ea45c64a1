(* Incremental DCM propagation against the from-scratch oracle on the
   Fig. 9 receiver experiment.

   Runs the receiver scenario in ADPM mode once per seed. After every
   propagation the DCM performs (the setup and each operation that moves
   [Dpm.revision_work]), the from-scratch [Propagate.run] oracle recomputes
   the fixpoint on the same network. Its HC4 revisions (the unit of actual
   narrowing work, as opposed to [evaluations] which also charges the
   status sweep) are summed as the from-scratch cost, against the revisions
   the incremental path performed. The oracle's feasible subspaces and
   statuses must equal the ones the incremental path applied, every time:
   any disagreement is reported loudly (it would falsify the soundness
   argument in DESIGN.md). *)

open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type row = {
  seed : int;
  full_revisions : int;
  incr_revisions : int;
  operations : int;
  outcomes_agree : bool;
}

type result = {
  rows : row list;
  total_full : int;
  total_incr : int;
  speedup : float;
  all_agree : bool;
}

(* The oracle's outcome equals what the incremental path applied to [net]
   (a symbolic property's entry is its initial domain, which is also what
   the network holds for it). *)
let matches_network net (oracle : Propagate.outcome) =
  let agree = ref true in
  Array.iteri
    (fun pid d ->
      if not (Domain.equal d (Network.prop_by_id net pid).Network.p_feasible)
      then agree := false)
    oracle.Propagate.feasible;
  Array.iteri
    (fun cid s -> if s <> Network.status net cid then agree := false)
    oracle.Propagate.statuses;
  !agree

let run_seed seed =
  let dpm = ref None in
  let scenario =
    {
      Receiver.scenario with
      Scenario.sc_build =
        (fun ~mode ->
          let d = Receiver.scenario.Scenario.sc_build ~mode in
          dpm := Some d;
          d);
    }
  in
  let seen_work = ref 0 and full_revisions = ref 0 and agree = ref true in
  let on_op _ =
    let d = Option.get !dpm in
    if Dpm.revision_work d <> !seen_work then begin
      seen_work := Dpm.revision_work d;
      let net = Dpm.network d in
      let oracle = Propagate.run net in
      full_revisions := !full_revisions + oracle.Propagate.revisions;
      if not (matches_network net oracle) then agree := false
    end
  in
  let outcome =
    Engine.run ~on_op (Config.default ~mode:Dpm.Adpm ~seed) scenario
  in
  {
    seed;
    full_revisions = !full_revisions;
    incr_revisions = Dpm.revision_work outcome.Engine.o_dpm;
    operations = outcome.Engine.o_summary.Metrics.s_operations;
    outcomes_agree = !agree;
  }

let run ~seeds () =
  let rows = List.init seeds (fun i -> run_seed (i + 1)) in
  let total_full = List.fold_left (fun a r -> a + r.full_revisions) 0 rows in
  let total_incr = List.fold_left (fun a r -> a + r.incr_revisions) 0 rows in
  let speedup =
    if total_incr = 0 then infinity
    else float_of_int total_full /. float_of_int total_incr
  in
  let all_agree = List.for_all (fun r -> r.outcomes_agree) rows in
  { rows; total_full; total_incr; speedup; all_agree }

let render result =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-6s %12s %12s %8s %8s %s\n" "seed" "full-revs"
    "incr-revs" "ratio" "ops" "outcome";
  List.iter
    (fun r ->
      Printf.bprintf b "%-6d %12d %12d %8.2f %8d %s\n" r.seed
        r.full_revisions r.incr_revisions
        (if r.incr_revisions = 0 then infinity
         else float_of_int r.full_revisions /. float_of_int r.incr_revisions)
        r.operations
        (if r.outcomes_agree then "identical" else "DIVERGED"))
    result.rows;
  Printf.bprintf b "\ntotal HC4 revisions: full=%d incremental=%d speedup=%.2fx\n"
    result.total_full result.total_incr result.speedup;
  if not result.all_agree then
    Buffer.add_string b
      "WARNING: the from-scratch oracle disagreed with the incremental path's \
       applied outcome on some seeds\n";
  Buffer.contents b
