(* Bench-smoke gate: fail loudly (nonzero exit) if BENCH_results.json is
   missing, unparseable, or lacks a finite positive incremental_speedup or
   domains_speedup — so a refactor that silently stops producing the
   incremental-vs-oracle or domains-vs-sequential comparison breaks @check
   instead of shipping an empty benchmark.

   The domains gate: the field must always be a finite positive ratio and
   domains_agrees true, and on a real measurement (jobs >= 2 on >= 2
   available cores in a non-fast run) the ratio must be >= 1: a
   multi-domain pass of the Fig. 9 cells that fails to beat the
   sequential pass is a regression. Fast smoke runs are exempt from the
   >= 1 bar because their cells are milliseconds long, where spawn
   overhead and timer noise dominate. *)

module Json = Adpm_trace.Json

let file = "BENCH_results.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench-smoke check FAILED: %s\n" msg;
      exit 1)
    fmt

let () =
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> die "%s missing (%s)" file msg
  in
  let json =
    match Json.parse contents with
    | Ok j -> j
    | Error msg -> die "%s does not parse: %s" file msg
  in
  let speedup name =
    match Json.member name json with
    | None -> die "%s lacks the %s field" file name
    | Some v -> (
      match Json.to_float v with
      | None -> die "%s is not a number" name
      | Some s when not (Float.is_finite s && s > 0.) ->
        die "%s %g is not a finite positive ratio" name s
      | Some s -> s)
  in
  let incremental = speedup "incremental_speedup" in
  (* incremental.outcomes_agree is false when, after some DCM propagation,
     the from-scratch oracle's feasible subspaces or statuses differed from
     the ones the incremental path applied — a soundness failure, never
     noise. A missing field means the comparison silently stopped running. *)
  (match
     Option.bind (Json.member "incremental" json) (fun incr ->
         Option.bind (Json.member "outcomes_agree" incr) Json.to_bool)
   with
  | Some true -> ()
  | Some false ->
    die
      "incremental.outcomes_agree is false: the incremental DCM propagation \
       diverged from the from-scratch oracle"
  | None -> die "%s lacks the incremental.outcomes_agree field" file);
  (* The DCM hot path must stay allocation-free: the HC4 kernel and the
     fixpoint worklist allocate nothing per revision, so the minor words a
     from-scratch Propagate.run on sensor and receiver allocates per HC4
     revision are only its per-run store and outcome lists — 13.0 when the
     gate was set, 374.8 before. It is a deterministic count, so the
     16-word bar applies to fast runs too. kernel_ns_per_op (the compiled
     kernel's bechamel time per revision) must merely exist. *)
  let max_fixpoint_words = 16. in
  let fixpoint_words = speedup "fixpoint_words_per_rev" in
  if fixpoint_words > max_fixpoint_words then
    die
      "fixpoint_words_per_rev %g > %g: the propagation fixpoint allocates \
       per revision again"
      fixpoint_words max_fixpoint_words;
  let kernel_ns = speedup "kernel_ns_per_op" in
  (* The designers decide from tables compiled once per network structure
     and problem tree, and read the known-violated set the DPM maintains:
     a turn of Designer.choose_operation (receiver, both modes, seeds 1-3)
     allocated 872 minor words when the gate was set, 3919 before. It is a
     deterministic count, so the bar applies to fast runs too; the turn's
     wall time (designer_us_per_turn, with its spread) must merely exist. *)
  let max_designer_words = 900. in
  let designer_words = speedup "designer_words_per_turn" in
  if designer_words > max_designer_words then
    die
      "designer_words_per_turn %g > %g: the designer re-derives its decision \
       inputs per turn again"
      designer_words max_designer_words;
  let designer_us = speedup "designer_us_per_turn" in
  (match
     Option.bind (Json.member "designer_us_per_turn_spread" json) (fun s ->
         Option.bind (Json.member "repeats" s) Json.to_int)
   with
  | Some n when n >= 1 -> ()
  | Some _ | None ->
    die "%s lacks designer_us_per_turn_spread.repeats" file);
  (* the discrete-event engine must both exist and agree: a missing or
     non-finite overhead ratio means the scheduler comparison silently
     stopped running, and des_agrees=false means the latency-0 fingerprint
     diverged from the lockstep reference — both are hard failures *)
  let des_overhead = speedup "des_overhead" in
  (match Option.bind (Json.member "des_agrees" json) Json.to_bool with
  | Some true -> ()
  | Some false ->
    die
      "des_agrees is false: the discrete-event engine's latency-0 summaries \
       diverged from the lockstep loop"
  | None -> die "%s lacks the des_agrees field" file);
  let fast =
    match Option.bind (Json.member "fast" json) Json.to_bool with
    | Some b -> b
    | None -> die "%s lacks the fast field" file
  in
  (* The domain runner always executes (its jobs are forced to >= 2), so a
     missing domains_speedup or a false domains_agrees means the
     shared-memory pool silently stopped running or diverged from the
     sequential reference — both hard failures. The > 1 bar additionally
     needs real cores to overlap on and a non-fast run. *)
  let domains = speedup "domains_speedup" in
  (match Option.bind (Json.member "domains_agrees" json) Json.to_bool with
  | Some true -> ()
  | Some false ->
    die
      "domains_agrees is false: the domain-pool Fig. 9 cells diverged \
       from the sequential pass"
  | None -> die "%s lacks the domains_agrees field" file);
  let domains_jobs =
    match Option.bind (Json.member "domains_jobs" json) Json.to_int with
    | Some n -> n
    | None -> die "%s lacks the domains_jobs field" file
  in
  let cores =
    match Option.bind (Json.member "cores" json) Json.to_int with
    | Some n -> n
    | None -> die "%s lacks the cores field" file
  in
  if cores >= 2 && domains_jobs >= 2 && (not fast) && domains < 1. then
    die
      "domains_speedup %g < 1 with %d jobs on %d cores: the domain pool \
       regressed"
      domains domains_jobs cores;
  (* the adaptability study and the generator-throughput measurement must
     both have run: adapt_advantage is the headline conventional/ADPM
     operation ratio under requirement shifts (geometric mean over
     families x schedules) and gen_scenarios_per_s the canonical-pipeline
     build rate — a missing or non-finite value means the adaptability
     workload or the DDDL generator silently stopped being measured *)
  let adapt_advantage = speedup "adapt_advantage" in
  let gen_rate = speedup "gen_scenarios_per_s" in
  (* the schedule fuzzer must have run at a finite positive throughput and
     found no property violation: fuzz_clean=false means a random schedule
     broke the temporal-property suite — a scheduling or bookkeeping bug,
     never acceptable noise *)
  let fuzz = speedup "fuzz_throughput" in
  (match Option.bind (Json.member "fuzz_clean" json) Json.to_bool with
  | Some true -> ()
  | Some false ->
    die
      "fuzz_clean is false: a fuzzed schedule violated the temporal-property \
       suite"
  | None -> die "%s lacks the fuzz_clean field" file);
  (* the teamsimd load bench must have run: a finite positive throughput
     and p99 latency always, and on a full (non-fast) run at least 64
     concurrent sessions — the daemon's headline capacity claim *)
  let teamsimd_ops = speedup "teamsimd_ops_per_s" in
  let teamsimd_p99 = speedup "teamsimd_p99_ms" in
  let teamsimd_sessions =
    match Option.bind (Json.member "teamsimd_sessions" json) Json.to_int with
    | Some n -> n
    | None -> die "%s lacks the teamsimd_sessions field" file
  in
  if (not fast) && teamsimd_sessions < 64 then
    die "teamsimd_sessions %d < 64 on a full run: the load bench shrank"
      teamsimd_sessions;
  (* crash recovery must have been measured (a finite positive replay
     time) and must be lossless: chaos_sessions_ok is the fraction of
     chaos-proxied sessions whose outputs and fingerprint were
     byte-identical to an undisturbed run across a mid-run daemon
     restart — anything below 1.0 is recovered-state corruption, never
     acceptable noise *)
  let recovery_ms = speedup "teamsimd_recovery_ms" in
  let chaos_sessions =
    match Option.bind (Json.member "chaos_sessions" json) Json.to_int with
    | Some n -> n
    | None -> die "%s lacks the chaos_sessions field" file
  in
  (match Option.bind (Json.member "chaos_sessions_ok" json) Json.to_float with
  | Some ok when ok = 1.0 -> ()
  | Some ok ->
    die
      "chaos_sessions_ok %g < 1.0: a chaos-proxied session diverged from the        undisturbed run after the mid-run restart"
      ok
  | None -> die "%s lacks the chaos_sessions_ok field" file);
  if (not fast) && chaos_sessions < 8 then
    die "chaos_sessions %d < 8 on a full run: the recovery bench shrank"
      chaos_sessions;
  (* the fault sweep must have produced a degradation curve *)
  (match Json.member "fault_sweep" json with
  | None -> die "%s lacks the fault_sweep field" file
  | Some sweep -> (
    match
      Option.bind (Json.member "completion_by_drop" sweep) Json.to_list
    with
    | None | Some [] ->
      die "fault_sweep.completion_by_drop is missing or empty"
    | Some _ -> ()));
  Printf.printf
    "bench-smoke check OK: incremental_speedup=%.2fx \
     fixpoint_words_per_rev=%.2f kernel_ns_per_op=%.1f \
     designer_words_per_turn=%.1f designer_us_per_turn=%.1f \
     domains_speedup=%.2fx (jobs=%d, cores=%d) des_overhead=%.2fx \
     adapt_advantage=%.2fx \
     gen_scenarios_per_s=%.1f fuzz_throughput=%.1f/s \
     teamsimd=%d sessions @ %.0f ops/s (p99 %.2fms) recovery=%.1fms \
     chaos_sessions=%d/%d ok\n"
    incremental fixpoint_words kernel_ns designer_words designer_us domains
    domains_jobs cores
    des_overhead adapt_advantage gen_rate fuzz teamsimd_sessions teamsimd_ops
    teamsimd_p99 recovery_ms chaos_sessions chaos_sessions
