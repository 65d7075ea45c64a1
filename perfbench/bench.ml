(* The repository benchmark. One workload per invocation:

     bench.exe --workload sweep-adpm|sweep-conventional
               --seed N --seconds S --trace 0|1
     bench.exe --make-pins      (regenerate perfbench/pins.tsv)

   Run from the repository root (perfbench/run.sh builds and runs it).
   The last line of standard output is the JSON result; progress goes to
   standard error. With --trace 0 it reports the end-to-end metrics,
   with --trace 1 the per-layer ones from a separate traced run. See
   perfbench/README.md and perfbench/spec.json. *)

module Dpm = Adpm_core.Dpm

let scratch = ".perfbench_tmp"

(* The daemon binary, as perfbench/run.sh builds it. *)
let teamsim = "_build/default/bin/teamsim.exe"

(* Peak resident set size of this process (VmHWM), in MiB; [nan] where
   /proc is unavailable, which the result line reports as invalid. *)
let peak_mem_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | exception Sys_error _ -> nan
  | lines ->
    List.find_map
      (fun line ->
        try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
        with Scanf.Scan_failure _ | End_of_file -> None)
      lines
    |> Option.value ~default:nan

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 | \
     --make-pins";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then usage ();
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
    { workload; seed; seconds; trace }
  | _ -> usage ()

(* The serve layers under load, on this workload's scenarios and mode:
   every per-layer serve metric, plus the single-layer service probes on
   the command stream it produced. *)
let serve_layers (spec : Spec.t) args report ~mode =
  let dir = Filename.concat scratch "serve" in
  let sv = spec.Spec.serve in
  let r =
    Serve_load.run
      {
        Serve_load.exe = teamsim;
        dir;
        spec = sv;
        mix = List.map (fun n -> (n, mode)) spec.Spec.scenarios;
        rate_per_s =
          (match mode with
          | Dpm.Adpm -> sv.Spec.rate_adpm
          | Dpm.Conventional -> sv.Spec.rate_conventional);
        open_s = sv.Spec.open_share *. args.seconds;
        closed_s = sv.Spec.closed_share *. args.seconds;
        seed = args.seed;
      }
      report
  in
  let m = Tally.metric report in
  m "serve.exec_ms_p50" "ms" r.Serve_load.exec_ms_p50;
  m "serve.exec_ms_p99" "ms" r.Serve_load.exec_ms_p99;
  m "serve.status_ms_p99" "ms" r.Serve_load.status_ms_p99;
  m "serve.open_ms_p50" "ms" r.Serve_load.open_ms_p50;
  m "serve.slo_share" "ratio" r.Serve_load.slo_share;
  m "serve.exec_ops_per_s" "1/s" r.Serve_load.exec_ops_per_s;
  m "serve.recovery_s" "s" r.Serve_load.recovery_s;
  m "loadgen.late_ms_p99" "ms" r.Serve_load.late_ms_p99;
  Probes.service report ~dir r ~budget_s:(0.05 *. args.seconds)

let sweep (spec : Spec.t) args report ~mode =
  let ctx, setup_s = Sweep.setup spec ~mode in
  let m = Tally.metric report in
  if not args.trace then begin
    m "setup_s" "s" setup_s;
    Sweep.timed ctx report ~mode ~seed:args.seed ~seconds:args.seconds;
    m "peak_mem_mb" "MB" (peak_mem_mb ())
  end
  else begin
    let rounds =
      match mode with
      | Dpm.Adpm -> spec.Spec.trace_rounds_adpm
      | Dpm.Conventional -> spec.Spec.trace_rounds_conventional
    in
    Sweep.traced ctx report ~mode ~seed:args.seed ~rounds;
    Probes.kernels report
      (Array.to_list (Array.map snd ctx.Sweep.scenarios))
      ~budget_s:(0.15 *. args.seconds);
    Probes.registry report spec.Spec.scenarios ~mode;
    serve_layers spec args report ~mode
  end

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--make-pins" then begin
    Sweep.make_pins (Spec.load ());
    exit 0
  end;
  let args = parse_args () in
  match
    let spec = Spec.load () in
    let report = Tally.create () in
    if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
    (match args.workload with
    | "sweep-adpm" -> sweep spec args report ~mode:Dpm.Adpm
    | "sweep-conventional" -> sweep spec args report ~mode:Dpm.Conventional
    | w ->
      Printf.eprintf "unknown workload %s\n" w;
      exit 2);
    report
  with
  | report ->
    Serve_load.rm_rf scratch;
    Tally.print report
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
