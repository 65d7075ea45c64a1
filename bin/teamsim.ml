(* TeamSim command-line interface.

   Subcommands:
     run     — simulate one scenario/mode/seed, print the per-operation
               profile and the run summary (optionally recording a trace)
     sweep   — run many seeds for both modes and print the Fig. 9-style
               comparison table
     replay  — re-execute a recorded trace and check convergence
     analyze — derived views of a recorded trace
     serve   — teamsimd: persistent multi-session daemon over a socket
     list    — list available scenarios *)

open Cmdliner
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
open Adpm_trace

(* every scenario reference — plain name, gen:<spec>, file:<path> — goes
   through the one registry *)
let find_scenario = Registry.resolve_result

let mode_conv =
  let parse = function
    | "adpm" -> Ok Dpm.Adpm
    | "conventional" | "conv" -> Ok Dpm.Conventional
    | s -> Error (`Msg (Printf.sprintf "bad mode %s (adpm|conventional)" s))
  in
  let print ppf m = Format.pp_print_string ppf (Dpm.mode_to_string m) in
  Arg.conv (parse, print)

(* The scenario can be given positionally or as --scenario; exactly one. *)
let scenario_arg =
  let positional =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario reference: a name from $(b,list), a generator spec \
             $(b,gen:n=4,k=3,seed=0,topology=star), or a DDDL file \
             $(b,file:path.dddl).")
  in
  let named =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:"Scenario reference (alternative to the positional argument).")
  in
  let combine positional named =
    match (positional, named) with
    | Some s, None | None, Some s -> `Ok s
    | Some _, Some _ ->
      `Error
        (false, "give the scenario either positionally or via --scenario, not both")
    | None, None ->
      `Error (true, "required scenario name missing (positional or --scenario)")
  in
  Term.(ret (const combine $ positional $ named))

let mode_arg =
  Arg.(
    value
    & opt mode_conv Dpm.Adpm
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Design process mode: $(b,adpm) or $(b,conventional).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let latency_arg =
  Arg.(
    value
    & opt int 0
    & info [ "l"; "latency" ] ~docv:"TICKS"
        ~doc:
          "Notification latency in virtual ticks: how long after an \
           operation completes its outcome reaches teammate mailboxes (the \
           acting designer's own feedback is instant). $(b,0), the \
           default, reproduces the original instant-broadcast engine \
           bit-for-bit.")

let duration_conv =
  let parse s =
    match Adpm_sim.Model.duration_of_string s with
    | Ok d -> Ok d
    | Error msg -> Error (`Msg msg)
  in
  let print ppf d =
    Format.pp_print_string ppf (Adpm_sim.Model.duration_to_string d)
  in
  Arg.conv (parse, print)

let duration_arg =
  Arg.(
    value
    & opt duration_conv Adpm_sim.Model.unit_duration
    & info [ "duration-model" ] ~docv:"MODEL"
        ~doc:
          "Virtual duration of each operation: $(b,uniform:N) (every \
           operation takes N ticks) or $(b,per-kind:S,V,D) (synthesis, \
           verification, decompose). Default $(b,uniform:1). At latency 0 \
           durations stretch the virtual clock without changing any \
           outcome.")

let shift_plan_arg =
  let plan_conv =
    let parse s =
      match Shift.plan_of_string s with
      | Ok plan -> Ok plan
      | Error msg -> Error (`Msg msg)
    in
    let print ppf plan =
      Format.pp_print_string ppf (Shift.plan_to_string plan)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt plan_conv Shift.none
    & info [ "shift-plan" ] ~docv:"PLAN"
        ~doc:
          "Scheduled requirement shifts, e.g. \
           $(b,p_budget>=140@30;gmin0>=9.5@60): at virtual time TICK, \
           re-assign requirement PROP to FLOOR through the DPM. An ADPM \
           team re-propagates immediately; a conventional team discovers \
           the moved requirement only when it next verifies. Needs the \
           discrete-event engine (any nonzero latency or duration works; \
           latency 0 is fine too — only lockstep refuses shifts).")

let value_policy_arg =
  let policy_conv =
    let parse s =
      match Config.value_policy_of_string s with
      | Ok p -> Ok p
      | Error msg -> Error (`Msg msg)
    in
    let print ppf p =
      Format.pp_print_string ppf (Config.value_policy_to_string p)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt policy_conv Config.Endpoint
    & info [ "value-policy" ] ~docv:"POLICY"
        ~doc:
          "ADPM value-selection heuristic f_v: $(b,endpoint) (the paper's \
           vote-driven quantile pick, the default) or $(b,headroom) \
           (maximize log of the minimum normalized constraint headroom — \
           keeps margin for later requirement shifts at extra evaluation \
           cost).")

(* {2 Fault-injection flags} — shared by run and sweep. *)

module Fault = Adpm_fault.Fault

let drop_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "drop" ] ~docv:"RATE"
        ~doc:
          "Probability in [0,1] that a teammate notification is lost in \
           transit (the acting designer's own tool feedback is never \
           faulted). Seeded: the same seed loses the same notifications.")

let dup_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "dup" ] ~docv:"RATE"
        ~doc:
          "Probability in [0,1] that a teammate notification is delivered \
           twice (each copy with its own jitter).")

let jitter_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jitter" ] ~docv:"TICKS"
        ~doc:
          "Extra per-delivery delay drawn uniformly from [0,TICKS] ticks \
           on top of --latency.")

let crash_plan_arg =
  let crashes_conv =
    let parse s =
      match Fault.crashes_of_string s with
      | Ok crashes -> Ok crashes
      | Error msg -> Error (`Msg msg)
    in
    let print ppf crashes =
      Format.pp_print_string ppf (Fault.crashes_to_string crashes)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt crashes_conv []
    & info [ "crash-plan" ] ~docv:"PLAN"
        ~doc:
          "Scheduled designer crashes, e.g. $(b,alice@12+5;bob@30+10): \
           crash NAME at virtual time TIME, restart it RECOVERY ticks \
           later. A restarted designer has lost its believed-status table \
           and queued notifications and rebuilds from later deliveries.")

let fault_plan_term =
  let combine p_drop p_dup p_jitter p_crashes =
    { Fault.p_drop; p_dup; p_jitter; p_crashes }
  in
  Term.(const combine $ drop_arg $ dup_arg $ jitter_arg $ crash_plan_arg)

(* Reject a bad combination of numeric settings before the engine raises. *)
let validated cfg =
  match Config.validate cfg with
  | Ok () -> cfg
  | Error msg ->
    Printf.eprintf "invalid configuration: %s\n" msg;
    exit 1

let seeds_arg =
  Arg.(
    value
    & opt int 60
    & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of seeds per cell.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for multi-seed runs ($(b,0) = one per available \
           core, $(b,1) = the sequential reference). Results are \
           bit-identical for any value; only wall time changes.")

let effective_jobs jobs =
  if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every operation.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Write the per-operation profile (run) or per-run table (sweep) as CSV.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the run summary as JSON.")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run as a JSONL event trace, replayable with \
           $(b,replay).")

let run_cmd =
  let action scenario_name mode seed latency duration_model faults
      shifts value_policy verbose csv json trace =
    match find_scenario scenario_name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok scenario ->
      let cfg =
        validated
          {
            (Config.default ~mode ~seed) with
            Config.latency;
            duration_model;
            faults;
            shifts;
            value_policy;
          }
      in
      let on_op r =
        if verbose then
          Printf.printf "  op %3d %-12s %-12s evals=%3d new-violations=%d%s\n"
            r.Metrics.m_index r.Metrics.m_designer r.Metrics.m_kind
            r.Metrics.m_evaluations r.Metrics.m_new_violations
            (if r.Metrics.m_spin then " [spin]" else "")
      in
      let tracer =
        match trace with
        | None -> Tracer.null
        | Some path -> (
          match Sink.jsonl_file path with
          | sink -> Tracer.create sink
          | exception Sys_error msg ->
            Printf.eprintf "cannot open trace file: %s\n" msg;
            exit 1)
      in
      let outcome =
        match
          Fun.protect
            ~finally:(fun () -> Tracer.close tracer)
            (fun () -> Engine.run ~on_op ~tracer cfg scenario)
        with
        | outcome -> outcome
        | exception Invalid_argument msg ->
          (* a crash plan naming an unknown designer is only detectable
             once the scenario is built *)
          prerr_endline msg;
          exit 1
      in
      (match trace with
      | Some path ->
        Printf.printf "wrote %d trace events to %s\n" (Tracer.seq tracer) path
      | None -> ());
      print_endline (Metrics.summary_line outcome.Engine.o_summary);
      (match csv with
      | Some path ->
        write_file path (Export.profile_csv outcome.Engine.o_summary);
        Printf.printf "wrote profile CSV to %s\n" path
      | None -> ());
      (match json with
      | Some path ->
        write_file path (Export.summary_json outcome.Engine.o_summary);
        Printf.printf "wrote summary JSON to %s\n" path
      | None -> ())
  in
  let term =
    Term.(
      const action $ scenario_arg $ mode_arg $ seed_arg
      $ latency_arg $ duration_arg $ fault_plan_term $ shift_plan_arg
      $ value_policy_arg $ verbose_arg $ csv_arg $ json_arg $ trace_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one design process run.") term

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"JSONL trace file recorded by $(b,run --trace).")

let read_trace path =
  match Codec.read_file path with
  | Ok events -> events
  | Error msg ->
    Printf.eprintf "cannot read trace %s: %s\n" path msg;
    exit 1

let replay_cmd =
  let action path =
    let events = read_trace path in
    match Replay.run ~resolve:Registry.resolve events with
    | exception Replay.Replay_error msg ->
      Printf.eprintf "cannot replay %s: %s\n" path msg;
      exit 1
    | report ->
      print_string (Replay.render report);
      if not (Replay.converged report) then exit 1
  in
  let term = Term.(const action $ trace_file_arg) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded trace against a fresh design state and \
          verify it converges to the recorded outcome (nonzero exit on \
          divergence).")
    term

let analyze_cmd =
  let action path json =
    let events = read_trace path in
    let report = Analyze.analyze events in
    print_string (Analyze.render report);
    match json with
    | Some out ->
      write_file out (Json.to_string (Analyze.to_json report) ^ "\n");
      Printf.printf "wrote analysis JSON to %s\n" out
    | None -> ()
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the analysis report as JSON.")
  in
  let term = Term.(const action $ trace_file_arg $ json_out_arg) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Derived views of a recorded trace: notification latency, \
          propagation-wave sizes, violation open/close spans.")
    term

let sweep_cmd =
  let action scenario_name seeds jobs latency faults csv =
    match find_scenario scenario_name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok scenario ->
      let jobs = effective_jobs jobs in
      let seed_list = List.init seeds (fun i -> i + 1) in
      let cfg mode =
        validated
          { (Config.default ~mode ~seed:0) with Config.latency; faults }
      in
      let run_mode mode =
        Engine.run_many ~jobs (cfg mode) scenario ~seeds:seed_list
      in
      let conv_runs = run_mode Dpm.Conventional in
      let adpm_runs = run_mode Dpm.Adpm in
      print_string
        (Report.comparison_table
           ~title:(Printf.sprintf "scenario %s, %d seeds" scenario_name seeds)
           [ Report.aggregate conv_runs; Report.aggregate adpm_runs ]);
      (match csv with
      | Some path ->
        write_file path (Export.runs_csv (conv_runs @ adpm_runs));
        Printf.printf "wrote per-run CSV to %s\n" path
      | None -> ())
  in
  let term =
    Term.(
      const action $ scenario_arg $ seeds_arg $ jobs_arg $ latency_arg
      $ fault_plan_term $ csv_arg)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Compare modes over many seeds (Fig. 9 data).")
    term

(* {2 Temporal-property checking and schedule fuzzing} *)

module Prop = Adpm_check.Prop
module Props = Adpm_check.Props
module Fuzz = Adpm_check.Fuzz

(* Without an explicit horizon, bound the delivery window by the largest
   transit time the trace itself exhibits — tight for clean runs, and a
   flag away from exact when the caller knows latency + jitter. *)
let observed_horizon events =
  List.fold_left
    (fun acc (ev : Event.stamped) ->
      match ev.Event.event with
      | Event.Notification_delivered { sent_at; delivered_at; _ } ->
        max acc (delivered_at - sent_at)
      | _ -> acc)
    0 events

let check_cmd =
  let horizon_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"TICKS"
          ~doc:
            "Worst-case delivery transit (latency + jitter) used to decide \
             whether an undelivered notification was still in flight when \
             the run halted. Default: the largest transit observed in the \
             trace.")
  in
  let action path horizon crashes =
    let events = read_trace path in
    let horizon =
      match horizon with Some h -> h | None -> observed_horizon events
    in
    let results = Prop.check (Props.suite ~horizon ~crashes ()) events in
    print_string (Prop.render results);
    let worst =
      List.fold_left
        (fun acc r ->
          match (acc, r.Prop.c_verdict) with
          | _, Prop.Fail _ -> 1
          | 0, Prop.Truncated _ -> 2
          | _ -> acc)
        0 results
    in
    if worst <> 0 then exit worst
  in
  let term = Term.(const action $ trace_file_arg $ horizon_arg $ crash_plan_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check the temporal-property suite over a recorded trace: every \
          pushed violation delivered or resolved, no designer starves, \
          crashed designers rejoin, dropped notifications stay dropped. \
          Exit 1 on a violated property, 2 on a truncated (ring-buffer) \
          trace — truncation is refused, never a vacuous pass.")
    term

let fuzz_cmd =
  let count_arg =
    Arg.(
      value
      & opt int 100
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:"Random schedules to run before declaring the suite clean.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:
            "Where to write the minimized counterexample \
             ($(b,PREFIX.trace.jsonl) + $(b,PREFIX.json)) when a property \
             fails.")
  in
  let max_ops_arg =
    Arg.(
      value
      & opt int 400
      & info [ "max-ops" ] ~docv:"N"
          ~doc:"Operation budget per fuzzed run (smaller = faster fuzzing).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-schedule progress.")
  in
  let action scenario_name mode seed count max_ops faults out quiet =
    match find_scenario scenario_name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok scenario ->
      (match Fault.validate faults with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "invalid fault plan: %s\n" msg;
        exit 1);
      (* explicit fault flags pin the plan; otherwise each schedule draws
         its own *)
      let faults = if Fault.is_none faults then None else Some faults in
      let progress i =
        if (not quiet) && i mod 10 = 0 then Printf.printf "  %d schedules ok\n%!" i
      in
      let report =
        match
          Fuzz.fuzz ?faults ~max_ops ~progress ~mode ~seed ~count scenario
        with
        | report -> report
        | exception Invalid_argument msg ->
          prerr_endline msg;
          exit 1
      in
      (match report.Fuzz.fz_violation with
      | None ->
        Printf.printf
          "%d schedules on %s/%s: all temporal properties hold\n"
          report.Fuzz.fz_schedules scenario_name (Dpm.mode_to_string mode)
      | Some v ->
        Printf.printf "property %s FAILED after %d schedule(s)\n" v.Fuzz.v_prop
          report.Fuzz.fz_schedules;
        Printf.printf "  %s [seq %d..%d]\n" v.Fuzz.v_reason v.Fuzz.v_from_seq
          v.Fuzz.v_to_seq;
        Printf.printf "  schedule:  %s\n"
          (Fuzz.schedule_to_string v.Fuzz.v_original);
        Printf.printf "  minimized: %s (%d shrink steps, %d events)\n"
          (Fuzz.schedule_to_string v.Fuzz.v_schedule)
          v.Fuzz.v_shrink_steps
          (List.length v.Fuzz.v_events);
        (match out with
        | Some prefix ->
          let paths =
            Fuzz.write_artifact ~prefix ~scenario:scenario_name ~mode v
          in
          List.iter (Printf.printf "wrote %s\n") paths
        | None -> ());
        exit 1)
  in
  let term =
    Term.(
      const action $ scenario_arg $ mode_arg $ seed_arg $ count_arg
      $ max_ops_arg $ fault_plan_term $ out_arg $ quiet_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the discrete-event schedule: run many random \
          (seed, latency, duration, fault-plan) combinations, check the \
          temporal-property suite over each complete trace, and on a \
          violation shrink the schedule to a minimal replayable \
          counterexample (nonzero exit).")
    term

let interactive_cmd =
  let designer_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "designer" ] ~docv:"NAME"
          ~doc:"Which team member to play (see the scenario's designers).")
  in
  let action scenario_name mode seed designer =
    match find_scenario scenario_name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok scenario -> (
      match Interactive.create ~mode ~seed scenario ~designer with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
      | session ->
        Printf.printf
          "Interactive %s session on %s. Type 'help' for commands, 'quit' to leave.\n"
          (Dpm.mode_to_string mode) scenario_name;
        let rec loop () =
          if Interactive.finished session then
            print_endline "Design complete."
          else begin
            Printf.printf "%s> %!" (Interactive.prompt session);
            match In_channel.input_line stdin with
            | None -> ()
            | Some "quit" | Some "exit" -> ()
            | Some line ->
              (match Interactive.execute session line with
              | Ok output -> print_string output
              | Error msg -> Printf.printf "error: %s\n" msg);
              loop ()
          end
        in
        loop ())
  in
  let term =
    Term.(const action $ scenario_arg $ mode_arg $ seed_arg $ designer_arg)
  in
  Cmd.v
    (Cmd.info "interactive"
       ~doc:"Play one designer yourself; the rest of the team is simulated.")
    term

let list_cmd =
  let action () =
    List.iter
      (fun s ->
        Printf.printf "%-10s %s\n" s.Scenario.sc_name s.Scenario.sc_description)
      Registry.builtin;
    print_endline
      "gen:SPEC   generated scenario, e.g. gen:n=4,k=3,seed=0,topology=star";
    print_endline "file:PATH  scenario elaborated from a DDDL file"
  in
  Cmd.v (Cmd.info "list" ~doc:"List scenarios.") Term.(const action $ const ())

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP at the numeric $(docv), e.g. 127.0.0.1:7777.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt string "."
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"Directory for default checkpoint artifact paths.")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt int 256
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Maximum concurrently open sessions.")
  in
  let journal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Write-ahead journal directory. Every accepted open/exec/resume \
             is journaled (fsync'd before execution); a restarted daemon \
             pointed at the same $(docv) rebuilds every in-flight session \
             automatically.")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Auto-compact a session's journal every $(docv) executed \
             commands (0 disables compaction).")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Connection admission limit: clients past it are answered with \
             one `overloaded' error frame and disconnected.")
  in
  let max_ops_arg =
    Arg.(
      value
      & opt int 0
      & info [ "max-ops" ] ~docv:"N"
          ~doc:
            "Per-session exec budget (0 = unlimited); past it every exec is \
             refused with `overloaded'.")
  in
  let action socket tcp checkpoint_dir max_sessions journal_dir checkpoint_every
      max_conns max_ops =
    let addr =
      match (socket, tcp) with
      | Some p, None -> Ok (Adpm_serve.Daemon.Unix_path p)
      | None, Some hp -> (
        match String.rindex_opt hp ':' with
        | Some i -> (
          let host = String.sub hp 0 i in
          match
            int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1))
          with
          | Some port -> Ok (Adpm_serve.Daemon.Tcp (host, port))
          | None -> Error (Printf.sprintf "bad port in --tcp %s" hp))
        | None -> Error (Printf.sprintf "--tcp wants HOST:PORT, got %s" hp))
      | Some _, Some _ -> Error "give --socket or --tcp, not both"
      | None, None -> Error "teamsimd needs a listen address: --socket or --tcp"
    in
    match addr with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok addr -> (
      let cfg =
        {
          (Adpm_serve.Daemon.default_config ~addr ~scenarios:Registry.builtin)
          with
          Adpm_serve.Daemon.dc_resolve = Registry.resolve_result;
          dc_checkpoint_dir = checkpoint_dir;
          dc_max_sessions = max_sessions;
          dc_journal_dir = journal_dir;
          dc_checkpoint_every = checkpoint_every;
          dc_max_conns = max_conns;
          dc_max_ops = max_ops;
        }
      in
      match Adpm_serve.Daemon.create cfg with
      | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "teamsimd: cannot listen (%s %s: %s)\n" fn arg
          (Unix.error_message err);
        exit 1
      | exception Failure msg ->
        Printf.eprintf "teamsimd: %s\n" msg;
        exit 1
      | daemon ->
        (match addr with
        | Adpm_serve.Daemon.Unix_path p ->
          Printf.printf "teamsimd listening on %s\n%!" p
        | Adpm_serve.Daemon.Tcp (h, p) ->
          Printf.printf "teamsimd listening on %s:%d\n%!" h p);
        List.iter
          (fun (sid, replayed) ->
            Printf.printf "teamsimd: recovered session %s (%d commands)\n%!"
              sid replayed)
          (Adpm_serve.Daemon.recovered_sessions daemon);
        Adpm_serve.Daemon.run daemon)
  in
  let term =
    Term.(
      const action $ socket_arg $ tcp_arg $ checkpoint_dir_arg
      $ max_sessions_arg $ journal_dir_arg $ checkpoint_every_arg
      $ max_conns_arg $ max_ops_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run teamsimd: a persistent daemon multiplexing interactive \
          sessions over a JSONL socket protocol (hello, open, exec, status, \
          checkpoint, resume, close, shutdown).")
    term

let () =
  let doc = "TeamSim design-process evaluation environment (DAC 2001 repro)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "teamsim" ~doc)
          [ run_cmd; sweep_cmd; replay_cmd; analyze_cmd; check_cmd; fuzz_cmd;
            interactive_cmd; serve_cmd; list_cmd ]))
