(* Standalone probes: timed loops around single public functions of one
   layer, with [Gc.minor_words] deltas for allocation. *)

open Adpm_csp
open Adpm_serve
module Dpm = Adpm_core.Dpm
module Json = Adpm_trace.Json
module Stats_acc = Adpm_util.Stats_acc

(* Repeat [f] (which returns the units of work it did) until [budget_s]
   has elapsed; (seconds, words, units). *)
let loop ~budget_s f =
  let units = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  while Clock.since t0 < budget_s do
    units := !units + f ()
  done;
  let dt = Clock.since t0 in
  (dt, Gc.minor_words () -. w0, !units)

(* The scenario's ADPM network with its propagation store persisted. *)
let network sc =
  let net = Dpm.network (sc.Adpm_teamsim.Scenario.sc_build ~mode:Dpm.Adpm) in
  ignore (Propagate.run_incremental net : Propagate.outcome);
  net

(* [Hc4.revise_kernel] sweeps over every kernel of [Network.kernel], and
   from-scratch [Propagate.run] fixpoints, on each scenario. *)
let kernels report scenarios ~budget_s =
  let budget_s = budget_s /. float_of_int (2 * List.length scenarios) in
  let hc4 = ref (0., 0., 0) and prop = ref (0., 0., 0) in
  let add r (a, b, c) =
    let a0, b0, c0 = !r in
    r := (a0 +. a, b0 +. b, c0 + c)
  in
  List.iter
    (fun sc ->
      let net = network sc in
      let ps = Option.get (Network.prop_state net) in
      let ks = Array.map (Network.kernel net) (Network.constraint_array net) in
      add hc4
        (loop ~budget_s (fun () ->
             Array.iter
               (fun k ->
                 ignore
                   (Adpm_expr.Hc4.revise_kernel k ~lo:ps.Network.ps_lo
                      ~hi:ps.Network.ps_hi
                     : bool))
               ks;
             Array.length ks));
      add prop
        (loop ~budget_s (fun () -> (Propagate.run net).Propagate.revisions)))
    scenarios;
  let m = Tally.metric report in
  let dt, words, n = !hc4 in
  m "hc4.ns_per_revise" "ns" (dt *. 1e9 /. float_of_int n);
  m "hc4.words_per_revise" "words" (words /. float_of_int n);
  let dt, words, n = !prop in
  m "propagate.us_per_rev" "us" (dt *. 1e6 /. float_of_int n);
  m "propagate.words_per_rev" "words" (words /. float_of_int n)

(* Median over [repeats] of one call, in milliseconds. *)
let median_ms ~repeats f =
  let acc = Stats_acc.create () in
  for _ = 1 to repeats do
    let t0 = Clock.now () in
    f ();
    Stats_acc.add acc (1000. *. Clock.since t0)
  done;
  Stats_acc.median acc

(* [Registry.resolve_result] and [Scenario.sc_build], per scenario. *)
let registry report names ~mode =
  let mean_ms f =
    let acc = Stats_acc.create () in
    List.iter (fun name -> Stats_acc.add acc (f name)) names;
    Stats_acc.mean acc
  in
  Tally.metric report "scenario.resolve_ms" "ms"
    (mean_ms (fun name ->
         median_ms ~repeats:5 (fun () -> ignore (Sweep.resolve name))));
  Tally.metric report "scenario.build_ms" "ms"
    (mean_ms (fun name ->
         let sc = Sweep.resolve name in
         median_ms ~repeats:5 (fun () ->
             ignore (sc.Adpm_teamsim.Scenario.sc_build ~mode : Dpm.t))))

let request_json req = Wire.request_to_json ~id:(Json.Num 1.) req

let frame_str frame key = Option.bind (Json.member key frame) Json.to_str

(* The serve command stream replayed through single layers: [Session.exec]
   and [Session.fingerprint], [Journal.append] on the file system that
   held the daemon's journal, [Daemon.handle] on an in-process daemon
   with a journal, and journal recovery ([Daemon.create]) on the journal
   directory the kill left behind. *)
let service report ~dir (r : Serve_load.result) ~budget_s =
  let m = Tally.metric report in
  m "session.exec_us_p50" "us"
    (1e6 *. Stats_acc.median r.Serve_load.session_exec_s);
  let fp_times = Stats_acc.create () and append_times = Stats_acc.create () in
  let handle_times = Stats_acc.create () in
  let jdir = Filename.concat dir "probe-journal" in
  Unix.mkdir jdir 0o755;
  let jdir2 = Filename.concat dir "probe-daemon-journal" in
  let daemon_cfg ~sock ~journal =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path (Filename.concat dir sock))
         ~scenarios:Adpm_scenarios.Registry.builtin)
      with
      Daemon.dc_resolve = Adpm_scenarios.Registry.resolve_result;
      dc_checkpoint_dir = dir;
      dc_journal_dir = Some journal;
    }
  in
  let d = Daemon.create (daemon_cfg ~sock:"probe.sock" ~journal:jdir2) in
  let t0 = Clock.now () in
  List.iteri
    (fun i (c : Serve_load.closed) ->
      if Clock.since t0 < budget_s then begin
        match
          Session.create ~resolve:Adpm_scenarios.Registry.resolve_result
            ~id:"probe" ~scenario:c.Serve_load.c_scenario ~mode:c.Serve_load.c_mode
            ~seed:c.Serve_load.c_seed ~designer:c.Serve_load.c_designer
        with
        | Error e -> Tally.check report false "probe session: %s" e
        | Ok s ->
          let sid = Printf.sprintf "p%d" i in
          let j =
            match
              Journal.create ~dir:jdir ~sid
                (Json.Obj (Session.header_fields ~marker:"teamsimd_journal" s))
            with
            | Ok j -> j
            | Error e -> failwith ("journal probe: " ^ e)
          in
          let opened =
            Daemon.handle d
              (request_json
                 (Wire.Open
                    {
                      scenario = c.Serve_load.c_scenario;
                      mode = c.Serve_load.c_mode;
                      seed = c.Serve_load.c_seed;
                      designer = c.Serve_load.c_designer;
                    }))
          in
          let dsid = Option.value (frame_str opened "session") ~default:"?" in
          List.iter
            (fun line ->
              let t1 = Clock.now () in
              let fp = Session.fingerprint s in
              Stats_acc.add fp_times (Clock.since t1);
              let entry = Json.Obj [ ("cmd", Json.Str line); ("fp", Json.Str fp) ] in
              let t1 = Clock.now () in
              let appended = Journal.append j entry in
              Stats_acc.add append_times (Clock.since t1);
              Tally.check report (appended = Ok ()) "journal append";
              ignore (Session.exec s line : (string, string) result);
              let req = request_json (Wire.Exec { session = dsid; line }) in
              let t1 = Clock.now () in
              let reply = Daemon.handle d req in
              Stats_acc.add handle_times (Clock.since t1);
              Tally.check report
                (Json.member "ok" reply = Some (Json.Bool true))
                "in-process exec %s" (Json.to_string reply))
            c.Serve_load.c_execs;
          let close = request_json (Wire.Close { session = dsid }) in
          ignore (Daemon.handle d close : Json.t);
          Journal.remove j
      end)
    r.Serve_load.closed;
  Daemon.stop d;
  let us acc q = 1e6 *. Stats_acc.quantile acc q in
  m "session.fingerprint_us" "us" (us fp_times 0.5);
  m "journal.append_us_p50" "us" (us append_times 0.5);
  m "journal.append_us_p99" "us" (us append_times 0.99);
  m "journal.fsyncs_per_exec" "count" r.Serve_load.fsyncs_per_exec;
  let handle_us = us handle_times 0.5 in
  m "daemon.handle_us_p50" "us" handle_us;
  m "daemon.loop_us_p50" "us" ((1000. *. r.Serve_load.exec_rpc_ms_p50) -. handle_us);
  m "wire.bytes_per_exec" "bytes" r.Serve_load.bytes_per_exec;
  (* recovery of the journals as the kill left them *)
  let t1 = Clock.now () in
  let d =
    Daemon.create
      (daemon_cfg ~sock:"recover.sock" ~journal:r.Serve_load.journal_copy)
  in
  let dt = Clock.since t1 in
  let commands =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Daemon.recovered_sessions d)
  in
  Daemon.stop d;
  Tally.check report
    (commands = r.Serve_load.recovery_commands)
    "in-process recovery replayed %d commands, the daemon %d" commands
    r.Serve_load.recovery_commands;
  m "recovery.commands" "count" (float_of_int commands);
  m "recovery.us_per_command" "us" (dt *. 1e6 /. float_of_int (max 1 commands))
