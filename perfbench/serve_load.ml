(* The serve layers under load: a real [teamsim serve --journal-dir]
   subprocess driven from this one process through at most nproc
   pipelined, nonblocking connections, in three phases:

   - open loop: one request due every 1/rate seconds, handed round-robin
     to the next session without a request in flight, timed from when it
     was due;
   - closed loop: every session sends its next request as soon as the
     previous one is answered (saturation);
   - recovery: SIGKILL, restart on the same journal directory, and a
     status of every session that was open at the kill.

   Each session opens (scenario and mode from the mix), runs a seeded
   script of [exec auto], [exec step] (journaled writes) and [status]
   (reads), reads a final status and closes; a fresh seed replaces it.
   Checks: every reply is ok, a closed session's final fingerprint
   equals an in-process [Session] replay of its exec lines, a recovered
   session's fingerprint equals its pre-kill one. *)

open Adpm_serve
module Json = Adpm_trace.Json
module Dpm = Adpm_core.Dpm
module Stats_acc = Adpm_util.Stats_acc

type cfg = {
  exe : string;  (** the teamsim binary *)
  dir : string;  (** scratch directory for socket, journal, logs *)
  spec : Spec.serve;
  mix : (string * Dpm.mode) list;  (** session scenarios, round-robin *)
  rate_per_s : float;  (** open-loop requests per second *)
  open_s : float;
  closed_s : float;
  seed : int;
}

(* {2 Daemon process} *)

let live_pids : int list ref = ref []

let reap pid =
  live_pids := List.filter (( <> ) pid) !live_pids;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* No daemon outlives the bench, whatever way it exits. *)
let () = at_exit (fun () -> List.iter kill !live_pids)

let sock cfg = Filename.concat cfg.dir "d.sock"
let journal_dir cfg = Filename.concat cfg.dir "journal"
let log_path cfg = Filename.concat cfg.dir "daemon.log"

let spawn cfg =
  (try Sys.remove (sock cfg) with Sys_error _ -> ());
  let out =
    Unix.openfile (log_path cfg)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cfg.exe
      [|
        cfg.exe; "serve"; "--socket"; sock cfg; "--journal-dir"; journal_dir cfg;
        "--checkpoint-dir"; cfg.dir; "--max-sessions";
        string_of_int (4 * cfg.spec.Spec.sessions);
      |]
      devnull out out
  in
  Unix.close out;
  Unix.close devnull;
  live_pids := pid :: !live_pids;
  pid

(* Connect and get [hello] answered; raises after 30 s. *)
let await_ready cfg =
  let deadline = Clock.now () +. 30. in
  let rec loop () =
    match Client.connect (Unix.ADDR_UNIX (sock cfg)) with
    | c -> (
      match Client.rpc ~timeout:30. c Wire.Hello with
      | r when r.Wire.r_ok -> c
      | _ -> failwith "daemon answered hello with an error"
      | exception (Client.Closed | Unix.Unix_error _) ->
        Client.close c;
        retry ())
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if Clock.now () > deadline then failwith "daemon never came up";
    Unix.sleepf 0.002;
    loop ()
  in
  loop ()

let shutdown pid c =
  (match Client.rpc ~timeout:30. c Wire.Shutdown with
  | _ -> ()
  | exception (Client.Closed | Client.Timeout | Unix.Unix_error _) -> ());
  Client.close c;
  reap pid

(* {2 Pipelined connections} *)

type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  out : Buffer.t;
  mutable out_off : int;
}

let connect cfg =
  let c = Client.connect (Unix.ADDR_UNIX (sock cfg)) in
  let fd = Client.fd c in
  Unix.set_nonblock fd;
  { fd; reader = Wire.Reader.create (); out = Buffer.create 65536; out_off = 0 }

let pending_out c = Buffer.length c.out - c.out_off

let flush c =
  let n = pending_out c in
  if n > 0 then begin
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off n with
    | w ->
      c.out_off <- c.out_off + w;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  end

(* {2 Sessions} *)

type cmd = Auto | Step | Read

type state = Need_open | Running | Final | Closing

type sess = {
  conn : conn;
  mutable scenario : string;
  mutable mode : Dpm.mode;
  mutable seed : int;
  mutable designer : string;
  mutable sid : string option;
  mutable script : cmd list;
  mutable execs : string list;  (** exec lines sent, newest first *)
  mutable state : state;
  mutable busy : bool;
  mutable final_fp : string option;
}

type closed = {
  c_scenario : string;
  c_mode : Dpm.mode;
  c_seed : int;
  c_designer : string;
  c_execs : string list;  (** oldest first *)
  c_fp : string option;
}

type kind = K_open | K_exec | K_status | K_final | K_close

type pending = {
  p_sess : sess;
  p_kind : kind;
  p_due : float;
  p_sent : float;
  p_bytes : int;
}

type phase_stats = {
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
  mutable in_slo : int;
  mutable exec_ok : int;
}

let phase_stats () = { sent = 0; ok = 0; failed = 0; in_slo = 0; exec_ok = 0 }

type t = {
  cfg : cfg;
  report : Tally.t;
  conns : conn array;
  mutable sessions : sess array;
  designers : (string, string array) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_id : int;
  mutable incarnation : int;
  mutable closed : closed list;
  mutable stats : phase_stats;
  (* open-loop samples, seconds *)
  exec_lat : Stats_acc.t;  (** from due time *)
  exec_rpc : Stats_acc.t;  (** from send time *)
  status_lat : Stats_acc.t;
  open_lat : Stats_acc.t;
  late : Stats_acc.t;
  mutable exec_bytes : int;
  mutable exec_count : int;
  mutable recording : bool;  (** open loop: keep latency samples *)
  mutable rr : int;  (** round-robin pointer over session slots *)
}

let designers_of t scenario =
  match Hashtbl.find_opt t.designers scenario with
  | Some d -> d
  | None ->
    let sc = Sweep.resolve scenario in
    let dpm = sc.Adpm_teamsim.Scenario.sc_build ~mode:Dpm.Conventional in
    let d = Array.of_list (Dpm.designers dpm) in
    Hashtbl.replace t.designers scenario d;
    d

(* A script of 1 .. 2L-1 commands (mean L): uneven lengths keep the
   sessions' open/close points spread out instead of in lockstep. *)
let draw_script t rng =
  let s = t.cfg.spec in
  let total = s.Spec.w_auto + s.Spec.w_step + s.Spec.w_status in
  let len = 1 + Random.State.int rng ((2 * s.Spec.commands_per_session) - 1) in
  List.init len (fun _ ->
      let x = Random.State.int rng total in
      if x < s.Spec.w_auto then Auto
      else if x < s.Spec.w_auto + s.Spec.w_step then Step
      else Read)

(* Give the session slot a fresh incarnation: next mix entry, next seed. *)
let renew t s =
  let k = t.incarnation in
  t.incarnation <- k + 1;
  let scenario, mode = List.nth t.cfg.mix (k mod List.length t.cfg.mix) in
  let seed = (abs t.cfg.seed * 100_003) + k in
  let designers = designers_of t scenario in
  s.scenario <- scenario;
  s.mode <- mode;
  s.seed <- seed;
  s.designer <- designers.(k mod Array.length designers);
  s.sid <- None;
  s.script <- draw_script t (Random.State.make [| seed |]);
  s.execs <- [];
  s.state <- Need_open;
  s.final_fp <- None

let create cfg report =
  let nconns =
    max 1 (min cfg.spec.Spec.max_connections (Domain.recommended_domain_count ()))
  in
  let conns = Array.init nconns (fun _ -> connect cfg) in
  let t =
    {
      cfg;
      report;
      conns;
      sessions = [||];
      designers = Hashtbl.create 8;
      pending = Hashtbl.create 64;
      next_id = 0;
      incarnation = 0;
      closed = [];
      stats = phase_stats ();
      exec_lat = Stats_acc.create ();
      exec_rpc = Stats_acc.create ();
      status_lat = Stats_acc.create ();
      open_lat = Stats_acc.create ();
      late = Stats_acc.create ();
      exec_bytes = 0;
      exec_count = 0;
      recording = false;
      rr = 0;
    }
  in
  t.sessions <-
    Array.init cfg.spec.Spec.sessions (fun i ->
        let s =
          {
            conn = conns.(i mod nconns);
            scenario = "";
            mode = Dpm.Adpm;
            seed = 0;
            designer = "";
            sid = None;
            script = [];
            execs = [];
            state = Need_open;
            busy = false;
            final_fp = None;
          }
        in
        renew t s;
        s);
  t

let send t s ~due =
  let sid () = Option.get s.sid in
  let kind, req =
    match s.state with
    | Need_open ->
      ( K_open,
        Wire.Open
          {
            scenario = s.scenario;
            mode = s.mode;
            seed = s.seed;
            designer = s.designer;
          } )
    | Running -> (
      match s.script with
      | [] ->
        s.state <- Final;
        (K_final, Wire.Status { session = sid () })
      | c :: rest -> (
        s.script <- rest;
        match c with
        | Read -> (K_status, Wire.Status { session = sid () })
        | Auto | Step ->
          let line = if c = Auto then "auto" else "step" in
          s.execs <- line :: s.execs;
          (K_exec, Wire.Exec { session = sid (); line })))
    | Final ->
      s.state <- Closing;
      (K_close, Wire.Close { session = sid () })
    | Closing -> assert false
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let frame =
    Json.to_string (Wire.request_to_json ~id:(Json.Num (float_of_int id)) req)
  in
  Buffer.add_string s.conn.out frame;
  Buffer.add_char s.conn.out '\n';
  let now = Clock.now () in
  Hashtbl.replace t.pending id
    {
      p_sess = s;
      p_kind = kind;
      p_due = due;
      p_sent = now;
      p_bytes = String.length frame + 1;
    };
  s.busy <- true;
  t.stats.sent <- t.stats.sent + 1;
  if t.recording then Stats_acc.add t.late (now -. due);
  flush s.conn

let on_response t line =
  let now = Clock.now () in
  match Wire.response_of_line line with
  | Error e -> Tally.check t.report false "unparseable reply %s: %s" line e
  | Ok r -> (
    match Option.bind r.Wire.r_id Json.to_int with
    | None -> Tally.check t.report false "reply without id: %s" line
    | Some id -> (
      match Hashtbl.find_opt t.pending id with
      | None -> Tally.check t.report false "reply to unknown id %d" id
      | Some p ->
        Hashtbl.remove t.pending id;
        let s = p.p_sess in
        s.busy <- false;
        let ok = r.Wire.r_ok in
        Tally.check t.report ok "request %d (%s %s seed %d) answered %s" id
          s.scenario (Sweep.label s.mode) s.seed line;
        let st = t.stats in
        if ok then begin
          st.ok <- st.ok + 1;
          if (now -. p.p_due) *. 1000. <= t.cfg.spec.Spec.latency_limit_ms then
            st.in_slo <- st.in_slo + 1
        end
        else st.failed <- st.failed + 1;
        let lat = now -. p.p_due in
        (match p.p_kind with
        | K_open ->
          if t.recording then Stats_acc.add t.open_lat lat;
          s.sid <- Client.body_str r "session";
          s.state <- (if s.sid = None then Need_open else Running)
        | K_exec ->
          if ok then st.exec_ok <- st.exec_ok + 1;
          if t.recording then begin
            Stats_acc.add t.exec_lat lat;
            Stats_acc.add t.exec_rpc (now -. p.p_sent);
            t.exec_bytes <- t.exec_bytes + p.p_bytes + String.length line + 1;
            t.exec_count <- t.exec_count + 1
          end
        | K_status -> if t.recording then Stats_acc.add t.status_lat lat
        | K_final -> s.final_fp <- Client.body_str r "fingerprint"
        | K_close ->
          t.closed <-
            {
              c_scenario = s.scenario;
              c_mode = s.mode;
              c_seed = s.seed;
              c_designer = s.designer;
              c_execs = List.rev s.execs;
              c_fp = s.final_fp;
            }
            :: t.closed;
          renew t s)))

let buf = Bytes.create 65536

(* Wait up to [timeout] for socket activity; read and dispatch every
   complete reply; flush pending output. *)
let poll t ~timeout =
  let reads = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let writes =
    Array.to_list t.conns
    |> List.filter (fun c -> pending_out c > 0)
    |> List.map (fun c -> c.fd)
  in
  let readable, writable, _ =
    try Unix.select reads writes [] (Float.max 0. timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  Array.iter
    (fun c ->
      if List.memq c.fd writable then flush c;
      if List.memq c.fd readable then begin
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "daemon closed a connection"
        | n ->
          Wire.Reader.feed c.reader (Bytes.sub_string buf 0 n);
          let rec frames () =
            match Wire.Reader.next c.reader with
            | `Frame line ->
              on_response t line;
              frames ()
            | `Oversize -> failwith "oversize reply"
            | `Pending -> ()
          in
          frames ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
      end)
    t.conns

let drain t =
  let deadline = Clock.now () +. 60. in
  while Hashtbl.length t.pending > 0 do
    if Clock.now () > deadline then failwith "daemon stopped answering";
    poll t ~timeout:0.05
  done

(* The next session slot, round-robin, without a request in flight. *)
let idle_session t =
  let n = Array.length t.sessions in
  let rec find k =
    if k = n then None
    else
      let s = t.sessions.((t.rr + k) mod n) in
      if s.busy then find (k + 1)
      else begin
        t.rr <- (t.rr + k + 1) mod n;
        Some s
      end
  in
  find 0

let report_phase name st seconds =
  Printf.eprintf
    "perfbench: %s phase: %d sent, %d ok, %d failed in %.2fs (%.0f requests/s, \
     %.0f execs/s)\n%!"
    name st.sent st.ok st.failed seconds
    (float_of_int st.ok /. seconds)
    (float_of_int st.exec_ok /. seconds)

(* Open every session before the measured phases start. *)
let warm_up t =
  Array.iter (fun s -> send t s ~due:(Clock.now ())) t.sessions;
  drain t

let open_loop t =
  let interval = 1. /. t.cfg.rate_per_s in
  t.stats <- phase_stats ();
  t.recording <- true;
  let t0 = Clock.now () in
  let stop = t0 +. t.cfg.open_s in
  let next_due = ref t0 in
  let rec send_due () =
    let now = Clock.now () in
    if !next_due <= now && !next_due < stop then
      match idle_session t with
      | Some s ->
        send t s ~due:!next_due;
        next_due := !next_due +. interval;
        send_due ()
      | None -> ()
  in
  while Clock.now () < stop do
    send_due ();
    poll t ~timeout:(Float.min 0.005 (!next_due -. Clock.now ()))
  done;
  drain t;
  t.recording <- false;
  let st = t.stats in
  report_phase "open-loop" st (Clock.since t0);
  st

let closed_loop t =
  t.stats <- phase_stats ();
  let t0 = Clock.now () in
  let stop = t0 +. t.cfg.closed_s in
  while Clock.now () < stop do
    Array.iter
      (fun s -> if not s.busy then send t s ~due:(Clock.now ()))
      t.sessions;
    poll t ~timeout:0.005
  done;
  let elapsed = Clock.since t0 in
  let st = t.stats in
  let execs = st.exec_ok in
  drain t;
  report_phase "closed-loop" st elapsed;
  float_of_int execs /. elapsed

(* Fingerprint of every session open on the daemon, by session id. *)
let fingerprints t c =
  Array.to_list t.sessions
  |> List.filter_map (fun s ->
         match s.sid with
         | None -> None
         | Some sid ->
           let r = Client.rpc ~timeout:30. c (Wire.Status { session = sid }) in
           Tally.check t.report r.Wire.r_ok "status of %s answered %s" sid
             (Json.to_string r.Wire.r_body);
           Some (sid, Client.body_str r "fingerprint"))

(* Replay each closed session's exec lines in process and compare the
   fingerprints; returns the per-exec [Session.exec] times (seconds). *)
let verify_closed t =
  let times = Stats_acc.create () in
  List.iter
    (fun c ->
      match
        Session.create ~resolve:Adpm_scenarios.Registry.resolve_result ~id:"replay"
          ~scenario:c.c_scenario ~mode:c.c_mode ~seed:c.c_seed ~designer:c.c_designer
      with
      | Error e -> Tally.check t.report false "replay of %s: %s" c.c_scenario e
      | Ok s ->
        List.iter
          (fun line ->
            let t0 = Clock.now () in
            ignore (Session.exec s line : (string, string) result);
            Stats_acc.add times (Clock.since t0))
          c.c_execs;
        Tally.check t.report
          (c.c_fp = Some (Session.fingerprint s))
          "closed session %s %s seed %d: daemon %s, replay %s" c.c_scenario
          (Sweep.label c.c_mode) c.c_seed
          (Option.value c.c_fp ~default:"none")
          (Session.fingerprint s))
    (List.rev t.closed);
  times

let recovered_commands cfg =
  In_channel.with_open_text (log_path cfg) In_channel.input_lines
  |> List.fold_left
       (fun acc line ->
         match
           Scanf.sscanf line "teamsimd: recovered session %s@(%d commands)"
             (fun _ n -> n)
         with
         | n -> acc + n
         | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
       0

(* {2 Whole workload} *)

type result = {
  exec_ops_per_s : float;
  exec_ms_p50 : float;
  exec_ms_p99 : float;
  exec_rpc_ms_p50 : float;
  status_ms_p99 : float;
  open_ms_p50 : float;
  slo_share : float;
  late_ms_p99 : float;
  recovery_s : float;
  recovery_commands : int;
  fsyncs_per_exec : float;
  bytes_per_exec : float;
  session_exec_s : Stats_acc.t;
  closed : closed list;  (** oldest first *)
  journal_copy : string;  (** the journal directory as the kill left it *)
}

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun n ->
      let s = Filename.concat src n in
      if not (Sys.is_directory s) then
        let text = In_channel.with_open_bin s In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst n) (fun oc ->
            output_string oc text))
    (Sys.readdir src)

let ms x = 1000. *. x

let run cfg report =
  rm_rf cfg.dir;
  Unix.mkdir cfg.dir 0o755;
  let pid = spawn cfg in
  Client.close (await_ready cfg);
  let t = create cfg report in
  warm_up t;
  let st_open = open_loop t in
  let exec_ops_per_s = closed_loop t in
  (* recovery: fingerprints, kill, restart, fingerprints again *)
  Array.iter (fun c -> Unix.close c.fd) t.conns;
  let ctl = Client.connect (Unix.ADDR_UNIX (sock cfg)) in
  let before = fingerprints t ctl in
  Client.close ctl;
  kill pid;
  let journal_copy = Filename.concat cfg.dir "journal-at-kill" in
  copy_dir (journal_dir cfg) journal_copy;
  let scanned, _ = Journal.scan ~dir:journal_copy in
  let entries =
    List.fold_left (fun acc s -> acc + List.length s.Journal.sc_entries) 0 scanned
  in
  let execs =
    Array.fold_left
      (fun acc s -> if s.sid = None then acc else acc + List.length s.execs)
      0 t.sessions
  in
  let t0 = Clock.now () in
  let pid2 = spawn cfg in
  let ctl2 = await_ready cfg in
  let after = fingerprints t ctl2 in
  let recovery_s = Clock.since t0 in
  List.iter
    (fun (sid, fp) ->
      Tally.check report
        (fp <> None && List.assoc_opt sid after = Some fp)
        "recovered session %s fingerprint" sid)
    before;
  shutdown pid2 ctl2;
  let recovery_commands = recovered_commands cfg in
  let session_exec_s = verify_closed t in
  let q acc p = ms (Stats_acc.quantile acc p) in
  let late_ms_p99 = q t.late 0.99 in
  if late_ms_p99 > cfg.spec.Spec.late_limit_ms then
    Tally.invalid report "open-loop generator ran %.2f ms late at p99 (limit %.2f ms)"
      late_ms_p99 cfg.spec.Spec.late_limit_ms;
  {
    exec_ops_per_s;
    exec_ms_p50 = q t.exec_lat 0.5;
    exec_ms_p99 = q t.exec_lat 0.99;
    exec_rpc_ms_p50 = q t.exec_rpc 0.5;
    status_ms_p99 = q t.status_lat 0.99;
    open_ms_p50 = q t.open_lat 0.5;
    slo_share = float_of_int st_open.in_slo /. float_of_int (max 1 st_open.sent);
    late_ms_p99;
    recovery_s;
    recovery_commands;
    fsyncs_per_exec = float_of_int entries /. float_of_int (max 1 execs);
    bytes_per_exec = float_of_int t.exec_bytes /. float_of_int (max 1 t.exec_count);
    session_exec_s;
    closed = List.rev t.closed;
    journal_copy;
  }
