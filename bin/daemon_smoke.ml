(* teamsimd end-to-end smoke, run from @check:

     spawn daemon -> hello -> open -> exec ops -> checkpoint
       -> teamsim replay <checkpoint> (exit 0)
       -> SIGKILL the daemon -> spawn a fresh daemon -> resume
       -> verify the resumed state matches the checkpoint fingerprint
       -> resume of a legacy trace-bearing checkpoint -> bad_checkpoint
       -> hostile-input probes (garbage, unknown op, bad shape, oversize)
       -> shutdown (clean daemon exit)

   Also replays the same command script through an in-process
   Interactive session and requires byte-identical operation reports:
   the socket must not change semantics. *)

open Adpm_serve
module Json = Adpm_trace.Json

let exe =
  if Array.length Sys.argv < 2 then (
    prerr_endline "usage: daemon_smoke TEAMSIM_EXE";
    exit 2)
  else Sys.argv.(1)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "daemon-smoke FAIL: %s\n" name
  end

let tmpdir =
  let base = Filename.temp_file "teamsimd_smoke" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let sock = Filename.concat tmpdir "teamsimd.sock"
let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn () =
  Unix.create_process exe
    [| exe; "serve"; "--socket"; sock; "--checkpoint-dir"; tmpdir |]
    devnull devnull Unix.stderr

let wait_for_socket () =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    match Client.connect (Unix.ADDR_UNIX sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then (
        prerr_endline "daemon-smoke FAIL: daemon never came up";
        exit 1);
      Unix.sleepf 0.05;
      loop ()
  in
  loop ()

let expect_ok name (resp : Wire.response) =
  check (name ^ " ok")
    (resp.Wire.r_ok
    ||
    (Printf.eprintf "  %s answered: %s\n" name (Json.to_string resp.Wire.r_body);
     false));
  resp

let expect_err name code (resp : Wire.response) =
  check
    (Printf.sprintf "%s yields %s" name code)
    ((not resp.Wire.r_ok) && resp.Wire.r_code = Some code)

let script = [ "auto"; "auto"; "step"; "auto"; "suggest"; "auto" ]

let () =
  let pid = spawn () in
  let c = wait_for_socket () in
  let hello = expect_ok "hello" (Client.rpc c Wire.Hello) in
  check "hello names teamsimd" (Client.body_str hello "server" = Some "teamsimd");

  let opened =
    expect_ok "open"
      (Client.rpc c
         (Wire.Open
            {
              scenario = "simple";
              mode = Adpm_core.Dpm.Adpm;
              seed = 3;
              designer = "alice";
            }))
  in
  let sid = Option.value ~default:"?" (Client.body_str opened "session") in

  (* same commands through the in-process Interactive loop: the reports
     must match the daemon's byte for byte *)
  let reference =
    Adpm_teamsim.Interactive.create ~mode:Adpm_core.Dpm.Adpm ~seed:3
      Adpm_scenarios.Simple.scenario ~designer:"alice"
  in
  List.iter
    (fun line ->
      let resp =
        expect_ok ("exec " ^ line)
          (Client.rpc c (Wire.Exec { session = sid; line }))
      in
      let daemon_out = Client.body_str resp "output" in
      let local_out =
        match Adpm_teamsim.Interactive.execute reference line with
        | Ok s -> Some s
        | Error _ -> None
      in
      check
        (Printf.sprintf "exec %s matches CLI loop" line)
        (daemon_out = local_out))
    script;

  let status = expect_ok "status" (Client.rpc c (Wire.Status { session = sid })) in
  let ops_before = Client.body_int status "operations" in
  let evals_before = Client.body_int status "evaluations" in

  let ckpt =
    expect_ok "checkpoint"
      (Client.rpc c (Wire.Checkpoint { session = sid; path = None }))
  in
  let ckpt_path = Option.value ~default:"?" (Client.body_str ckpt "path") in
  let fingerprint = Client.body_str ckpt "fingerprint" in
  check "checkpoint reports a fingerprint" (fingerprint <> None);

  (* the checkpoint is a replay input: the CLI rebuilds the session from
     it, regenerates its trace and must see it converge *)
  let replay_pid =
    Unix.create_process exe [| exe; "replay"; ckpt_path |] devnull devnull
      Unix.stderr
  in
  check "teamsim replay <checkpoint> exits 0"
    (snd (Unix.waitpid [] replay_pid) = Unix.WEXITED 0);

  (* hard-kill the daemon: sessions must survive via the artifact *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Client.close c;

  let pid2 = spawn () in
  let c2 = wait_for_socket () in
  let resumed =
    expect_ok "resume" (Client.rpc c2 (Wire.Resume { path = ckpt_path }))
  in
  let sid2 = Option.value ~default:"?" (Client.body_str resumed "session") in
  check "resume restores the fingerprint"
    (Client.body_str resumed "fingerprint" = fingerprint);
  let status2 =
    expect_ok "status after resume" (Client.rpc c2 (Wire.Status { session = sid2 }))
  in
  check "op count survives the restart"
    (Client.body_int status2 "operations" = ops_before);
  check "evaluation count survives the restart"
    (Client.body_int status2 "evaluations" = evals_before);
  ignore
    (expect_ok "exec after resume"
       (Client.rpc c2 (Wire.Exec { session = sid2; line = "status" })));

  (* a trace-bearing checkpoint from before checkpoints became compacted
     journals is refused, not misread *)
  let legacy_path = Filename.concat tmpdir "legacy.checkpoint.jsonl" in
  Out_channel.with_open_text legacy_path (fun oc ->
      output_string oc
        "{\"teamsimd_checkpoint\":1,\"scenario\":\"simple\",\"mode\":\"ADPM\",\
         \"seed\":3,\"designer\":\"alice\",\"commands\":[],\
         \"fingerprint\":\"ops=0 evals=0 spins=0 solved=false violations=[]\"}\n\
         {\"seq\":0,\"clock\":0,\"type\":\"run_started\",\"scenario\":\"simple\",\
         \"mode\":\"ADPM\",\"seed\":3,\"engine\":\"incremental\"}\n");
  expect_err "resume of a legacy checkpoint" "bad_checkpoint"
    (Client.rpc c2 (Wire.Resume { path = legacy_path }));

  (* hostile input: each probe must yield a structured error frame and
     leave the daemon serving *)
  Client.send c2 (Json.Str "ignored");
  Wire.write_all (Client.fd c2) "this is not json\n";
  (* the Str frame parses but is not an object; the next is not JSON *)
  expect_err "non-object frame" "bad_request" (Client.next_response c2);
  expect_err "garbage frame" "parse" (Client.next_response c2);
  Client.send c2 (Json.Obj [ ("op", Json.Str "frobnicate") ]);
  expect_err "unknown op" "bad_request" (Client.next_response c2);
  Client.send c2 (Json.Obj [ ("op", Json.Str "exec"); ("session", Json.Num 7.) ]);
  expect_err "mistyped field" "bad_request" (Client.next_response c2);
  expect_err "unknown session" "unknown_session"
    (Client.rpc c2 (Wire.Exec { session = "s999"; line = "status" }));

  (* oversize frame on a throwaway connection (it gets dropped) *)
  let c3 = wait_for_socket () in
  Wire.write_all (Client.fd c3) (String.make (Wire.default_max_frame + 2) 'x');
  Wire.write_all (Client.fd c3) "\n";
  expect_err "oversize frame" "oversize" (Client.next_response c3);
  Client.close c3;

  ignore (expect_ok "hello still served" (Client.rpc c2 Wire.Hello));
  ignore (expect_ok "shutdown" (Client.rpc c2 Wire.Shutdown));
  let _, exit_status = Unix.waitpid [] pid2 in
  check "daemon exits cleanly on shutdown" (exit_status = Unix.WEXITED 0);
  Client.close c2;

  (try Sys.remove ckpt_path with Sys_error _ -> ());
  (try Sys.remove legacy_path with Sys_error _ -> ());
  (try Sys.remove sock with Sys_error _ -> ());
  (try Unix.rmdir tmpdir with Unix.Unix_error _ -> ());
  if !failures > 0 then (
    Printf.eprintf "daemon-smoke: %d failure(s)\n" !failures;
    exit 1)
  else print_endline "daemon-smoke OK"
