(* The teamsim CLI: cmdliner renders the top-level page and every
   subcommand's [--help=plain] without a complaint on stderr, the
   documented plan examples keep their '@' through the markup, and
   [replay] reads teamsimd checkpoints. The binary is a dependency of the
   test stanza, built next to this one. *)

let exe = "../bin/teamsim.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [exe args] with stdout and stderr captured in temp files. *)
let run args =
  let out = Filename.temp_file "teamsim_help" ".out" in
  let err = Filename.temp_file "teamsim_help" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = open_w out and err_fd = open_w err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (status, stdout, stderr)

(* Subcommand names listed in the COMMANDS section of the top-level help:
   each entry starts at a 7-space indent, its description deeper. *)
let subcommands help =
  let lines = String.split_on_char '\n' help in
  let rec skip_to_commands = function
    | [] -> []
    | l :: rest -> if String.equal l "COMMANDS" then rest else skip_to_commands rest
  in
  let rec collect acc = function
    | [] -> List.rev acc
    | l :: _ when l <> "" && l.[0] <> ' ' -> List.rev acc (* next section *)
    | l :: rest ->
      if String.length l > 7 && String.sub l 0 7 = "       " && l.[7] >= 'a' && l.[7] <= 'z'
      then
        let word = List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7))) in
        collect (word :: acc) rest
      else collect acc rest
  in
  collect [] (skip_to_commands lines)

let check_clean label (status, stdout, stderr) =
  Alcotest.(check string) (label ^ ": nothing on stderr") "" stderr;
  Alcotest.(check bool) (label ^ ": exit 0") true (status = Unix.WEXITED 0);
  Alcotest.(check bool) (label ^ ": a help page on stdout") true (stdout <> "");
  stdout

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_help_pages_clean () =
  let top = check_clean "teamsim --help" (run [ "--help=plain" ]) in
  let subs = subcommands top in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "COMMANDS lists %s" expected)
        true (List.mem expected subs))
    [ "run"; "sweep"; "check"; "serve" ];
  List.iter
    (fun sub ->
      ignore (check_clean ("teamsim " ^ sub ^ " --help") (run [ sub; "--help=plain" ])))
    subs

let test_plan_examples_render () =
  List.iter
    (fun (sub, examples) ->
      let page = check_clean ("teamsim " ^ sub ^ " --help") (run [ sub; "--help=plain" ]) in
      List.iter
        (fun example ->
          Alcotest.(check bool)
            (Printf.sprintf "%s --help shows %s" sub example)
            true (contains page example))
        examples)
    [
      ("run", [ "alice@12+5;bob@30+10"; "p_budget>=140@30;gmin0>=9.5@60" ]);
      ("sweep", [ "alice@12+5;bob@30+10" ]);
    ]

(* A teamsimd checkpoint is a replay input: [teamsim replay] rebuilds the
   session through the gated replay, regenerates its trace and checks it
   converges. A tampered fingerprint must fail the gate. *)
let test_replay_checkpoint () =
  let module Json = Adpm_trace.Json in
  let open Adpm_serve in
  let tmp suffix =
    let f = Filename.temp_file "teamsim_ckpt" suffix in
    Sys.remove f;
    f
  in
  let sock = tmp ".sock" and ckpt = tmp ".jsonl" and tampered = tmp ".jsonl" in
  let d =
    Daemon.create
      (Daemon.default_config ~addr:(Daemon.Unix_path sock)
         ~scenarios:Adpm_scenarios.Registry.builtin)
  in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let req fields =
        let frame = Daemon.handle d (Json.Obj fields) in
        if Json.member "ok" frame <> Some (Json.Bool true) then
          Alcotest.failf "daemon refused: %s" (Json.to_string frame);
        frame
      in
      let opened =
        req
          [
            ("op", Json.Str "open"); ("scenario", Json.Str "lna");
            ("mode", Json.Str "adpm"); ("seed", Json.Num 2.);
            ("designer", Json.Str "circuit");
          ]
      in
      let sid = Option.get (Json.member "session" opened) in
      List.iter
        (fun line ->
          ignore
            (req [ ("op", Json.Str "exec"); ("session", sid); ("line", Json.Str line) ]))
        [ "auto"; "step"; "auto"; "suggest"; "auto" ];
      ignore
        (req
           [ ("op", Json.Str "checkpoint"); ("session", sid); ("path", Json.Str ckpt) ]));
  let status, stdout, _ = run [ "replay"; ckpt ] in
  Alcotest.(check bool) "replay of a checkpoint exits 0" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "replay reports convergence" true
    (contains stdout "converged");
  let header =
    match Json.parse (String.trim (read_file ckpt)) with
    | Ok (Json.Obj fields) ->
      Json.Obj
        (List.map
           (function
             | "fingerprint", _ -> ("fingerprint", Json.Str "ops=999 tampered")
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "checkpoint header does not parse"
  in
  Out_channel.with_open_text tampered (fun oc ->
      output_string oc (Json.to_string header ^ "\n"));
  let status, _, stderr = run [ "replay"; tampered ] in
  Alcotest.(check bool) "tampered checkpoint exits nonzero" true
    (status <> Unix.WEXITED 0);
  Alcotest.(check bool) "the error names the fingerprint" true
    (contains stderr "fingerprint" || contains stderr "recorded");
  List.iter Sys.remove [ ckpt; tampered ]

let suite =
  [
    ("every --help page is clean", `Quick, test_help_pages_clean);
    ("plan examples keep their @", `Quick, test_plan_examples_render);
    ("replay reads a teamsimd checkpoint", `Quick, test_replay_checkpoint);
  ]
