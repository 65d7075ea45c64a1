(* The teamsim CLI's help pages: cmdliner renders the top-level page and
   every subcommand's [--help=plain] without a complaint on stderr, and
   the documented plan examples keep their '@' through the markup. The
   binary is a dependency of the test stanza, built next to this one. *)

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

let suite =
  [
    ("every --help page is clean", `Quick, test_help_pages_clean);
    ("plan examples keep their @", `Quick, test_plan_examples_render);
  ]
