open Adpm_core
open Adpm_teamsim
open Adpm_trace
module Json = Adpm_trace.Json

type t = {
  ss_id : string;
  ss_scenario : string;
  ss_mode : Dpm.mode;
  ss_seed : int;
  ss_designer : string;
  ss_session : Interactive.t;
  mutable ss_commands : string list;  (* newest first *)
  mutable ss_count : int;  (* List.length ss_commands *)
}

let interactive t = t.ss_session
let command_count t = t.ss_count

let make ~tracer ~resolve ~id ~scenario ~mode ~seed ~designer =
  match (resolve scenario : (Scenario.t, string) result) with
  | Error msg -> Error msg
  | Ok sc -> (
    match Interactive.create ~tracer ~mode ~seed sc ~designer with
    | session ->
      Ok
        {
          ss_id = id;
          ss_scenario = scenario;
          ss_mode = mode;
          ss_seed = seed;
          ss_designer = designer;
          ss_session = session;
          ss_commands = [];
          ss_count = 0;
        }
    | exception Invalid_argument msg -> Error msg)

let create ~resolve ~id ~scenario ~mode ~seed ~designer =
  make ~tracer:Tracer.null ~resolve ~id ~scenario ~mode ~seed ~designer

let exec t line =
  (* Log the line before running it: replay-on-resume must re-issue every
     command (including rejected ones) so the designer models' RNG and
     tabu state advance identically. *)
  t.ss_commands <- line :: t.ss_commands;
  t.ss_count <- t.ss_count + 1;
  Interactive.execute t.ss_session line

let prompt t = Interactive.prompt t.ss_session
let finished t = Interactive.finished t.ss_session

let fingerprint_of_interactive session =
  let dpm = Interactive.dpm session in
  Printf.sprintf "ops=%d evals=%d spins=%d solved=%b violations=[%s]"
    (Dpm.op_count dpm)
    (Interactive.attributed_evaluations session)
    (Dpm.spin_count dpm) (Dpm.solved dpm)
    (String.concat ","
       (List.map string_of_int
          (List.sort compare (Dpm.known_violations dpm))))

let fingerprint t = fingerprint_of_interactive t.ss_session

let status_fields t =
  let dpm = Interactive.dpm t.ss_session in
  [
    ("session", Json.Str t.ss_id);
    ("scenario", Json.Str t.ss_scenario);
    ("mode", Json.Str (Dpm.mode_to_string t.ss_mode));
    ("seed", Json.Num (float_of_int t.ss_seed));
    ("designer", Json.Str t.ss_designer);
    ("prompt", Json.Str (prompt t));
    ("finished", Json.Bool (finished t));
    ("fingerprint", Json.Str (fingerprint t));
    ("operations", Json.Num (float_of_int (Dpm.op_count dpm)));
    ( "evaluations",
      Json.Num (float_of_int (Interactive.attributed_evaluations t.ss_session))
    );
    ("spins", Json.Num (float_of_int (Dpm.spin_count dpm)));
    ( "violations",
      Json.Arr
        (List.map
           (fun cid -> Json.Num (float_of_int cid))
           (List.sort compare (Dpm.known_violations (Interactive.dpm t.ss_session))))
    );
    ("commands", Json.Num (float_of_int t.ss_count));
  ]

(* One header shape for the write-ahead journal and the checkpoint: a
   checkpoint is a journal compacted to its header line. *)
let header_fields ~marker t =
  [
    (marker, Json.Num 1.);
    ("scenario", Json.Str t.ss_scenario);
    ("mode", Json.Str (Dpm.mode_to_string t.ss_mode));
    ("seed", Json.Num (float_of_int t.ss_seed));
    ("designer", Json.Str t.ss_designer);
    ("commands", Json.Arr (List.rev_map (fun c -> Json.Str c) t.ss_commands));
    ("fingerprint", Json.Str (fingerprint t));
  ]

let journal_marker = "teamsimd_journal"

let journal_header ?(extras = []) t =
  Json.Obj
    (header_fields ~marker:journal_marker t
    @ (("session", Json.Str t.ss_id) :: extras))

let checkpoint t ~path = Journal.write_file path (journal_header t)

type resume_error =
  | Rs_io of string
  | Rs_corrupt of string
  | Rs_mismatch of string

type header = {
  h_scenario : string;
  h_mode : Dpm.mode;
  h_seed : int;
  h_designer : string;
  h_commands : string list;
  h_fingerprint : string;
}

let header_of_json meta =
  let ( let* ) = Result.bind in
  let* () =
    match meta with
    | Json.Obj _ when Json.member journal_marker meta <> None -> Ok ()
    | _ -> Error (Printf.sprintf "first line is not a %s header" journal_marker)
  in
  let meta_str name =
    match Option.bind (Json.member name meta) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "header lacks field %S" name)
  in
  let* h_scenario = meta_str "scenario" in
  let* mode_s = meta_str "mode" in
  let* h_mode =
    match Dpm.mode_of_string mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "bad mode %S in header" mode_s)
  in
  let* h_seed =
    match Option.bind (Json.member "seed" meta) Json.to_int with
    | Some n -> Ok n
    | None -> Error "header lacks field \"seed\""
  in
  let* h_designer = meta_str "designer" in
  let* h_fingerprint = meta_str "fingerprint" in
  let* h_commands =
    match Option.bind (Json.member "commands" meta) Json.to_list with
    | None -> Error "header lacks field \"commands\""
    | Some items ->
      let strs = List.filter_map Json.to_str items in
      if List.length strs <> List.length items then
        Error "non-string entry in header command log"
      else Ok strs
  in
  Ok { h_scenario; h_mode; h_seed; h_designer; h_commands; h_fingerprint }

let error_message = function Rs_io m | Rs_corrupt m | Rs_mismatch m -> m

(* Rebuild the session at the header (its command log re-issued against
   a fresh engine, so the designer models' RNG and tabu memory come back
   too), then run the tail: each entry must carry the fingerprint of the
   state it was appended over. The first entry that does not fit stops
   the tail, and the reason comes back with the consistent prefix. *)
let replay ?(tracer = Tracer.null) ?(on_entry = fun _ _ _ -> ()) ~resolve ~id
    header entries =
  match
    make ~tracer ~resolve ~id ~scenario:header.h_scenario ~mode:header.h_mode
      ~seed:header.h_seed ~designer:header.h_designer
  with
  | Error msg ->
    Error (Rs_corrupt (Printf.sprintf "cannot rebuild session: %s" msg))
  | Ok s -> (
    match List.iter (fun line -> ignore (exec s line)) header.h_commands with
    | exception e ->
      Error
        (Rs_corrupt
           (Printf.sprintf "command log replay raised %s" (Printexc.to_string e)))
    | () when not (String.equal (fingerprint s) header.h_fingerprint) ->
      Error
        (Rs_mismatch
           (Printf.sprintf "replayed %s but header recorded %s" (fingerprint s)
              header.h_fingerprint))
    | () ->
      let rec tail n = function
        | [] -> (n, None)
        | entry :: rest -> (
          match Option.bind (Json.member "cmd" entry) Json.to_str with
          | None -> (n, Some (Rs_corrupt "entry without \"cmd\""))
          | Some line -> (
            match Option.bind (Json.member "fp" entry) Json.to_str with
            | Some fp when not (String.equal fp (fingerprint s)) ->
              (n, Some (Rs_mismatch "entry fingerprint diverges from replay"))
            | _ -> (
              match exec s line with
              | result ->
                on_entry s entry result;
                tail (n + 1) rest
              | exception e ->
                ( n,
                  Some
                    (Rs_corrupt
                       (Printf.sprintf "replay of %S raised %s" line
                          (Printexc.to_string e))) ))))
      in
      let n, stop = tail (List.length header.h_commands) entries in
      Ok (s, n, stop))

(* Checkpoints written before they became compacted journals. *)
let legacy_marker = "teamsimd_checkpoint"

let resume ?tracer ~resolve ~id path =
  let ( let* ) = Result.bind in
  let* json, entries, dropped =
    match Journal.read path with
    | Ok contents -> Ok contents
    | Error (`Io msg) -> Error (Rs_io msg)
    | Error (`Corrupt msg) -> Error (Rs_corrupt msg)
  in
  let* header =
    if Json.member legacy_marker json <> None then
      Error
        (Rs_corrupt
           (Printf.sprintf
              "%s is a legacy %s file (trace-bearing checkpoint format), \
               which is no longer read"
              path legacy_marker))
    else Result.map_error (fun m -> Rs_corrupt m) (header_of_json json)
  in
  let* () =
    if dropped > 0 then
      Error (Rs_corrupt (Printf.sprintf "%d damaged trailing line(s)" dropped))
    else Ok ()
  in
  match replay ?tracer ~resolve ~id header entries with
  | Error _ as e -> e
  | Ok (_, _, Some stop) -> Error stop
  | Ok (s, n, None) -> Ok (s, n)
