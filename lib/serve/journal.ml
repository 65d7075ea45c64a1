module Json = Adpm_trace.Json

(* {2 Lockfile} *)

type lock = { lk_path : string; mutable lk_held : bool }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: exists, not ours *)

(* O_EXCL creation with the owner's pid inside, so a lock left behind by
   a SIGKILLed daemon is detected as stale (its pid is gone) and broken,
   while a second daemon pointed at a live daemon's directory refuses.
   fcntl-style locks are useless here: they do not conflict within one
   process, and tests host two daemons in one process. *)
let acquire ~dir =
  ensure_dir dir;
  let path = Filename.concat dir "teamsimd.lock" in
  let try_create () =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd ->
      let line = string_of_int (Unix.getpid ()) ^ "\n" in
      let _ = Unix.write_substring fd line 0 (String.length line) in
      Unix.close fd;
      true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  let owner () =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> int_of_string_opt (String.trim s)
    | exception Sys_error _ -> None
  in
  let rec go attempts =
    if try_create () then Ok { lk_path = path; lk_held = true }
    else
      match owner () with
      | Some pid when pid_alive pid ->
        Error
          (Printf.sprintf
             "journal dir %s is locked by a running daemon (pid %d)" dir pid)
      | _ when attempts > 0 ->
        (* stale (dead pid or unreadable): break it and retry *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        go (attempts - 1)
      | _ -> Error (Printf.sprintf "cannot break stale lock %s" path)
  in
  match go 2 with
  | v -> v
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot lock journal dir %s: %s" dir
         (Unix.error_message err))

let release lock =
  if lock.lk_held then begin
    lock.lk_held <- false;
    try Unix.unlink lock.lk_path with Unix.Unix_error _ -> ()
  end

(* {2 Per-session journals} *)

let suffix = ".journal.jsonl"
let path ~dir ~sid = Filename.concat dir (sid ^ suffix)

type t = { j_path : string; mutable j_fd : Unix.file_descr option }

let fd_error fn err =
  Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

(* Durability contract: every line is written and fsync'd before the
   command it records is executed, so a crash at any instant loses at
   most the in-flight (unexecuted, unanswered) command. *)
let write_line fd line =
  let s = line ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Unix.fsync fd

(* The one way a file gets a header line: open [p] truncated, write and
   fsync [header], close. A failure leaves [p] where it is: the callers
   decide what to unlink, and a checkpoint to a device (say /dev/full)
   must never unlink or replace it. *)
let write_file p header =
  match Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
  | exception Unix.Unix_error (err, fn, _) -> fd_error fn err
  | fd -> (
    match
      write_line fd (Json.to_string header);
      Unix.close fd
    with
    | () -> Ok ()
    | exception Unix.Unix_error (err, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fd_error fn err)

let open_append p =
  match Unix.openfile p [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
  | fd -> Ok { j_path = p; j_fd = Some fd }
  | exception Unix.Unix_error (err, fn, _) -> fd_error fn err

let create ~dir ~sid header =
  ensure_dir dir;
  let p = path ~dir ~sid in
  match write_file p header with
  | Ok () -> open_append p
  | Error _ as e ->
    (try Unix.unlink p with Unix.Unix_error _ -> ());
    e

let append t entry =
  match t.j_fd with
  | None -> Error (Printf.sprintf "journal %s is closed" t.j_path)
  | Some fd -> (
    match write_line fd (Json.to_string entry) with
    | () -> Ok ()
    | exception Unix.Unix_error (err, fn, _) ->
      (* a failing journal is dead: further appends must not pretend *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.j_fd <- None;
      fd_error fn err)

let close t =
  match t.j_fd with
  | None -> ()
  | Some fd ->
    t.j_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Compaction: replace the whole journal with a fresh header (which
   carries the full command log and current fingerprint) via
   write-to-temp + atomic rename, so a crash mid-compaction leaves either
   the old journal or the new one, never a torn file. *)
let rewrite t header =
  let tmp = t.j_path ^ ".tmp" in
  match
    Result.bind (write_file tmp header) (fun () ->
        match Unix.rename tmp t.j_path with
        | () -> Ok ()
        | exception Unix.Unix_error (err, fn, _) -> fd_error fn err)
  with
  | Error _ as e ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    e
  | Ok () -> (
    close t;
    match open_append t.j_path with
    | Ok fresh ->
      t.j_fd <- fresh.j_fd;
      Ok ()
    | Error _ as e -> e)

let remove t =
  close t;
  try Unix.unlink t.j_path with Unix.Unix_error _ -> ()

(* Reopen a scanned journal for appending (recovery path). *)
let reopen ~dir ~sid = open_append (path ~dir ~sid)

(* {2 Startup scan} *)

type scanned = {
  sc_sid : string;
  sc_path : string;
  sc_header : Json.t;
  sc_entries : Json.t list;
  sc_dropped : int;  (** trailing lines dropped: truncated or unparseable *)
}

let quarantine p =
  let dst = p ^ ".corrupt" in
  (try Unix.unlink dst with Unix.Unix_error _ -> ());
  try Unix.rename p dst with Unix.Unix_error _ -> (
    try Unix.unlink p with Unix.Unix_error _ -> ())

(* Split raw contents into complete lines; a final unterminated fragment
   is a torn append from a crash and is never a record. *)
let complete_lines contents =
  let n = String.length contents in
  let rec go acc start =
    if start >= n then (List.rev acc, 0)
    else
      match String.index_from_opt contents start '\n' with
      | Some i -> go (String.sub contents start (i - start) :: acc) (i + 1)
      | None -> (List.rev acc, 1)
  in
  go [] 0

let read p =
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error msg -> Error (`Io msg)
  | contents -> (
    let lines, torn = complete_lines contents in
    match lines with
    | [] -> Error (`Corrupt (Printf.sprintf "%s: empty journal" p))
    | header_line :: entry_lines -> (
      match Json.parse header_line with
      | Error msg -> Error (`Corrupt (Printf.sprintf "%s: bad header: %s" p msg))
      | Ok header ->
        (* parse entries up to the first corrupt line; everything after a
           corrupt record is untrustworthy and dropped with it *)
        let rec take acc = function
          | [] -> (List.rev acc, 0)
          | "" :: rest -> take acc rest
          | line :: rest -> (
            match Json.parse line with
            | Ok j -> take (j :: acc) rest
            | Error _ -> (List.rev acc, List.length rest + 1))
        in
        let entries, bad = take [] entry_lines in
        Ok (header, entries, bad + torn)))

let scan ~dir =
  let names =
    match Sys.readdir dir with
    | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n > String.length suffix
             && Filename.check_suffix n suffix)
      |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.fold_left
    (fun (ok, warnings) name ->
      let p = Filename.concat dir name in
      let sc_sid = Filename.chop_suffix name suffix in
      match read p with
      | Ok (sc_header, sc_entries, sc_dropped) ->
        ({ sc_sid; sc_path = p; sc_header; sc_entries; sc_dropped } :: ok, warnings)
      | Error err ->
        (* an unreadable journal must never wedge startup: set it aside
           and keep recovering the others *)
        let msg =
          match err with `Io m -> Printf.sprintf "%s: %s" p m | `Corrupt m -> m
        in
        quarantine p;
        (ok, (msg ^ " (quarantined)") :: warnings))
    ([], []) names
  |> fun (ok, warnings) -> (List.rev ok, List.rev warnings)
