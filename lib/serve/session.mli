(** One daemon-resident interactive session.

    Wraps {!Adpm_teamsim.Interactive} with the bookkeeping the daemon
    needs: a command log and checkpoint/resume. Sessions run untraced.

    The state of a session is its command log folded over a fresh engine,
    so the log is the whole persistent state. A checkpoint is a write-ahead
    journal compacted to its header line (see {!journal_header}):
    scenario/mode/seed/designer, the command log and the state
    fingerprint. {!resume} reads checkpoints and live journals alike, and
    daemon crash recovery and [resume] rebuild sessions through the one
    fingerprint-gated {!replay}. [teamsim replay] re-executes such a file
    with a collecting tracer to regenerate the session's event trace. *)

open Adpm_core
open Adpm_teamsim
module Json = Adpm_trace.Json

type t

val create :
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  scenario:string ->
  mode:Dpm.mode ->
  seed:int ->
  designer:string ->
  (t, string) result
(** [Error] for an unresolvable scenario or unknown designer; never
    raises. [resolve] is the daemon's injected scenario resolver
    (typically {!Adpm_scenarios.Registry.resolve_result}). *)

val interactive : t -> Interactive.t

val command_count : t -> int
(** How many lines {!exec} has been given, rejected ones included. O(1). *)

val exec : t -> string -> (string, string) result
(** Run one command line (logged for resume). Exceptions other than the
    [Invalid_argument]s {!Interactive.execute} absorbs do propagate —
    the daemon treats them as a wedged session and tears it down. *)

val prompt : t -> string
val finished : t -> bool

val fingerprint : t -> string
(** Compact state digest (op/eval/spin counters, solved flag, sorted
    violation ids) used to verify resume fidelity. *)

val fingerprint_of_interactive : Interactive.t -> string
(** The same digest computed for a bare {!Interactive} session, so
    harnesses can compare a daemon session against a local reference run
    without a [Session.t] in hand. *)

val status_fields : t -> (string * Json.t) list
(** The [status] response body. *)

val header_fields : marker:string -> t -> (string * Json.t) list
(** The journal header object's fields: [marker] (a format tag,
    ["teamsimd_journal"]), scenario/mode/seed/designer, the full command
    log, and the current state fingerprint. *)

val journal_marker : string
(** ["teamsimd_journal"]: the header key that marks a journal or a
    checkpoint. *)

val journal_header : ?extras:(string * Json.t) list -> t -> Json.t
(** The ["teamsimd_journal"] header line of this session: {!header_fields}
    plus the session id, then [extras]. A journal starts with it, a
    compaction rewrites it, and a checkpoint is nothing else. *)

val checkpoint : t -> path:string -> (unit, string) result
(** Write {!journal_header} to [path] with {!Journal.write_file} (O_TRUNC,
    fsync'd); [Error io_message] on failure, which leaves [path] in place.
    The live session is untouched and can be checkpointed again later. *)

type resume_error =
  | Rs_io of string  (** file unreadable *)
  | Rs_corrupt of string
      (** bad header or entry, damaged lines, a legacy
          trace-bearing checkpoint, or a command that raised *)
  | Rs_mismatch of string  (** rebuilt state contradicts a fingerprint *)

val error_message : resume_error -> string

(** Parsed journal header. *)
type header = {
  h_scenario : string;
  h_mode : Dpm.mode;
  h_seed : int;
  h_designer : string;
  h_commands : string list;
  h_fingerprint : string;
}

val header_of_json : Json.t -> (header, string) result
(** Parse a journal header object (the ["teamsimd_journal"] marker is
    required). *)

val replay :
  ?tracer:Adpm_trace.Tracer.t ->
  ?on_entry:(t -> Json.t -> (string, string) result -> unit) ->
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  header ->
  Json.t list ->
  (t * int * resume_error option, resume_error) result
(** The one replay of a journal, shared by {!resume} and the daemon's
    crash recovery. Create a fresh session (on [tracer], default
    untraced), re-issue the header's command log and require the header
    fingerprint, else [Error]. Then run the tail entries in order: an
    entry runs only if its ["fp"] equals the current fingerprint, and
    [on_entry] sees each one executed with its result. The first entry
    without a ["cmd"], with a diverging fingerprint, or whose command
    raises stops the tail. [Ok (session, commands_replayed, stop)] keeps
    the consistent prefix; [stop] says why the tail stopped, if it did. *)

val resume :
  ?tracer:Adpm_trace.Tracer.t ->
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  string ->
  (t * int, resume_error) result
(** Rebuild a live session from a checkpoint or journal file with
    {!replay}, strictly: a damaged trailing line or a stopped tail is an
    error, not a prefix. A legacy trace-bearing checkpoint is refused as
    [Rs_corrupt] with a message naming its format.
    [Ok (session, commands_replayed)]. *)
