(** Write-ahead command journal for teamsimd sessions.

    One JSONL file per session under the daemon's [--journal-dir]:
    line 1 is a {!Session.header_fields} object (marker
    ["teamsimd_journal"]) describing the session at its last compaction,
    followed by one entry object per accepted mutating command since.
    Every line is fsync'd {e before} the command it records executes, so
    after a crash the journal is a complete prefix of the daemon's
    actual history: the only thing ever lost is a command that was never
    executed and never answered. A checkpoint is the same file compacted
    to its header line ({!write_file}); {!read} parses either.

    Tail corruption (a torn final line from a crash mid-append, or any
    unparseable record) is dropped at the last valid entry; a journal
    whose header itself is unreadable is renamed [*.corrupt] and
    reported as a warning — recovery never wedges startup.

    The directory is guarded by a pid lockfile so two daemons cannot
    interleave writes; a lock left by a SIGKILLed daemon is detected as
    stale (its pid is gone) and broken automatically. *)

module Json = Adpm_trace.Json

(** {2 Directory lock} *)

type lock

val acquire : dir:string -> (lock, string) result
(** Create [dir/teamsimd.lock] with O_EXCL, our pid inside. [Error] if a
    live daemon holds it; a stale lock (dead pid) is broken and retried
    once. *)

val release : lock -> unit
(** Unlink the lockfile. Idempotent. *)

(** {2 Per-session journal files} *)

type t

val write_file : string -> Json.t -> (unit, string) result
(** Open the path with O_TRUNC, write + fsync the header as its only
    line, close. On failure the path is neither unlinked nor renamed.
    This is the whole checkpoint writer, and the first step of {!create}
    and {!rewrite}. *)

val create : dir:string -> sid:string -> Json.t -> (t, string) result
(** Create (truncating any leftover) and write + fsync the header line. *)

val reopen : dir:string -> sid:string -> (t, string) result
(** Open an existing journal for appending (the recovery path, after
    {!scan}). *)

val append : t -> Json.t -> (unit, string) result
(** Write + fsync one entry line. On failure the journal is marked dead:
    later appends keep failing rather than silently losing durability. *)

val rewrite : t -> Json.t -> (unit, string) result
(** Compaction: atomically replace the whole file with a single fresh
    header line (write-to-temp + rename), then reopen for appending. A
    crash mid-compaction leaves either the old journal or the new one. *)

val close : t -> unit
val remove : t -> unit
(** [close] then unlink — for sessions that ended cleanly. *)

(** {2 Startup scan} *)

val quarantine : string -> unit
(** Rename a damaged journal to [<path>.corrupt] (best effort) so the
    next startup does not trip over it again. *)

val read :
  string ->
  (Json.t * Json.t list * int, [ `Io of string | `Corrupt of string ]) result
(** Parse one journal file of any name into (header, entries, dropped):
    [dropped] counts the trailing lines cut off, torn or unparseable,
    as in {!scan}. [`Io] when the file cannot be read, [`Corrupt] when it
    is empty or its header line is not JSON. Never raises. *)

type scanned = {
  sc_sid : string;
  sc_path : string;
  sc_header : Json.t;
  sc_entries : Json.t list;
  sc_dropped : int;  (** trailing lines dropped: truncated or unparseable *)
}

val scan : dir:string -> scanned list * string list
(** Parse every [*.journal.jsonl] in [dir] (sorted by name). Journals
    with an unreadable header are renamed [*.corrupt] and reported in
    the warning list; per-file tail damage is absorbed into
    [sc_dropped]. Never raises. *)
