(** Content-addressed artifact store: an in-memory table or an on-disk
    directory, never both.

    Entries are keyed by [(stage, key)] where [key] is a content hash over
    the stage's canonical input bytes, configuration and code-version tag
    (see {!Stage.cache_key}). The on-disk layout is
    [dir/<stage>/<key>.json], one canonical-JSON artifact per file, written
    atomically (temp file + rename) so a crashed writer never leaves a
    half-entry behind.

    A disk store keeps no copy of what it reads or writes: [Flow.run] looks
    up each stage key at most once per store, so a heap copy would only
    keep each artifact tree alive past the job that made it.

    Reads are forgiving: a missing, unreadable or unparseable entry behaves
    as a miss — the cache driver recomputes the stage and overwrites it —
    and a failed write degrades to "no cache". This is the only module in
    [lib/] allowed to write to the filesystem (enforced by the [fs-write]
    lint rule). *)

type t

val create : ?dir:string -> unit -> t
(** [create ()] is a process-local in-memory store. [create ~dir ()] is a
    store on [dir] alone (created on demand, along with per-stage
    subdirectories), so a later process — or a later {!create} on the same
    directory — starts warm. *)

val dir : t -> string option
(** The directory of a disk store; [None] for an in-memory one. *)

val find : t -> stage:string -> key:string -> Tqec_obs.Json.t option
(** An in-memory store answers from its table. A disk store reads and
    parses the entry's file on every call and returns the tree without
    keeping it; a missing, unreadable or unparseable file yields [None]. *)

val store : t -> stage:string -> key:string -> Tqec_obs.Json.t -> unit
(** An in-memory store keeps the tree. A disk store renders it and writes
    it atomically; if the write fails (disk full, I/O error, unwritable
    directory) no entry and no temp file are left and no descriptor leaks,
    so the entry reads as a miss. *)

val remove : t -> stage:string -> key:string -> unit
(** Drop an entry from the table, or delete its file (used to evict
    corrupted entries). *)

val entries : t -> int
(** Number of entries held in memory: always 0 for a disk store. *)
