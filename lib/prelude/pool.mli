(** Deterministic fixed-size domain pool ([Taskpool]).

    All parallelism in the code base goes through this module (enforced by
    the [domain-spawn] lint rule): a pool owns [domains - 1] worker domains
    plus the submitting domain, and executes statically chunked index ranges
    with ordered result collection. The determinism contract:

    - Results are a pure function of the task index: chunk assignment to
      domains is dynamic (work claiming), but task [i] always writes result
      slot [i], so [parallel_init pool n f] equals [Array.init n f] for
      every pool size — including a 1-domain pool, which runs the tasks
      inline, in index order, with no worker machinery at all.
    - Per-task randomness must come from {!Rng.stream} keyed by the task
      index, never from shared state.
    - Exceptions: the first failing chunk (lowest chunk index among observed
      failures) is re-raised in the submitter after all started chunks have
      drained; chunks not yet claimed when the failure is recorded are
      cancelled.

    Pools do not nest: calling [parallel_*] from inside a task fails fast
    with [Failure] rather than deadlocking on the exhausted pool. Code that
    may run both standalone and inside a task should consult {!in_worker}
    and take its sequential path. *)

type t

val create : domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains ([domains] is
    clamped to [\[1, 64\]]). A 1-domain pool spawns nothing and runs every
    job inline. *)

val domains : t -> int

val shutdown : t -> unit
(** Joins the worker domains. Idempotent; subsequent [parallel_*] calls on
    the pool raise [Failure]. *)

val in_worker : unit -> bool
(** True while the calling domain is executing a pool task (including the
    submitting domain, which participates in its own jobs). *)

val parallel_init : t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f], computed on the pool.
    [chunk] (default 1) groups that many consecutive indices into one unit
    of claiming — results are identical for every chunk size. *)

val parallel_map : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

val parallel_iteri : t -> ?chunk:int -> (int -> 'a -> unit) -> 'a array -> unit
(** Side-effecting tasks must write to disjoint, task-indexed locations. *)

val set_default_domains : int -> unit
(** Override the size of {!global}. If the global pool already exists with
    a different size it is shut down and re-created on the next {!global}. *)

val global : unit -> t
(** The process-wide shared pool, created lazily at the last
    {!set_default_domains} size, else [TQEC_DOMAINS] from the environment,
    else 1. Safe to call from any domain (callers inside a pool task get the
    pool but must not submit to it — see {!in_worker}). *)
