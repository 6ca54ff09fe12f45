(** A fixed-size pool of OCaml 5 domains for fork-join parallelism.

    Built on the stdlib only ([Domain], [Atomic], [Mutex],
    [Condition]).  A pool of [domains = n] executes batches with [n]
    workers: [n - 1] spawned domains plus the submitting domain, which
    always participates — so [create ~domains:1] spawns nothing and
    every operation degenerates to the sequential loop, making the
    1-domain pool a zero-cost way to share one code path between the
    sequential and parallel engines.

    Batches are fork-join barriers: a call to {!parallel_map} returns
    only once every task of the batch has finished, and results are
    delivered in input order regardless of which domain executed which
    task.  Tasks of one batch are
    claimed dynamically (an atomic cursor over the task indices), so
    uneven task costs balance themselves; there is no preemption
    between batches.  A {e session} instead keeps the spawned workers
    on one shared stack of work items until the caller stops it.

    Pools are quiescent between batches: idle workers block on a
    condition variable and consume no CPU.  A pool holds its domains
    until {!shutdown} (registered with [at_exit] as a safety net, so a
    forgotten pool never prevents process exit).

    One batch runs at a time per pool; batches must be submitted from
    a single domain at a time (the typical owner is the engine that
    created the pool).  Tasks must not themselves submit batches to
    the same pool. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [max 0 (domains - 1)] worker domains.
    [domains] is clamped below at 1.  The caller's domain is the
    remaining worker: it executes tasks while waiting for the join. *)

val domains : t -> int
(** The worker count [n] the pool was created with (including the
    submitting domain), after clamping. *)

val shutdown : t -> unit
(** Join every worker domain.  Idempotent; the pool must not be used
    afterwards.  Called automatically at process exit for pools that
    were never shut down explicitly. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] applies [f] to every element, one task
    per element, and returns the results in input order.  If any task
    raises, the batch still runs to completion and the exception of
    the lowest-indexed failing task is re-raised in the caller. *)

(** {1 Sessions}

    A session turns the pool's spawned workers into a scheduler
    around one shared stack: each worker waits until the
    stack is non-empty, pops the newest item and runs
    [f ~worker ~push item].  [push] (like {!session_push}) makes new
    work visible to every worker, the pusher included.

    While a session is open the pool must not run batches
    ({!parallel_map}) — the spawned workers are occupied by the
    session's driver loops.  The caller coordinates from its own
    domain and closes the session with {!session_stop}. *)

type 'a session

val session_start :
  t -> (worker:int -> push:('a -> unit) -> 'a -> unit) -> 'a session
(** Open a session on the pool, starting one driver loop per spawned
    worker ([domains - 1] of them; a 1-domain pool starts none).
    [worker] ranges over [0 .. domains - 2] and names the driver, so
    [f] may keep per-driver state.  The session is speculative:
    exceptions in [f] are swallowed (the coordinator is expected to
    re-derive authoritatively). *)

val session_push : 'a session -> 'a -> unit
(** Push work from the caller onto the shared stack. *)

val session_stop : 'a session -> unit
(** Stop the session (idempotent): signal every driver and wait for
    the spawned workers to leave their loops.  Items still queued are
    discarded. *)

(** {1 Statistics}

    Global counters, summed over every pool since program start;
    exported as the [pool.*] snapshot keys. *)

type stats = {
  pools : int;        (** pools created *)
  workers : int;      (** worker domains spawned (excludes callers) *)
  batches : int;      (** fork-join barriers executed *)
  tasks : int;        (** tasks claimed and run, across all batches *)
  caller_tasks : int; (** of those, tasks run by the submitting domain *)
  lock_waits : int;   (** contended pool/session-mutex acquisitions *)
  session_tasks : int;  (** items processed by sessions *)
}

val stats : unit -> stats
