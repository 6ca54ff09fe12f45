(** A fixed-size pool of OCaml 5 domains for fork-join parallelism.

    Built on the stdlib only ([Domain], [Atomic], [Mutex],
    [Condition]).  A pool of [domains = n] executes batches with [n]
    workers: [n - 1] spawned domains plus the submitting domain, which
    always participates — so [create ~domains:1] spawns nothing and
    every operation degenerates to the sequential loop, making the
    1-domain pool a zero-cost way to share one code path between the
    sequential and parallel engines.

    Batches are fork-join barriers: a call to {!parallel_map} (or
    {!map_chunks}, {!run}) returns only once every task of the batch
    has finished, and results are delivered in input order regardless
    of which domain executed which task.  Tasks of one batch are
    claimed dynamically (an atomic cursor over the task array), so
    uneven task costs balance themselves; there is no preemption or
    work stealing between batches.

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

val map_chunks : t -> ?chunk_size:int -> ('a array -> 'b) -> 'a array -> 'b array
(** Chunked fork-join: split [xs] into contiguous chunks of at most
    [chunk_size] elements (default: [length / (4 * domains)], at least
    1), apply [f] to each chunk as one task, and return the per-chunk
    results in chunk order.  Use when per-element work is small or when
    each task wants chunk-local state (e.g. a domain-local cache view
    merged at the join). *)

val run : t -> (unit -> 'a) list -> 'a list
(** Fork-join over explicit thunks, results in input order. *)

(** {1 Parallel-phase hooks}

    Subsystems with domain-local cache overlays (e.g. the closure
    kernel's memo arenas) register an [enter]/[exit] pair; the pool
    brackets every multi-domain parallel phase with them.  [enter]
    runs on the submitting domain before any worker touches a task;
    [exit] runs after every worker of the phase is quiescent (so the
    exit hook may merge domain-local state without further
    synchronisation).  Phases never nest; single-domain pools and
    single-task batches run no hooks. *)

val register_phase_hooks : enter:(unit -> unit) -> exit:(unit -> unit) -> unit

(** {1 Work-stealing deques}

    Per-worker double-ended queues in the Chase–Lev layout — owner
    pushes/pops newest-first at the bottom, thieves take the oldest
    half from the top.  Structural operations take a per-deque mutex
    (not the full lock-free protocol); an atomic size mirror lets
    thieves scan for victims without locking.  Exposed for unit
    testing; exploration goes through the stealing sessions below. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t

  val size : 'a t -> int
  (** Published size; exact for the owner, a racy hint for thieves. *)

  val push : 'a t -> 'a -> unit
  (** Owner end: append as the newest item. *)

  val pop : 'a t -> 'a option
  (** Owner end: remove the newest item. *)

  val steal_half : 'a t -> 'a list
  (** Thief end: remove the oldest ⌈size/2⌉ items, oldest first.
      Never holds more than the victim's lock, so a steal may run
      concurrently with the victim's own [push]/[pop] and with steals
      from other deques. *)
end

(** {1 Work-stealing sessions}

    A session turns the pool's spawned workers into a frontier
    scheduler: each worker owns a deque, runs [f ~worker ~push item]
    on its own newest item first, steals half of the nearest
    non-empty deque when it runs dry, and parks when the whole
    session looks empty.  [push] makes new work visible to the whole
    session (it may be processed by any worker, including the
    pusher).

    While a session is open the pool must not run batches
    ({!parallel_map} and friends) — the spawned workers are occupied
    by the session's driver loops.  The caller coordinates from its
    own domain and closes the session with {!stealing_stop}. *)

type 'a stealing

val stealing_start :
  t -> (worker:int -> push:('a -> unit) -> 'a -> unit) -> 'a stealing
(** Open a session on the pool, starting one driver loop per spawned
    worker ([domains - 1] of them; a 1-domain pool starts none).
    [worker] ranges over [0 .. domains - 2]; deque [domains - 1] is
    the caller's seeding slot.  The session is speculative: exceptions
    in [f] are swallowed (the coordinator is expected to re-derive
    authoritatively). *)

val stealing_push : 'a stealing -> 'a -> unit
(** Seed work from the caller, distributed round-robin over all
    deques. *)

val stealing_stop : 'a stealing -> unit
(** Stop the session (idempotent): signal every driver and wait for
    the spawned workers to leave their loops.  Items still queued are
    discarded. *)

(** {1 Statistics}

    Global counters, summed over every pool since program start;
    aggregated into [Engine.stats]. *)

type stats = {
  pools : int;        (** pools created *)
  workers : int;      (** worker domains spawned (excludes callers) *)
  batches : int;      (** fork-join barriers executed *)
  tasks : int;        (** tasks claimed and run, across all batches *)
  caller_tasks : int; (** of those, tasks run by the submitting domain *)
  lock_waits : int;   (** contended pool/deque-mutex acquisitions *)
  steals : int;       (** successful [Deque.steal_half] operations *)
  stolen : int;       (** items moved between deques by those steals *)
  stealing_tasks : int;  (** items processed by stealing sessions *)
}

val stats : unit -> stats
