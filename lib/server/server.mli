(** The [cspc serve] daemon: a long-lived, cache-warm verification
    service on a Unix-domain socket.

    One process holds every warm structure the one-shot CLI rebuilds
    per invocation — the sharded intern tables, the closure and
    denotational memos, the per-source {!Csp.Engine}s with their
    compiled successor automata, and the proved-sequent cache — and
    answers [parse]/[graph]/[refine]/[prove]/[fuzz] requests framed
    as newline-delimited JSON ({!Protocol}).  Job outputs are byte
    for byte the one-shot CLI's stdout.

    Concurrency: the accepting domain multiplexes the listening
    socket and every idle connection through [select] and dispatches
    a connection only when a request frame is arriving, so idle
    connections occupy no worker and interleaved clients never
    head-of-line block behind an open socket.  With [jobs > 1] ready
    frames are pushed onto a {!Csp_parallel.Pool} session's shared
    stack and served, newest first, by the pool's worker domains,
    each job to completion.  Jobs on one source context serialise on
    that context's lock (the engine caches are single-writer); jobs on
    different sources run concurrently.

    With [jobs = 1] (the default) the poller runs every job as
    cooperative slices ({!Csp_parallel.Coop}), so a batch job no longer
    stalls interactive clients.  A job may pause at every 16th row of
    a walk (compile, replay, counter quotient) and between fuzz cases,
    once it has run for the quantum, a constant of 1 ms.  Each [select] round
    dispatches newly arrived frames first, then resumes the oldest
    paused job for one slice; [select] does not wait while a job is
    paused.
    - A job that needs a source context a paused job holds waits for
      it, pausing on every failed attempt ({!Csp_parallel.Coop.lock}).
    - A ["stats": true] request runs alone and unsliced, after every
      paused job has finished, so its counter deltas are its own.
    - A paused job whose client closed its connection is cancelled
      (its finalisers release the context), and so is every paused
      job at [shutdown]; the [serve.cancelled] counter counts both.
      A connection with pipelined requests is not watched until its
      job ends.

    Slicing has three visible side effects.  A reply's [elapsed_ms]
    stays the wall time from dispatch to reply, pauses included.  A
    [fuzz] with a [budget] spends part of it on other jobs' slices.
    Spans recorded by interleaved jobs overlap in time.

    Persistence: [save]/[load] requests (and [--warm FILE] at start)
    snapshot and replay the warm state through
    {!Csp_persist.Snapshot} — sources are re-parsed, automata
    re-compiled, certificates re-admitted — so a restarted server
    answers its first request at warm-cache speed with answers
    byte-identical to a cold run. *)

type config = {
  socket_path : string;
  jobs : int;
      (** worker domains serving connections (default 1: the poller
          itself, running jobs as slices) *)
  limits : Protocol.limits;
  warm : string option;  (** snapshot to load before accepting *)
}

val config :
  ?jobs:int ->
  ?limits:Protocol.limits ->
  ?warm:string ->
  string ->
  config

type t

val create : config -> (t, string) result
(** Build the server state and replay the warm snapshot if one was
    given.  [Error] when the snapshot is unreadable, corrupt or of
    the wrong version — a bad warm file refuses to start rather than
    silently serving cold. *)

val handle_line : t -> string -> string
(** One request frame in, one response frame out (no trailing
    newline).  Exposed for in-process use: the differential and
    persistence tests drive the full protocol through this without a
    socket. *)

val source_count : t -> int
(** Cached source contexts (for tests and the [stats] op). *)

val compiled_total : t -> int
(** Compiled automata across every cached engine. *)

val serve : ?ready:(unit -> unit) -> t -> config -> unit
(** Bind the socket and serve until a [shutdown] request arrives.
    [ready] fires once the socket is listening (used by tests and the
    bench to synchronise with a server running in another domain).
    Individual client disconnects — including mid-request — only drop
    that connection (and, at [jobs = 1], cancel its paused job). *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** {!create} followed by {!serve}. *)
