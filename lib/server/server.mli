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
    head-of-line block behind an open socket.  With [jobs = 1] ready
    frames are served inline by the poller; with [jobs > 1] they are
    pushed onto a {!Csp_parallel.Pool} session's shared stack and
    served, newest first, by the pool's worker domains.  Jobs on one source context
    serialise on that context's lock (the engine caches are
    single-writer); jobs on different sources run concurrently.

    Persistence: [save]/[load] requests (and [--warm FILE] at start)
    snapshot and replay the warm state through
    {!Csp_persist.Snapshot} — sources are re-parsed, automata
    re-compiled, certificates re-admitted — so a restarted server
    answers its first request at warm-cache speed with answers
    byte-identical to a cold run. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains serving connections (default 1) *)
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
    that connection. *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** {!create} followed by {!serve}. *)
