(** The [cspc serve] daemon: a long-lived, cache-warm verification
    service on a Unix-domain socket.

    One process holds every warm structure the one-shot CLI rebuilds
    per invocation — the sharded intern tables, the closure and
    denotational memos, the per-source {!Csp.Engine}s with their
    compiled successor automata, and the proved-sequent cache — and
    answers [parse]/[graph]/[refine]/[prove]/[fuzz] requests framed
    as newline-delimited JSON ({!Protocol}).  Job outputs are byte
    for byte the one-shot CLI's stdout.

    Concurrency: one loop on one domain serves every connection.  It
    multiplexes the listening socket and the connections through
    [select] and never commits to one client's read or write before
    that client is ready.  Connections are non-blocking: a frame
    still arriving waits in its reader ({!Protocol.read_frame}
    answers [`Partial]), and a reply the socket does not take at once
    waits in the connection's output buffer until [select] reports
    the socket writable.  A connection's next frame is not read until
    its reply is written, so replies leave in request order and at
    most one waits per connection.  A client that sent half a frame,
    or does not read its reply, holds up nobody else.

    Replies are written once.  Each reply frame is printed straight
    into its connection's output buffer: [id], [ok] and [op], then the
    [output] string (a [graph]'s DOT is rendered into it JSON-escaped,
    {!Csp.Dot.write} with {!Csp_persist.Json.escape}, so neither the
    DOT text nor its escaped copy is built on its own), then [exit],
    [elapsed_ms] and [stats].  The socket is written from that buffer
    at an offset, through one 64 KiB chunk the loop owns.  The bytes
    are those of [Json.to_line (Protocol.ok_response …)].  A job that
    raises after its frame has begun leaves none of it: the buffer is
    cut back to the frame's start and the [internal] error frame is
    written instead.  Retention: the buffer is reused across the
    connection's replies and freed with the connection.  It is
    cleared, not shrunk, once a reply is written, so a connection
    keeps the capacity its largest reply needed (its initial 4 KiB,
    or less than twice that reply's size) until it closes.

    Every job runs as cooperative slices ({!Csp_parallel.Coop}), so a
    batch job does not stall interactive clients.  A job may pause at
    every 16th row of a walk (compile, replay, counter quotient) and
    between fuzz cases, once it has run for the quantum, a constant of
    1 ms.  Each [select] round serves the connections it reported
    first, then resumes the oldest paused job for one slice; [select]
    does not wait while a job is paused.
    - A job that needs a source context a paused job holds waits for
      it, pausing on every failed attempt ({!Csp_parallel.Coop.lock}):
      the engine caches are single-writer.
    - A ["stats": true] request runs alone and unsliced, after every
      paused job has finished, so its counter deltas are its own.
    - A paused job whose client closed its connection is cancelled
      (its finalisers release the context), and so is every paused
      job at [shutdown]; the [serve.cancelled] counter counts both.
      A connection with pipelined requests is not watched until its
      job ends.

    Slicing has three visible side effects.  A reply's [elapsed_ms]
    stays the wall time from dispatch to reply, pauses included; it is
    read once the output is in the frame, so it includes the output's
    rendering and escaping.  A [stats:true] reply's counters cover the
    job up to its output's rendering, which counts nothing.  A
    [fuzz] with a [budget] spends part of it on other jobs' slices.
    Spans recorded by interleaved jobs overlap in time; each job's
    spans keep the depths they have when it runs alone.

    Persistence: [save]/[load] requests (and [--warm FILE] at start)
    snapshot and replay the warm state through
    {!Csp_persist.Snapshot} — sources are re-parsed, automata
    re-compiled, certificates re-admitted — so a restarted server
    answers its first request at warm-cache speed with answers
    byte-identical to a cold run. *)

type config = {
  socket_path : string;
  limits : Protocol.limits;
  warm : string option;  (** snapshot to load before accepting *)
}

val config :
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
    newline), printed by the socket loop's frame writer into a fresh
    buffer.  Exposed for in-process use: the differential, frame and
    persistence tests drive the full protocol through this without a
    socket. *)

val handle_into : t -> Buffer.t -> string -> unit
(** {!handle_line} appending the response frame to a buffer the caller
    keeps, as the socket loop appends it to a connection's output
    buffer: a reused buffer with room for the reply takes it without
    growing. *)

val source_count : t -> int
(** Cached source contexts (for tests and the [stats] op). *)

val compiled_total : t -> int
(** Compiled automata across every cached engine. *)

val serve : ?ready:(unit -> unit) -> t -> config -> unit
(** Bind the socket and serve until a [shutdown] request arrives.
    [ready] fires once the socket is listening (used by tests and the
    bench to synchronise with a server running in another domain).
    Individual client disconnects — including mid-request — only drop
    that connection (and cancel its paused job). *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** {!create} followed by {!serve}. *)
