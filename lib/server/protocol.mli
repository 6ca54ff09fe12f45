(** The wire protocol of [cspc serve].

    Frames are newline-delimited JSON objects, one request and one
    response per line.  A request names an [op] ([ping], [parse],
    [graph], [refine], [prove], [fuzz], [save], [load], [stats],
    [shutdown]) with op-specific parameters; a response echoes the
    request [id] and either carries the job's [output] text (exactly
    the bytes the one-shot [cspc] subcommand would print) or an
    [error] with a machine-readable [kind].

    The reader is bounded: a connection can never make the server
    buffer more than [max_frame] bytes — an oversized frame is
    reported as such and the connection dropped, so a misbehaving
    client cannot grow server memory without limit. *)

type error_kind =
  | Bad_request  (** missing/ill-typed parameters, unknown op or oracle *)
  | Parse_error  (** the submitted [.csp] source did not parse *)
  | Budget_exceeded  (** requested fuel above the server's per-request caps *)
  | Frame_too_large
  | Malformed_frame  (** the frame is not a JSON object *)
  | Internal

val kind_string : error_kind -> string

(** Per-request fuel caps; requests asking for more are answered with
    a graceful [budget-exceeded] error instead of unbounded work. *)
type limits = {
  max_frame : int;  (** request frame bytes (default 4 MiB) *)
  max_states : int;  (** exploration/compile state budget (default 200k) *)
  max_depth : int;  (** trace depth bound (default 40) *)
  max_cases : int;  (** fuzz cases per request (default 20k) *)
  max_sources : int;
      (** cached source contexts; the least recently used is evicted
          when a new source would exceed this (default 64) *)
}

val default_limits : limits

(** {1 Framing} *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader

val read_frame :
  reader -> [ `Frame of string | `Partial | `Eof | `Too_large ]
(** Next newline-terminated frame, without the newline.  On a
    non-blocking socket that holds no complete frame yet, [`Partial]:
    the bytes read so far stay buffered for the next call, and a frame
    costs time linear in its size however many pieces it arrives in.
    Buffered bytes never exceed [max_frame] plus one 64 KiB read; on
    [`Too_large] the connection must be dropped (the frame boundary
    is lost). *)

val buffered_frame : reader -> bool
(** Whether a complete frame is already buffered, so the next
    {!read_frame} will return without touching the socket.  The
    server does not watch such a connection for its peer closing
    while the connection's job is paused. *)

val write_frame : Unix.file_descr -> Csp_persist.Json.t -> unit
(** Write the value as one frame ({!Csp_persist.Json.to_line}), blocking
    until the socket has taken all of it.  The client side of
    {!request}; the server writes through a per-connection output
    buffer instead.  Raises [Unix.Unix_error] ([EPIPE]/[ECONNRESET])
    if the peer vanished. *)

(** {1 Client} *)

type conn

val connect : string -> (conn, string) result
(** Connect to the server socket.  [Error] carries the [Unix] error
    string (server not running, stale socket, …). *)

val request : conn -> Csp_persist.Json.t -> (Csp_persist.Json.t, string) result
(** One request frame out, one response frame in.  [Error] on
    disconnect, oversized response or a response that is not valid
    JSON. *)

val close : conn -> unit

(** {1 Responses} *)

val error_response :
  ?id:Csp_persist.Json.t -> error_kind -> string -> Csp_persist.Json.t

val ok_response :
  id:Csp_persist.Json.t ->
  op:string ->
  ?output:string ->
  ?exit_code:int ->
  ?stats:(string * int) list ->
  ?extra:(string * Csp_persist.Json.t) list ->
  elapsed_ms:float ->
  unit ->
  Csp_persist.Json.t
(** [output]/[exit_code] mirror the one-shot CLI's stdout and exit
    status; [stats] (present when the request asked for it) is the
    per-request {!Csp_obs.Obs.delta_snapshot} counter diff; [extra]
    appends op-specific fields (cache hits, snapshot paths, …). *)

(** A reply's [output]: the text, or a writer that appends the text
    through the escape it is given, as {!Csp.Dot.write} does, so a
    [graph] reply's DOT goes into the frame without being built on
    its own. *)
type output =
  | Text of string
  | Written of (escape:(string -> string) -> Buffer.t -> unit)

val write_ok :
  Buffer.t ->
  id:Csp_persist.Json.t ->
  op:string ->
  output:output ->
  exit_code:int ->
  ?stats:(string * int) list ->
  elapsed_ms:(unit -> float) ->
  unit ->
  unit
(** Appends the frame {!ok_response} prints for a job's reply (without
    its newline): the same fields in the same order, and byte for byte
    [Json.to_string (ok_response ~output:text …)] where [text] is the
    output's text.  [id], [ok] and [op] are written first; a
    [Written] output is then written inside the [output] string
    through {!Csp_persist.Json.escape}.  [elapsed_ms] is called once
    the output is written, so the reply's time includes its
    escaping. *)
