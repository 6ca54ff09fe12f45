(** A minimal JSON tree, parser and printer (stdlib only).

    This is the wire format of [cspc serve] (one request or response
    object per line) and the payload syntax of the on-disk cache
    {!Snapshot}.  The parser is total over untrusted input — it
    returns [Error] with a byte offset instead of raising — and the
    printer emits compact single-line output with no unescaped
    control characters, so a printed object is always a valid frame
    for the newline-delimited protocol. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error).  Numbers are read as floats; strings decode
    the standard escapes including [\uXXXX] (surrogate pairs
    included) to UTF-8.  A string's runs of unescaped bytes are copied
    whole, so a large [output] or [source] string costs one copy, not
    one buffer append per byte. *)

val to_string : t -> string
(** Compact single-line rendering.  Integral numbers print without a
    decimal point; non-finite floats print as [null]. *)

val to_line : t -> string
(** [to_string v] followed by its newline, built in the same buffer:
    one frame of the newline-delimited protocol, with no copy made to
    append the terminator. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends [to_string v]'s bytes; {!to_string} and {!to_line} print
    through it. *)

val escape : string -> string
(** The bytes [s] has between a printed string's quotes: ['"'], ['\\']
    and control bytes escaped, every other byte as it is, so
    [escape (a ^ b) = escape a ^ escape b].  [s] itself when no byte
    needs an escape.  This is the JSON sink of [Dot.write]. *)

val int : int -> t
val str : string -> t

(** {1 Accessors} — shape-checking helpers returning [option]. *)

val member : string -> t -> t option
(** Field of an object ([None] on other constructors too). *)

val to_str : t -> string option
val to_int : t -> int option
(** Accepts only numbers with integral value. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
