module Json = Csp_persist.Json

type error_kind =
  | Bad_request
  | Parse_error
  | Budget_exceeded
  | Frame_too_large
  | Malformed_frame
  | Internal

let kind_string = function
  | Bad_request -> "bad-request"
  | Parse_error -> "parse-error"
  | Budget_exceeded -> "budget-exceeded"
  | Frame_too_large -> "frame-too-large"
  | Malformed_frame -> "malformed-frame"
  | Internal -> "internal"

type limits = {
  max_frame : int;
  max_states : int;
  max_depth : int;
  max_cases : int;
  max_sources : int;
}

let default_limits =
  { max_frame = 4 * 1024 * 1024; max_states = 200_000; max_depth = 40;
    max_cases = 20_000; max_sources = 64 }

(* ---- framing ---------------------------------------------------------- *)

(* [buf] holds the start of a frame still arriving.  Reading stops at
   the first newline, and a frame whose buffered start exceeds the cap
   without one is declared oversized, so a connection buffers at most
   [max_frame] bytes plus one chunk.  [carry] holds what the read that
   ended the last frame brought in after its newline, from
   [carry_off] on.  Each byte is copied into [buf] once and out once,
   so a frame that arrives in many pieces costs time linear in its
   size. *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : bytes;
  max_frame : int;
  mutable carry : string;
  mutable carry_off : int;
}

let reader ?(max_frame = default_limits.max_frame) fd =
  { fd; buf = Buffer.create 1024; chunk = Bytes.create 65536; max_frame;
    carry = ""; carry_off = 0 }

let rec newline_in chunk i n =
  if i >= n then None
  else if Bytes.get chunk i = '\n' then Some i
  else newline_in chunk (i + 1) n

let read_frame r =
  match String.index_from_opt r.carry r.carry_off '\n' with
  | Some i ->
    let frame = String.sub r.carry r.carry_off (i - r.carry_off) in
    r.carry_off <- i + 1;
    `Frame frame
  | None ->
    Buffer.add_substring r.buf r.carry r.carry_off
      (String.length r.carry - r.carry_off);
    r.carry <- "";
    r.carry_off <- 0;
    let rec go () =
      if Buffer.length r.buf > r.max_frame then `Too_large
      else
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        (* EOF with a partial (unterminated) frame buffered is a client
           that died mid-request: discard the fragment, it was never a
           complete request *)
        | 0 -> `Eof
        | n -> (
          match newline_in r.chunk 0 n with
          | None ->
            Buffer.add_subbytes r.buf r.chunk 0 n;
            go ()
          | Some j ->
            Buffer.add_subbytes r.buf r.chunk 0 j;
            let frame = Buffer.contents r.buf in
            Buffer.clear r.buf;
            r.carry <- Bytes.sub_string r.chunk (j + 1) (n - j - 1);
            `Frame frame)
        (* a non-blocking socket holds no more for now: what arrived
           stays in [buf] for the next call *)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Partial
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof
    in
    go ()

let buffered_frame r = String.index_from_opt r.carry r.carry_off '\n' <> None

(* The newline is printed into the JSON buffer, so the frame costs
   one copy (the buffer's contents) and, unless the socket takes it
   in parts, one write. *)
let write_frame fd j =
  let s = Json.to_line j in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* ---- client ----------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; reader : reader }

(* Responses can be much larger than requests (a stress graph's DOT
   output runs to megabytes), so the client reads with a far higher
   frame cap than the server accepts. *)
let response_max_frame = 64 * 1024 * 1024

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; reader = reader ~max_frame:response_max_frame fd }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let request conn j =
  match write_frame conn.fd j with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    match read_frame conn.reader with
    (* [`Partial] only comes from a non-blocking socket *)
    | `Eof | `Partial -> Error "server closed the connection"
    | `Too_large -> Error "response frame too large"
    | `Frame line -> (
      match Json.parse line with
      | Ok j -> Ok j
      | Error m -> Error (Printf.sprintf "response is not valid JSON: %s" m)))

(* ---- responses -------------------------------------------------------- *)

let error_response ?(id = Json.Null) kind msg =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ("kind", Json.str (kind_string kind));
      ("error", Json.str msg);
    ]

type output =
  | Text of string
  | Written of (escape:(string -> string) -> Buffer.t -> unit)

(* The fields of an ok reply before and after its [output]: the tree
   and the streamed frame list the same fields in the same order. *)
let ok_head ~id ~op =
  [ ("id", id); ("ok", Json.Bool true); ("op", Json.str op) ]

let ok_tail ?exit_code ?stats ?(extra = []) ~elapsed_ms () =
  (match exit_code with Some e -> [ ("exit", Json.int e) ] | None -> [])
  @ [ ("elapsed_ms", Json.Num elapsed_ms) ]
  @ (match stats with
    | Some kvs ->
      [ ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs)) ]
    | None -> [])
  @ extra

let ok_response ~id ~op ?output ?exit_code ?stats ?extra ~elapsed_ms () =
  Json.Obj
    (ok_head ~id ~op
    @ (match output with Some o -> [ ("output", Json.str o) ] | None -> [])
    @ ok_tail ?exit_code ?stats ?extra ~elapsed_ms ())

let write_ok buf ~id ~op ~output ~exit_code ?stats ~elapsed_ms () =
  let member sep (k, v) =
    Buffer.add_char buf sep;
    Json.to_buffer buf (Json.Str k);
    Buffer.add_char buf ':';
    Json.to_buffer buf v
  in
  List.iteri (fun i kv -> member (if i = 0 then '{' else ',') kv)
    (ok_head ~id ~op);
  (match output with
  | Text o -> member ',' ("output", Json.Str o)
  | Written w ->
    Buffer.add_string buf ",\"output\":\"";
    w ~escape:Json.escape buf;
    Buffer.add_char buf '"');
  List.iter (member ',')
    (ok_tail ~exit_code ?stats ~elapsed_ms:(elapsed_ms ()) ());
  Buffer.add_char buf '}'
