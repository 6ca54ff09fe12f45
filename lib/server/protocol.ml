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

(* The buffer holds at most [max_frame + 1] bytes: we stop reading as
   soon as a newline is present, and declare the frame oversized the
   moment the buffered prefix exceeds the cap without one — bounded
   memory per connection by construction. *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : bytes;
  max_frame : int;
  mutable carry : string;  (** bytes after the last returned frame *)
}

let reader ?(max_frame = default_limits.max_frame) fd =
  { fd; buf = Buffer.create 1024; chunk = Bytes.create 65536; max_frame;
    carry = "" }

let read_frame r =
  Buffer.clear r.buf;
  Buffer.add_string r.buf r.carry;
  r.carry <- "";
  let split_at_newline () =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
      r.carry <- String.sub s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
  in
  let rec go () =
    match split_at_newline () with
    | Some frame -> `Frame frame
    | None ->
      if Buffer.length r.buf > r.max_frame then `Too_large
      else begin
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        (* EOF with a partial (unterminated) frame buffered is a client
           that died mid-request: discard the fragment, it was never a
           complete request *)
        | 0 -> `Eof
        | n ->
          Buffer.add_subbytes r.buf r.chunk 0 n;
          go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof
      end
  in
  go ()

let buffered_frame r = String.contains r.carry '\n'

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
    | `Eof -> Error "server closed the connection"
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

let ok_response ~id ~op ?output ?exit_code ?stats ?(extra = []) ~elapsed_ms ()
    =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool true); ("op", Json.str op) ]
    @ (match output with Some o -> [ ("output", Json.str o) ] | None -> [])
    @ (match exit_code with
      | Some e -> [ ("exit", Json.int e) ]
      | None -> [])
    @ [ ("elapsed_ms", Json.Num elapsed_ms) ]
    @ (match stats with
      | Some kvs ->
        [ ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs)) ]
      | None -> [])
    @ extra)
