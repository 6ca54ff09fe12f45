open Csp
module Coop = Csp_parallel.Coop
module Json = Csp_persist.Json
module Snapshot = Csp_persist.Snapshot
module Parser = Csp_syntax.Parser

type config = {
  socket_path : string;
  limits : Protocol.limits;
  warm : string option;
}

let config ?(limits = Protocol.default_limits) ?warm socket_path =
  { socket_path; limits; warm }

type t = {
  table : (string, Jobs.ctx) Hashtbl.t;  (* keyed by source digest *)
  stamps : (string, int) Hashtbl.t;
      (* digest → last-use stamp, for LRU eviction; same lock *)
  clock : int ref;
  table_lock : Mutex.t;
  stop : bool Atomic.t;
  limits : Protocol.limits;
}

let source_count t =
  Mutex.lock t.table_lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.table_lock;
  n

let contexts t =
  Mutex.lock t.table_lock;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.table [] in
  Mutex.unlock t.table_lock;
  List.sort (fun a b -> compare a.Jobs.digest b.Jobs.digest) cs

let compiled_total t =
  List.fold_left
    (fun acc (c : Jobs.ctx) ->
      Coop.lock c.lock;
      let n =
        Hashtbl.fold (fun _ e acc -> acc + Engine.compiled_count e) c.engines 0
      in
      Mutex.unlock c.lock;
      acc + n)
    0 (contexts t)

(* ---- source contexts --------------------------------------------------- *)

(* caller holds [table_lock] *)
let touch t digest =
  incr t.clock;
  Hashtbl.replace t.stamps digest !(t.clock)

(* Evict least-recently-used contexts until the table fits one more
   entry.  Caller holds [table_lock].  A job still running (or paused)
   on an evicted context keeps its own reference and finishes normally —
   eviction only drops the cache slot, so the next request on that
   source re-parses cold. *)
let evict_for_insert t =
  while Hashtbl.length t.table >= max 1 t.limits.Protocol.max_sources do
    let victim =
      Hashtbl.fold
        (fun digest stamp acc ->
          match acc with
          | Some (_, best) when best <= stamp -> acc
          | _ -> Some (digest, stamp))
        t.stamps None
    in
    match victim with
    | None ->
      (* stamps lost track of the table; drop everything *)
      Hashtbl.reset t.table;
      Hashtbl.reset t.stamps
    | Some (digest, _) ->
      Hashtbl.remove t.table digest;
      Hashtbl.remove t.stamps digest
  done

let ctx_for t source =
  let digest = Digest.to_hex (Digest.string source) in
  Mutex.lock t.table_lock;
  let found = Hashtbl.find_opt t.table digest in
  (match found with Some _ -> touch t digest | None -> ());
  Mutex.unlock t.table_lock;
  match found with
  | Some ctx -> Ok ctx
  | None -> (
    match Jobs.ctx_of_source source with
    | Error m -> Error m
    | Ok ctx ->
      Mutex.lock t.table_lock;
      (* another domain calling [handle_line] may have parsed the same
         source meanwhile; the first one in wins so there is exactly
         one ctx per digest *)
      let ctx =
        match Hashtbl.find_opt t.table digest with
        | Some existing -> existing
        | None ->
          evict_for_insert t;
          Hashtbl.add t.table digest ctx;
          ctx
      in
      touch t digest;
      Mutex.unlock t.table_lock;
      Ok ctx)

(* ---- snapshots --------------------------------------------------------- *)

let snapshot_of t =
  let entries =
    List.map
      (fun (c : Jobs.ctx) ->
        Coop.lock c.lock;
        let entry =
          {
            Snapshot.source = c.source;
            compiled = List.rev c.compiled_roots;
            certs = Cert.write_many (List.rev_map snd c.proofs);
          }
        in
        Mutex.unlock c.lock;
        entry)
      (contexts t)
  in
  { Snapshot.entries }

(* Replay one snapshot entry: re-parse the source, re-issue every
   recorded compile call and re-admit the proof certificates.  Nothing
   semantic is deserialised, so the warm state is bit-for-bit what a
   cold server would have built serving the same requests. *)
let admit_entry t (entry : Snapshot.entry) =
  match ctx_for t entry.Snapshot.source with
  | Error m -> Error (Printf.sprintf "snapshot source does not parse: %s" m)
  | Ok ctx ->
    Coop.lock ctx.Jobs.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock ctx.Jobs.lock) @@ fun () ->
    List.iter
      (fun (root : Snapshot.compiled_root) ->
        (* a hand-edited (but digest-consistent) snapshot may name a
           process the source does not define, or an unguarded one
           (an older server recorded those): skip it rather than die *)
        match Defs.lookup ctx.Jobs.file.Parser.defs root.Snapshot.process with
        | None -> ()
        | Some _ -> (
          let eng = Jobs.engine ctx ~nat_bound:root.Snapshot.nat_bound in
          match
            Engine.compile ?budget:root.Snapshot.budget eng
              (Process.ref_ root.Snapshot.process)
          with
          | _ ->
            Jobs.record_compile ctx ~process:root.Snapshot.process
              ~budget:root.Snapshot.budget ~nat_bound:root.Snapshot.nat_bound
          | exception Step.Unproductive _ -> ()))
      entry.Snapshot.compiled;
    if String.length entry.Snapshot.certs = 0 then Ok ()
    else
      match Cert.read_many entry.Snapshot.certs with
      | Error m ->
        Error (Printf.sprintf "snapshot certificates do not parse: %s" m)
      | Ok proofs ->
        Jobs.admit_proofs ctx proofs;
        Ok ()

let admit_snapshot t (snap : Snapshot.t) =
  List.fold_left
    (fun acc entry ->
      match acc with Error _ as e -> e | Ok () -> admit_entry t entry)
    (Ok ()) snap.Snapshot.entries

let create (cfg : config) =
  let t =
    {
      table = Hashtbl.create 16;
      stamps = Hashtbl.create 16;
      clock = ref 0;
      table_lock = Mutex.create ();
      stop = Atomic.make false;
      limits = cfg.limits;
    }
  in
  match cfg.warm with
  | None -> Ok t
  | Some path -> (
    match Snapshot.load path with
    | Error m -> Error (Printf.sprintf "--warm %s: %s" path m)
    | Ok snap -> (
      match admit_snapshot t snap with
      | Error m -> Error (Printf.sprintf "--warm %s: %s" path m)
      | Ok () -> Ok t))

(* ---- request dispatch -------------------------------------------------- *)

let field_str req name = Json.mem_str name req

let field_int req name =
  match Json.member name req with
  | None -> Ok None
  | Some v -> (
    match Json.to_int v with
    | Some n -> Ok (Some n)
    | None ->
      Error
        (Protocol.Bad_request, Printf.sprintf "field %S must be an integer" name))

let field_bool ~default req name =
  match Json.member name req with
  | None -> Ok default
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Ok b
    | None ->
      Error
        (Protocol.Bad_request, Printf.sprintf "field %S must be a boolean" name))

let require_str req name =
  match field_str req name with
  | Some s -> Ok s
  | None ->
    Error
      (Protocol.Bad_request, Printf.sprintf "missing string field %S" name)

let int_param req name ~default ~cap ~cap_name =
  match field_int req name with
  | Error _ as e -> e
  | Ok v ->
    let v = Option.value ~default v in
    if v < 1 then
      Error
        (Protocol.Bad_request, Printf.sprintf "field %S must be positive" name)
    else if v > cap then
      Error
        ( Protocol.Budget_exceeded,
          Printf.sprintf "%s %d exceeds the server's per-request cap %d (%s)"
            name v cap cap_name )
    else Ok v

let ( let* ) = Result.bind

let with_ctx t req job =
  let* source = require_str req "source" in
  match ctx_for t source with
  | Error m -> Error (Protocol.Parse_error, m)
  | Ok ctx ->
    (* the lock may be held by a paused job on this very domain: every
       context lock is taken with [Coop.lock] *)
    Coop.lock ctx.Jobs.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock ctx.Jobs.lock) @@ fun () ->
    job ctx

let text (o : Jobs.outcome) = (Protocol.Text o.Jobs.output, o.Jobs.exit_code)

(* Jobs never raise on bad input (every failure is a typed [Error]);
   anything escaping here is a genuine bug, reported as [internal]
   without killing the server.  A [graph]'s output is left to its
   writer, which renders it into the reply frame. *)
let job_result t req = function
  | "parse" -> with_ctx t req (fun ctx -> Ok (text (Jobs.parse ctx)))
  | "graph" ->
    let* max_states =
      int_param req "max_states" ~default:2000 ~cap:t.limits.Protocol.max_states
        ~cap_name:"max_states"
    in
    let* nat = int_param req "nat" ~default:3 ~cap:64 ~cap_name:"nat" in
    with_ctx t req (fun ctx ->
        let* process = require_str req "process" in
        match Jobs.graph_writer ctx ~process ~max_states ~nat_bound:nat with
        | Ok w -> Ok (Protocol.Written w, 0)
        | Error m -> Error (Protocol.Bad_request, m))
  | "refine" ->
    let* depth =
      int_param req "depth" ~default:5 ~cap:t.limits.Protocol.max_depth
        ~cap_name:"depth"
    in
    let* nat = int_param req "nat" ~default:3 ~cap:64 ~cap_name:"nat" in
    let* weak = field_bool ~default:false req "weak" in
    with_ctx t req (fun ctx ->
        let* impl = require_str req "impl" in
        let* spec = require_str req "spec" in
        match Jobs.refine ctx ~impl ~spec ~depth ~nat_bound:nat ~weak with
        | Ok o -> Ok (text o)
        | Error m -> Error (Protocol.Bad_request, m))
  | "prove" ->
    with_ctx t req (fun ctx -> Ok (text (Jobs.prove ctx ~verbose:false)))
  | "fuzz" ->
    let* count =
      int_param req "count" ~default:200 ~cap:t.limits.Protocol.max_cases
        ~cap_name:"count"
    in
    let* seed = field_int req "seed" in
    let seed = Option.value ~default:0 seed in
    let* budget =
      match Json.member "budget" req with
      | None | Some Json.Null -> Ok None
      | Some v -> (
        match Json.to_float v with
        | Some f when f > 0. -> Ok (Some f)
        | _ ->
          Error
            ( Protocol.Bad_request,
              "field \"budget\" must be a positive number of seconds" ))
    in
    let oracle_names =
      match Json.member "oracles" req with
      | Some (Json.Arr xs) -> List.filter_map Json.to_str xs
      | _ -> []
    in
    (match Jobs.fuzz ~seed ~count ~budget ~oracle_names () with
    | Ok o -> Ok (text o)
    | Error m -> Error (Protocol.Bad_request, m))
  | op -> Error (Protocol.Bad_request, Printf.sprintf "unknown op %S" op)

(* Writes the reply to one request into [buf]: a [graph]'s DOT goes
   into its frame JSON-escaped as it is rendered, and [elapsed_ms] is
   read after the output is written. *)
let handle_op t buf ~id ~op req =
  let t0 = Unix.gettimeofday () in
  let elapsed () = (Unix.gettimeofday () -. t0) *. 1000. in
  let reply j = Json.to_buffer buf j in
  match op with
  | "ping" ->
    reply
      (Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
         ~extra:[ ("pong", Json.Bool true) ]
         ())
  | "stats" ->
    reply
      (Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
         ~extra:
           [
             ("sources", Json.int (source_count t));
             ("compiled", Json.int (compiled_total t));
             ( "proofs",
               Json.int
                 (List.fold_left
                    (fun acc (c : Jobs.ctx) -> acc + List.length c.Jobs.proofs)
                    0 (contexts t)) );
           ]
         ())
  | "shutdown" ->
    Atomic.set t.stop true;
    reply (Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ()) ())
  | "save" -> (
    match require_str req "path" with
    | Error (kind, m) -> reply (Protocol.error_response ~id kind m)
    | Ok path -> (
      let snap = snapshot_of t in
      match Snapshot.save path snap with
      | () ->
        reply
          (Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
             ~extra:
               [
                 ("path", Json.str path);
                 ("sources", Json.int (List.length snap.Snapshot.entries));
               ]
             ())
      | exception Sys_error m ->
        reply (Protocol.error_response ~id Protocol.Internal m)))
  | "load" -> (
    match require_str req "path" with
    | Error (kind, m) -> reply (Protocol.error_response ~id kind m)
    | Ok path -> (
      match Snapshot.load path with
      | Error m -> reply (Protocol.error_response ~id Protocol.Bad_request m)
      | Ok snap -> (
        match admit_snapshot t snap with
        | Error m ->
          reply (Protocol.error_response ~id Protocol.Bad_request m)
        | Ok () ->
          reply
            (Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
               ~extra:
                 [
                   ("path", Json.str path);
                   ("sources", Json.int (List.length snap.Snapshot.entries));
                 ]
               ()))))
  | _ -> (
    let result, stats =
      match field_bool ~default:false req "stats" with
      | Error _ as e -> (e, None)
      | Ok false -> (job_result t req op, None)
      | Ok true ->
        let r, deltas = Obs.delta_snapshot (fun () -> job_result t req op) in
        (r, Some deltas)
    in
    match result with
    | Ok (output, exit_code) ->
      Protocol.write_ok buf ~id ~op ~output ~exit_code ?stats
        ~elapsed_ms:elapsed ()
    | Error (kind, m) -> reply (Protocol.error_response ~id kind m))

(* A frame parsed into its id, op and fields, or the reply that
   refuses it. *)
let request_of_line line =
  match Json.parse line with
  | Error m ->
    Error
      (Protocol.error_response Protocol.Malformed_frame
         (Printf.sprintf "request is not valid JSON: %s" m))
  | Ok (Json.Obj _ as req) -> (
    let id = Option.value ~default:Json.Null (Json.member "id" req) in
    match Json.mem_str "op" req with
    | None ->
      Error
        (Protocol.error_response ~id Protocol.Bad_request
           "missing string field \"op\"")
    | Some op -> Ok (id, op, req))
  | Ok _ ->
    Error
      (Protocol.error_response Protocol.Malformed_frame
         "request frame must be a JSON object")

(* A job that raises after its frame has begun leaves none of it:
   [buf] is cut back to the frame's start before the [internal] error
   frame is written. *)
let answer t buf (id, op, req) =
  let start = Buffer.length buf in
  try handle_op t buf ~id ~op req
  with e ->
    Buffer.truncate buf start;
    Json.to_buffer buf
      (Protocol.error_response ~id Protocol.Internal (Printexc.to_string e))

let handle_into t buf line =
  match request_of_line line with
  | Error resp -> Json.to_buffer buf resp
  | Ok r -> answer t buf r

let handle_line t line =
  let buf = Buffer.create 256 in
  handle_into t buf line;
  Buffer.contents buf

(* ---- the socket loop --------------------------------------------------- *)

(* Jobs cancelled before their reply: their client closed the
   connection, or the server shut down. *)
let cancelled = Obs.Counter.make "serve.cancelled"

(* One live connection, on a non-blocking socket.  The reader keeps
   the bytes of a frame still arriving; [out] holds a reply the socket
   has taken [sent] bytes of.  While [out] holds bytes or the
   connection's job is paused ([busy]), the next frame is not read, so
   replies leave in request order and at most one waits per
   connection.  [out] is cleared, not shrunk, once written: it keeps
   the capacity of the connection's largest reply until the
   connection closes. *)
type conn = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  out : Buffer.t;
  mutable sent : int;
  mutable busy : bool;
  mutable closing : bool;  (* close once [out] is written *)
  mutable closed : bool;
}

(* A job paused between slices, with the connection it answers.  While
   [watched], the poller watches that connection for its peer closing;
   one with pipelined bytes is not watched until the job ends. *)
type paused = {
  conn : conn;
  k : (unit, unit Coop.status) Effect.Deep.continuation;
  mutable watched : bool;
}

let would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

(* What a paused job's connection holds now: nothing, the peer's
   end of stream, or pipelined bytes.  The socket is non-blocking, so
   the peek never waits. *)
let peek_conn fd =
  match Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
  | 0 -> `Closed
  | _ -> `Pipelined
  | exception Unix.Unix_error (e, _, _) when would_block e -> `Quiet
  | exception Unix.Unix_error _ -> `Closed

(* Write what the socket takes of the connection's reply, from [out]
   at offset [sent] through the loop's [chunk] (one copy per byte, no
   allocation); [true] once all of it is written.  Raises
   [Unix.Unix_error] when the peer has gone. *)
let rec flush chunk c =
  let n = Buffer.length c.out in
  if c.sent >= n then begin
    Buffer.clear c.out;
    c.sent <- 0;
    true
  end
  else begin
    let len = min (n - c.sent) (Bytes.length chunk) in
    Buffer.blit c.out c.sent chunk 0 len;
    match Unix.write c.fd chunk 0 len with
    | k ->
      c.sent <- c.sent + k;
      flush chunk c
    | exception Unix.Unix_error (e, _, _) when would_block e -> false
  end

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One loop serves every connection: it multiplexes the listening
   socket and the live connections through [select] and never blocks
   on one client.  A connection's frame is read when [select] reports
   bytes, a partial frame waits in its reader, and a reply the socket
   does not take at once waits in the connection's [out] until
   [select] reports it writable.

   Every job runs as cooperative slices ([Coop]): a job that pauses
   joins a FIFO of paused jobs, and each round first serves the
   connections [select] reported, then resumes the oldest paused job
   for one slice ([select] does not wait while any is paused).  A
   [stats:true] request runs alone and unsliced, after every paused
   job has finished, so its counter deltas are its own.  A paused job
   whose client closed is cancelled, and so is every paused job at
   shutdown. *)
let serve ?ready t cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let chunk = Bytes.create 65536 in
  let conns = ref [] (* newest first *) in
  let paused = Queue.create () in
  let drop c =
    if not c.closed then begin
      c.closed <- true;
      close_quietly c.fd;
      conns := List.filter (fun c' -> c' != c) !conns
    end
  in
  (* Discontinue a paused job: its finalisers release what it holds.
     A job that swallows [Coop.Cancelled] pauses again, and is
     discontinued again. *)
  let cancel p =
    let rec go k =
      match Effect.Deep.discontinue k Coop.Cancelled with
      | Coop.Paused k -> go k
      | Coop.Done _ -> ()
      | exception _ -> ()
    in
    go p.k;
    Obs.Counter.incr cancelled;
    drop p.conn
  in
  (* the connection's next frame, once its reply is written: start it,
     leave a partial one buffered, or close *)
  let rec next c =
    if c.closing then drop c
    else if not (Atomic.get t.stop) then
      match Protocol.read_frame c.reader with
      | `Frame line -> start c line
      | `Partial -> ()
      | `Eof | (exception Unix.Unix_error _) -> drop c
      | `Too_large ->
        (* the frame boundary is lost: answer once, then close rather
           than try to resynchronise *)
        c.closing <- true;
        Json.to_buffer c.out
          (Protocol.error_response Protocol.Frame_too_large
             (Printf.sprintf "frame exceeds %d bytes"
                t.limits.Protocol.max_frame));
        send c
  (* end the frame in [out], write what the socket takes now; the rest
     waits for [select] *)
  and send c =
    Buffer.add_char c.out '\n';
    written c
  and written c =
    match flush chunk c with
    | true -> next c
    | false -> ()
    | exception Unix.Unix_error _ -> drop c
  and start c line =
    match request_of_line line with
    | exception _ -> drop c
    | Error resp ->
      Json.to_buffer c.out resp;
      send c
    | Ok ((_, _, req) as r) ->
      if field_bool ~default:false req "stats" = Ok true then begin
        finish_paused ();
        answer t c.out r;
        send c
      end
      else settle c (Coop.slice (fun () -> answer t c.out r))
  and settle c = function
    | Coop.Paused k ->
      c.busy <- true;
      Queue.push
        { conn = c; k; watched = not (Protocol.buffered_frame c.reader) }
        paused
    | Coop.Done () ->
      c.busy <- false;
      send c
  and resume_oldest () =
    let p = Queue.pop paused in
    settle p.conn (Effect.Deep.continue p.k ())
  and finish_paused () =
    while not (Queue.is_empty paused) do
      resume_oldest ()
    done
  in
  let accept () =
    match Unix.accept sock with
    | fd, _ ->
      Unix.set_nonblock fd;
      let reader = Protocol.reader ~max_frame:t.limits.Protocol.max_frame fd in
      conns :=
        { fd; reader; out = Buffer.create 4096; sent = 0; busy = false;
          closing = false; closed = false }
        :: !conns
    | exception Unix.Unix_error _ -> ()
  in
  (* cancel the watched paused jobs whose client has gone *)
  let reap_closed readable =
    let kept = Queue.create () in
    Queue.iter
      (fun p ->
        if p.watched && List.mem p.conn.fd readable then
          match peek_conn p.conn.fd with
          | `Closed -> cancel p
          | `Pipelined ->
            p.watched <- false;
            Queue.push p kept
          | `Quiet -> Queue.push p kept
        else Queue.push p kept)
      paused;
    Queue.clear paused;
    Queue.transfer kept paused
  in
  Fun.protect
    ~finally:(fun () ->
      Queue.iter cancel paused;
      Queue.clear paused;
      List.iter drop !conns;
      close_quietly sock;
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen sock 64;
  Unix.set_nonblock sock;
  (match ready with Some f -> f () | None -> ());
  while not (Atomic.get t.stop) do
    let live = !conns in
    let pending c = Buffer.length c.out > 0 in
    let reading = List.filter (fun c -> not (c.busy || pending c)) live in
    let writing = List.filter (fun c -> (not c.busy) && pending c) live in
    let watched_paused =
      Queue.fold
        (fun acc p -> if p.watched then p.conn.fd :: acc else acc)
        [] paused
    in
    let fds = List.map (fun c -> c.fd) in
    let timeout = if Queue.is_empty paused then -1. else 0. in
    (match
       Unix.select
         ((sock :: fds reading) @ watched_paused)
         (fds writing) [] timeout
     with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem sock readable then accept ();
      let ready fds c = (not c.closed) && List.mem c.fd fds in
      List.iter (fun c -> if ready writable c then written c) writing;
      List.iter (fun c -> if ready readable c then next c) reading;
      if watched_paused <> [] then reap_closed readable);
    if (not (Queue.is_empty paused)) && not (Atomic.get t.stop) then
      resume_oldest ()
  done

let run ?ready cfg =
  match create cfg with
  | Error _ as e -> e
  | Ok t ->
    serve ?ready t cfg;
    Ok ()
