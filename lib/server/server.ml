open Csp
module Coop = Csp_parallel.Coop
module Json = Csp_persist.Json
module Snapshot = Csp_persist.Snapshot
module Parser = Csp_syntax.Parser

type config = {
  socket_path : string;
  jobs : int;
  limits : Protocol.limits;
  warm : string option;
}

let config ?(jobs = 1) ?(limits = Protocol.default_limits) ?warm socket_path =
  { socket_path; jobs = max 1 jobs; limits; warm }

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
   entry.  Caller holds [table_lock].  A worker still running a job on
   an evicted context keeps its own reference and finishes normally —
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
      (* another worker may have parsed the same source meanwhile; the
         first one in wins so there is exactly one ctx per digest *)
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
           process the source does not define: skip it rather than die *)
        match Defs.lookup ctx.Jobs.file.Parser.defs root.Snapshot.process with
        | None -> ()
        | Some _ ->
          Jobs.record_compile ctx ~process:root.Snapshot.process
            ~budget:root.Snapshot.budget ~nat_bound:root.Snapshot.nat_bound;
          let eng = Jobs.engine ctx ~nat_bound:root.Snapshot.nat_bound in
          ignore
            (Engine.compile ?budget:root.Snapshot.budget eng
               (Process.ref_ root.Snapshot.process)))
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
    (* at [--jobs 1] the lock may be held by a paused job on this very
       thread: every context lock is taken with [Coop.lock] *)
    Coop.lock ctx.Jobs.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock ctx.Jobs.lock) @@ fun () ->
    job ctx

(* Jobs never raise on bad input (every failure is a typed [Error]);
   anything escaping here is a genuine bug, reported as [internal]
   without killing the server. *)
let job_result t req = function
  | "parse" -> with_ctx t req (fun ctx -> Ok (Jobs.parse ctx))
  | "graph" ->
    let* max_states =
      int_param req "max_states" ~default:2000 ~cap:t.limits.Protocol.max_states
        ~cap_name:"max_states"
    in
    let* nat = int_param req "nat" ~default:3 ~cap:64 ~cap_name:"nat" in
    with_ctx t req (fun ctx ->
        let* process = require_str req "process" in
        match
          Jobs.graph ctx ~process ~max_states ~nat_bound:nat ~compiled:true
        with
        | Ok o -> Ok o
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
        | Ok o -> Ok o
        | Error m -> Error (Protocol.Bad_request, m))
  | "prove" -> with_ctx t req (fun ctx -> Ok (Jobs.prove ctx ~verbose:false))
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
    | Ok o -> Ok o
    | Error m -> Error (Protocol.Bad_request, m))
  | op -> Error (Protocol.Bad_request, Printf.sprintf "unknown op %S" op)

let handle_op t ~id ~op req =
  let t0 = Unix.gettimeofday () in
  let elapsed () = (Unix.gettimeofday () -. t0) *. 1000. in
  match op with
  | "ping" ->
    Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
      ~extra:[ ("pong", Json.Bool true) ]
      ()
  | "stats" ->
    Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
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
      ()
  | "shutdown" ->
    Atomic.set t.stop true;
    Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ()) ()
  | "save" -> (
    match require_str req "path" with
    | Error (kind, m) -> Protocol.error_response ~id kind m
    | Ok path -> (
      let snap = snapshot_of t in
      match Snapshot.save path snap with
      | () ->
        Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
          ~extra:
            [
              ("path", Json.str path);
              ("sources", Json.int (List.length snap.Snapshot.entries));
            ]
          ()
      | exception Sys_error m ->
        Protocol.error_response ~id Protocol.Internal m))
  | "load" -> (
    match require_str req "path" with
    | Error (kind, m) -> Protocol.error_response ~id kind m
    | Ok path -> (
      match Snapshot.load path with
      | Error m -> Protocol.error_response ~id Protocol.Bad_request m
      | Ok snap -> (
        match admit_snapshot t snap with
        | Error m -> Protocol.error_response ~id Protocol.Bad_request m
        | Ok () ->
          Protocol.ok_response ~id ~op ~elapsed_ms:(elapsed ())
            ~extra:
              [
                ("path", Json.str path);
                ("sources", Json.int (List.length snap.Snapshot.entries));
              ]
            ())))
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
    | Ok (o : Jobs.outcome) ->
      Protocol.ok_response ~id ~op ~output:o.Jobs.output
        ~exit_code:o.Jobs.exit_code ?stats ~elapsed_ms:(elapsed ()) ()
    | Error (kind, m) -> Protocol.error_response ~id kind m)

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

let answer t (id, op, req) =
  try handle_op t ~id ~op req
  with e -> Protocol.error_response ~id Protocol.Internal (Printexc.to_string e)

let respond t line =
  match request_of_line line with Error resp -> resp | Ok r -> answer t r

let handle_line t line = Json.to_string (respond t line)

(* ---- the socket loop --------------------------------------------------- *)

(* Jobs cancelled before their reply: their client closed the
   connection, or the server shut down. *)
let cancelled = Obs.Counter.make "serve.cancelled"

(* One live connection: the reader persists across dispatches so
   bytes buffered past the last processed frame are not lost. *)
type live = { fd : Unix.file_descr; reader : Protocol.reader }

(* The connection's next complete frame, or [None] when it must close.
   A peer that vanished (EOF mid-frame) only closes this connection. *)
let next_frame t live =
  match Protocol.read_frame live.reader with
  | `Frame line -> Some line
  | `Eof -> None
  | `Too_large ->
    (* the frame boundary is lost: answer once, then drop the
       connection rather than try to resynchronise *)
    (try
       Protocol.write_frame live.fd
         (Protocol.error_response Protocol.Frame_too_large
            (Printf.sprintf "frame exceeds %d bytes"
               t.limits.Protocol.max_frame))
     with Unix.Unix_error _ -> ());
    None
  | exception Unix.Unix_error _ -> None

(* Write a reply and say what the connection does next: serve the
   frame pipelined behind it, go back to the poller, or close (EPIPE
   on the reply, or a [shutdown]). *)
let reply t live resp =
  match Protocol.write_frame live.fd resp with
  | () ->
    if Atomic.get t.stop then `Close
    else if Protocol.buffered_frame live.reader then `More
    else `Keep
  | exception Unix.Unix_error _ -> `Close

(* Serve every complete frame currently available on the connection —
   the one whose arrival woke the poller, plus any pipelined behind
   it — and report whether the connection should be kept.  The pool's
   workers serve connections this way. *)
let process_ready t live =
  let rec go () =
    match next_frame t live with
    | None -> `Close
    | Some line -> (
      match reply t live (respond t line) with
      | `More -> go ()
      | (`Keep | `Close) as r -> r)
  in
  try go () with _ -> `Close

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A job paused between slices, with the connection it answers.  While
   [watched], the poller watches that connection for its peer closing;
   one with pipelined bytes is not watched until the job ends. *)
type paused = {
  conn : live;
  k : (unit, Json.t Coop.status) Effect.Deep.continuation;
  mutable watched : bool;
}

(* What a paused job's connection holds now: nothing, the peer's
   end of stream, or pipelined bytes.  The zero-timeout [select] makes
   sure the peek does not block: the round's own [select] may have seen
   bytes that starting a job has read since. *)
let peek_conn fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ | (exception Unix.Unix_error _) -> `Quiet
  | _ -> (
    match Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> `Closed
    | _ -> `Pipelined
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Quiet
    | exception Unix.Unix_error _ -> `Closed)

(* Discontinue a paused job: its finalisers release what it holds.  A
   job that swallows [Coop.Cancelled] pauses again, and is
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
  close_quietly p.conn.fd

(* The poller owns the listening socket and every idle connection and
   multiplexes them through [select]; a connection with data ready is
   handed to [dispatch] and returns to the idle set when its frames are
   served.  So a fixed worker count serves any number of persistent
   connections: an idle connection occupies no worker, and requests
   interleaved across connections never head-of-line block behind an
   open socket.

   With [jobs > 1] the pool's workers serve connections from a session
   (newest first), each job to completion.  With [jobs = 1] the poller
   runs every job as cooperative slices ([Coop]): a job that pauses
   joins a FIFO of paused jobs, and each [select] round first
   dispatches newly arrived frames, then resumes the oldest paused job
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
  let wake_r, wake_w = Unix.pipe () in
  let idle = ref [] in
  let idle_mu = Mutex.create () in
  (* workers hand finished connections back through the idle set and
     poke the pipe so the poller re-selects immediately instead of at
     its next 200ms tick *)
  let return_live live = function
    | `Close -> close_quietly live.fd
    | `Keep ->
      Mutex.lock idle_mu;
      idle := live :: !idle;
      Mutex.unlock idle_mu;
      (try ignore (Unix.write wake_w (Bytes.of_string "x") 0 1)
       with Unix.Unix_error _ -> ())
  in
  let take_idle snapshot_fd =
    Mutex.lock idle_mu;
    let found = List.find_opt (fun l -> l.fd = snapshot_fd) !idle in
    (match found with
    | Some l -> idle := List.filter (fun l' -> l' != l) !idle
    | None -> ());
    Mutex.unlock idle_mu;
    found
  in
  let paused = Queue.create () in
  (* settle a job's slice: queue it if it paused; otherwise write its
     reply and start the connection's next pipelined frame *)
  let rec settle ~watched live = function
    | Coop.Paused k -> Queue.push { conn = live; k; watched } paused
    | Coop.Done resp -> (
      match reply t live resp with
      | `More -> start live
      | (`Keep | `Close) as r -> return_live live r)
  and start live =
    match next_frame t live with
    | None -> close_quietly live.fd
    | Some line -> (
      let watched = not (Protocol.buffered_frame live.reader) in
      match request_of_line line with
      | exception _ -> close_quietly live.fd
      | Error resp -> settle ~watched live (Coop.Done resp)
      | Ok ((_, _, req) as r) ->
        if field_bool ~default:false req "stats" = Ok true then begin
          finish_paused ();
          settle ~watched live (Coop.Done (answer t r))
        end
        else settle ~watched live (Coop.slice (fun () -> answer t r)))
  and resume_oldest () =
    let p = Queue.pop paused in
    settle ~watched:p.watched p.conn (Effect.Deep.continue p.k ())
  and finish_paused () =
    while not (Queue.is_empty paused) do
      resume_oldest ()
    done
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
  let session =
    if cfg.jobs <= 1 then None
    else begin
      let pool = Pool.create ~domains:(cfg.jobs + 1) in
      let s =
        Pool.session_start pool (fun ~worker:_ ~push:_ live ->
            return_live live (process_ready t live))
      in
      Some (pool, s)
    end
  in
  let dispatch live =
    match session with
    | None -> start live
    | Some (_, s) -> Pool.session_push s live
  in
  Fun.protect
    ~finally:(fun () ->
      (match session with
      | Some (pool, s) ->
        Pool.session_stop s;
        Pool.shutdown pool
      | None -> ());
      Queue.iter cancel paused;
      Queue.clear paused;
      Mutex.lock idle_mu;
      List.iter (fun l -> close_quietly l.fd) !idle;
      idle := [];
      Mutex.unlock idle_mu;
      close_quietly wake_r;
      close_quietly wake_w;
      close_quietly sock;
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen sock 64;
  Unix.set_nonblock wake_r;
  (match ready with Some f -> f () | None -> ());
  let drain_wake () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read wake_r b 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (* the 200ms tick bounds how stale a [shutdown] handled on a worker
     can leave the poller *)
  while not (Atomic.get t.stop) do
    Mutex.lock idle_mu;
    let snapshot = !idle in
    Mutex.unlock idle_mu;
    let watched_paused =
      Queue.fold
        (fun acc p -> if p.watched then p.conn.fd :: acc else acc)
        [] paused
    in
    let watched =
      (sock :: wake_r :: List.map (fun l -> l.fd) snapshot) @ watched_paused
    in
    let timeout = if Queue.is_empty paused then 0.2 else 0. in
    (match Unix.select watched [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | readable, _, _ ->
      if List.mem wake_r readable then drain_wake ();
      if List.mem sock readable then begin
        match Unix.accept sock with
        | fd, _ ->
          return_live
            { fd;
              reader =
                Protocol.reader ~max_frame:t.limits.Protocol.max_frame fd }
            `Keep
        | exception Unix.Unix_error _ -> ()
      end;
      List.iter
        (fun l ->
          if List.mem l.fd readable then
            match take_idle l.fd with
            | None -> ()
            | Some live -> (
              (* re-check on the connection actually taken: the fd
                 number may have been recycled onto a fresh (and not
                 yet readable) connection since [select] returned *)
              match Unix.select [ live.fd ] [] [] 0. with
              | [ _ ], _, _ -> dispatch live
              | _ -> return_live live `Keep
              | exception Unix.Unix_error _ -> return_live live `Close))
        snapshot;
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
