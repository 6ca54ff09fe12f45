(* The verification service: differential byte-identity against the
   one-shot CLI binary, bounded framing, disconnect resilience,
   request budgets and warm-start persistence. *)

module Server = Csp_server.Server
module Protocol = Csp_server.Protocol
module Workload = Csp_server.Workload
module Json = Csp_persist.Json
module Obs = Csp_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- in-process harness ------------------------------------------------ *)

let fresh_server ?limits ?warm () =
  match Server.create (Server.config ?limits ?warm "unused.sock") with
  | Ok t -> t
  | Error m -> Alcotest.fail m

let req op kvs = Json.Obj (("op", Json.str op) :: kvs)
let src s = ("source", Json.str s)

let response t request =
  match Json.parse (Server.handle_line t (Json.to_string request)) with
  | Ok j -> j
  | Error m -> Alcotest.failf "response is not valid JSON: %s" m

let outcome resp =
  match (Json.mem_str "output" resp, Json.mem_int "exit" resp) with
  | Some o, Some e -> (o, e)
  | _ ->
    Alcotest.failf "response carries no output/exit: %s" (Json.to_string resp)

let error_kind resp =
  match (Json.mem_bool "ok" resp, Json.mem_str "kind" resp) with
  | Some false, Some k -> k
  | _ -> Alcotest.failf "expected an error response: %s" (Json.to_string resp)

(* ---- the real binary --------------------------------------------------- *)

let cli = "../bin/cspc.exe"

let run_cli args =
  let cmd = Filename.quote_command cli args ^ " 2>/dev/null" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec drain () =
    let n = input ic bytes 0 (Bytes.length bytes) in
    if n > 0 then begin
      Buffer.add_subbytes buf bytes 0 n;
      drain ()
    end
  in
  drain ();
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (Buffer.contents buf, code)

let slurp path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_temp_source source f =
  let path = Filename.temp_file "cspc-diff" ".csp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  f path

(* ---- differential cases ------------------------------------------------ *)

let refine_ok_source = "impl = a!0 -> impl\nspec = a!0 -> spec | b!0 -> spec\n"
let refine_fail_source = "impl = a!0 -> b!0 -> impl\nspec = a!0 -> spec\n"

let protocol_source = slurp "../examples/protocol.csp"
let copier_source = slurp "corpus/prover-sound-copier.csp"
let ring_source = slurp "corpus/closure-kernel-token-ring.csp"
let window_source = slurp "corpus/op-vs-deno-sliding-window.csp"

(* Each case: the server request and the equivalent one-shot command
   line.  The assertion is bytes-for-bytes equality of the server's
   [output] with the CLI's stdout, and of [exit] with its status. *)
let diff_cases =
  [
    ("parse protocol", protocol_source, req "parse" [], fun p -> [ "parse"; p ]);
    ("parse copier", copier_source, req "parse" [], fun p -> [ "parse"; p ]);
    ( "graph ring",
      ring_source,
      req "graph" [ ("process", Json.str "main") ],
      fun p -> [ "graph"; p; "-p"; "main" ] );
    ( "graph ring -j 2",
      ring_source,
      req "graph" [ ("process", Json.str "main") ],
      fun p -> [ "graph"; p; "-p"; "main"; "-j"; "2" ] );
    ( "graph window tight budget",
      window_source,
      req "graph" [ ("process", Json.str "main"); ("max_states", Json.int 5) ],
      fun p -> [ "graph"; p; "-p"; "main"; "--max-states"; "5" ] );
    ( "refine holds",
      refine_ok_source,
      req "refine" [ ("impl", Json.str "impl"); ("spec", Json.str "spec") ],
      fun p -> [ "refine"; p; "-p"; "impl"; "-s"; "spec" ] );
    ( "refine fails",
      refine_fail_source,
      req "refine" [ ("impl", Json.str "impl"); ("spec", Json.str "spec") ],
      fun p -> [ "refine"; p; "-p"; "impl"; "-s"; "spec" ] );
    ( "refine weak",
      refine_ok_source,
      req "refine"
        [ ("impl", Json.str "impl"); ("spec", Json.str "impl");
          ("weak", Json.Bool true) ],
      fun p -> [ "refine"; p; "-p"; "impl"; "-s"; "impl"; "--weak" ] );
    ( "refine weak -j 2",
      refine_ok_source,
      req "refine"
        [ ("impl", Json.str "impl"); ("spec", Json.str "spec");
          ("weak", Json.Bool true) ],
      fun p ->
        [ "refine"; p; "-p"; "impl"; "-s"; "spec"; "--weak"; "-j"; "2" ] );
    ("prove protocol", protocol_source, req "prove" [], fun p -> [ "prove"; p ]);
    ("prove copier", copier_source, req "prove" [], fun p -> [ "prove"; p ]);
  ]

let test_differential () =
  let t = fresh_server () in
  List.iter
    (fun (label, source, request, args) ->
      let request =
        match request with
        | Json.Obj kvs -> Json.Obj (kvs @ [ src source ])
        | j -> j
      in
      let server_out, server_exit = outcome (response t request) in
      with_temp_source source @@ fun path ->
      let cli_out, cli_exit = run_cli (args path) in
      check_string (label ^ ": output") cli_out server_out;
      check_int (label ^ ": exit") cli_exit server_exit;
      (* the second hit answers from warm caches — still byte-identical *)
      let warm_out, warm_exit = outcome (response t request) in
      check_string (label ^ ": warm output") cli_out warm_out;
      check_int (label ^ ": warm exit") cli_exit warm_exit)
    diff_cases

(* The fuzz report prints wall-clock seconds, so byte-equality holds
   only after masking the one timing field ("N case(s) in T.TTs"). *)
let mask_elapsed s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let isdigit c = c >= '0' && c <= '9' in
    if
      !i + 4 <= n
      && String.sub s !i 4 = " in "
      && !i + 4 < n
      && isdigit s.[!i + 4]
    then begin
      let j = ref (!i + 4) in
      while !j < n && (isdigit s.[!j] || s.[!j] = '.') do incr j done;
      if !j < n && s.[!j] = 's' then begin
        Buffer.add_string b " in Ts";
        i := !j + 1
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_differential_fuzz () =
  let t = fresh_server () in
  let request =
    req "fuzz" [ ("seed", Json.int 5); ("count", Json.int 25) ]
  in
  let server_out, server_exit = outcome (response t request) in
  let cli_out, cli_exit = run_cli [ "fuzz"; "--seed"; "5"; "--count"; "25" ] in
  check_string "fuzz output (elapsed masked)" (mask_elapsed cli_out)
    (mask_elapsed server_out);
  check_int "fuzz exit" cli_exit server_exit

(* ---- request validation ------------------------------------------------ *)

let test_bad_requests () =
  let t = fresh_server () in
  check_string "not json" "malformed-frame"
    (error_kind
       (match Json.parse (Server.handle_line t "this is not json") with
       | Ok j -> j
       | Error m -> Alcotest.fail m));
  check_string "not an object" "malformed-frame"
    (error_kind
       (match Json.parse (Server.handle_line t "[1,2]") with
       | Ok j -> j
       | Error m -> Alcotest.fail m));
  check_string "missing op" "bad-request"
    (error_kind (response t (Json.Obj [ ("id", Json.int 1) ])));
  check_string "unknown op" "bad-request"
    (error_kind (response t (req "frobnicate" [])));
  check_string "missing source" "bad-request"
    (error_kind (response t (req "parse" [])));
  check_string "bad source" "parse-error"
    (error_kind (response t (req "parse" [ src "x = " ])));
  check_string "unknown process" "bad-request"
    (error_kind
       (response t
          (req "graph" [ src "main = STOP\n"; ("process", Json.str "nope") ])));
  check_string "unknown oracle" "bad-request"
    (error_kind
       (response t (req "fuzz" [ ("oracles", Json.Arr [ Json.str "zap" ]) ])));
  check_string "non-boolean stats" "bad-request"
    (error_kind
       (response t
          (req "fuzz" [ ("count", Json.int 2); ("stats", Json.str "yes") ])))

let test_budget_exceeded () =
  let t = fresh_server () in
  let graph_over =
    req "graph"
      [ src "main = a!0 -> main\n"; ("process", Json.str "main");
        ("max_states", Json.int 1_000_000_000) ]
  in
  check_string "graph over cap" "budget-exceeded"
    (error_kind (response t graph_over));
  let refine_over =
    req "refine"
      [ src refine_ok_source; ("impl", Json.str "impl");
        ("spec", Json.str "spec"); ("depth", Json.int 10_000) ]
  in
  check_string "refine over cap" "budget-exceeded"
    (error_kind (response t refine_over));
  let fuzz_over = req "fuzz" [ ("count", Json.int 10_000_000) ] in
  check_string "fuzz over cap" "budget-exceeded"
    (error_kind (response t fuzz_over));
  (* at the cap is fine *)
  let at_cap =
    req "graph"
      [ src "main = a!0 -> main\n"; ("process", Json.str "main");
        ("max_states", Json.int Protocol.default_limits.Protocol.max_states) ]
  in
  let _, code = outcome (response t at_cap) in
  check_int "graph at cap" 0 code

(* ---- framing ----------------------------------------------------------- *)

let with_pipe_reader ~max_frame payload f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ r; w ])
  @@ fun () ->
  let reader = Protocol.reader ~max_frame r in
  let n = String.length payload in
  let written = Unix.write_substring w payload 0 n in
  check_int "payload written" n written;
  f reader w

let test_oversized_frame_rejected () =
  with_pipe_reader ~max_frame:64
    (String.make 100 'a')
    (fun reader _ ->
      match Protocol.read_frame reader with
      | `Too_large -> ()
      | `Frame _ | `Eof -> Alcotest.fail "oversized frame not rejected")

let test_frame_carry () =
  with_pipe_reader ~max_frame:1024 "one\ntwo\nthr" (fun reader w ->
      (match Protocol.read_frame reader with
      | `Frame f -> check_string "first" "one" f
      | _ -> Alcotest.fail "expected frame");
      (match Protocol.read_frame reader with
      | `Frame f -> check_string "second" "two" f
      | _ -> Alcotest.fail "expected frame");
      ignore (Unix.write_substring w "ee\n" 0 3);
      match Protocol.read_frame reader with
      | `Frame f -> check_string "third" "three" f
      | _ -> Alcotest.fail "expected frame")

let test_partial_frame_is_eof () =
  with_pipe_reader ~max_frame:1024 "{\"op\":\"ping\"" (fun reader w ->
      Unix.close w;
      (* a client that died mid-request: the fragment is discarded *)
      match Protocol.read_frame reader with
      | `Eof -> ()
      | `Frame _ | `Too_large ->
        Alcotest.fail "partial frame at EOF must read as EOF")

(* ---- a live socket server ---------------------------------------------- *)

let with_server ?jobs ?limits ?warm f =
  let socket = Filename.temp_file "cspc-serve" ".sock" in
  Sys.remove socket;
  let cfg = Server.config ?jobs ?limits ?warm socket in
  let t =
    match Server.create cfg with Ok t -> t | Error m -> Alcotest.fail m
  in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~ready:(fun () -> Atomic.set ready true) t cfg)
  in
  while not (Atomic.get ready) do Domain.cpu_relax () done;
  Fun.protect
    ~finally:(fun () ->
      (match Workload.connect socket with
      | Ok conn ->
        ignore (Workload.request conn (req "shutdown" []));
        Workload.close conn
      | Error _ -> ());
      Domain.join d)
  @@ fun () -> f socket

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let request_exn conn j =
  match Workload.request conn j with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_socket_differential () =
  with_server @@ fun socket ->
  let conn =
    match Workload.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Workload.close conn) @@ fun () ->
  let request =
    req "graph" [ src ring_source; ("process", Json.str "main") ]
  in
  let resp = request_exn conn request in
  let server_out, server_exit = outcome resp in
  with_temp_source ring_source @@ fun path ->
  let cli_out, cli_exit = run_cli [ "graph"; path; "-p"; "main" ] in
  check_string "socket graph output" cli_out server_out;
  check_int "socket graph exit" cli_exit server_exit

let test_client_disconnect_mid_request () =
  with_server @@ fun socket ->
  (* die mid-frame *)
  let fd = raw_connect socket in
  ignore (Unix.write_substring fd "{\"op\":\"pi" 0 9);
  Unix.close fd;
  (* die right after a complete request, without reading the answer *)
  let fd = raw_connect socket in
  let line = Json.to_string (req "ping" []) ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  (* the server must still answer fresh connections *)
  let conn =
    match Workload.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Workload.close conn) @@ fun () ->
  let resp = request_exn conn (req "ping" []) in
  check_bool "server alive" true
    (Json.mem_bool "ok" resp = Some true)

(* A client that submits an expensive job and vanishes before the
   answer is ready: the worker's eventual write hits a dead socket
   (EPIPE/ECONNRESET), which must be absorbed as a normal disconnect
   — not kill the worker or wedge the accept loop. *)
let test_disconnect_during_slow_job () =
  with_server ~jobs:2 @@ fun socket ->
  let slow =
    req "graph"
      [ src window_source; ("process", Json.str "main");
        ("max_states", Json.int 50_000) ]
  in
  let line = Json.to_string slow ^ "\n" in
  (* several in a row so at least one close lands mid-computation *)
  for _ = 1 to 3 do
    let fd = raw_connect socket in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd
  done;
  (* the pool must still answer fresh connections, including the very
     request the dead clients abandoned *)
  let conn =
    match Workload.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Workload.close conn) @@ fun () ->
  check_bool "server alive" true
    (Json.mem_bool "ok" (request_exn conn (req "ping" [])) = Some true);
  let _, code = outcome (request_exn conn slow) in
  check_int "abandoned request still answerable" 0 code

(* The source-context table is bounded: inserting more distinct
   sources than [max_sources] evicts the least recently used one.
   An evicted source is not an error — the next request on it just
   re-parses cold. *)
let test_source_table_bounded () =
  let cap = 4 in
  let limits =
    { Protocol.default_limits with Protocol.max_sources = cap }
  in
  let t = fresh_server ~limits () in
  let source i = Printf.sprintf "main = a!%d -> main\n" i in
  let parse i =
    let _, code = outcome (response t (req "parse" [ src (source i) ])) in
    check_int (Printf.sprintf "source %d parses" i) 0 code
  in
  for i = 0 to 9 do
    parse i;
    check_bool
      (Printf.sprintf "table bounded after %d distinct sources" (i + 1))
      true
      (Server.source_count t <= cap)
  done;
  check_int "table full at the cap" cap (Server.source_count t);
  (* source 0 was evicted long ago; it answers correctly when it
     comes back, through a cold re-parse *)
  parse 0;
  check_int "still at the cap after re-insert" cap (Server.source_count t);
  (* a hit refreshes recency: touch the oldest survivor, insert one
     more, and the touched source must still answer from cache while
     the table stays at the cap *)
  parse 7;
  parse 10;
  parse 7;
  check_int "bounded across hits and inserts" cap (Server.source_count t);
  (* the cached entries still do real work *)
  let out, code =
    outcome
      (response t
         (req "graph" [ src (source 7); ("process", Json.str "main") ]))
  in
  check_int "graph on cached source" 0 code;
  check_bool "graph output nonempty" true (String.length out > 0)

let test_socket_oversized_and_malformed () =
  let limits = { Protocol.default_limits with Protocol.max_frame = 1024 } in
  with_server ~limits @@ fun socket ->
  (* malformed frame: answered, connection stays usable *)
  let fd = raw_connect socket in
  let reader = Protocol.reader fd in
  ignore (Unix.write_substring fd "nonsense\n" 0 9);
  (match Protocol.read_frame reader with
  | `Frame f ->
    check_string "malformed kind" "malformed-frame"
      (error_kind
         (match Json.parse f with Ok j -> j | Error m -> Alcotest.fail m))
  | _ -> Alcotest.fail "no response to malformed frame");
  let line = Json.to_string (req "ping" []) ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  (match Protocol.read_frame reader with
  | `Frame f ->
    check_bool "usable after malformed" true
      (match Json.parse f with
      | Ok j -> Json.mem_bool "ok" j = Some true
      | Error _ -> false)
  | _ -> Alcotest.fail "no response after malformed frame");
  Unix.close fd;
  (* oversized frame: answered once, then the connection is dropped *)
  let fd = raw_connect socket in
  let reader = Protocol.reader fd in
  let big = String.make 4096 'a' in
  ignore (Unix.write_substring fd big 0 (String.length big));
  (match Protocol.read_frame reader with
  | `Frame f ->
    check_string "oversized kind" "frame-too-large"
      (error_kind
         (match Json.parse f with Ok j -> j | Error m -> Alcotest.fail m))
  | _ -> Alcotest.fail "no response to oversized frame");
  (match Protocol.read_frame reader with
  | `Eof -> ()
  | _ -> Alcotest.fail "connection not dropped after oversized frame");
  Unix.close fd;
  (* and the server survives both *)
  let conn =
    match Workload.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Workload.close conn) @@ fun () ->
  check_bool "server alive" true
    (Json.mem_bool "ok" (request_exn conn (req "ping" [])) = Some true)

(* With --jobs > 1 connections are dispatched onto the pool's
   stealing session; answers must be exactly the sequential ones. *)
let test_concurrent_jobs () =
  with_server ~jobs:2 @@ fun socket ->
  let conns =
    List.init 3 (fun _ ->
        match Workload.connect socket with
        | Ok c -> c
        | Error m -> Alcotest.fail m)
  in
  Fun.protect ~finally:(fun () -> List.iter Workload.close conns)
  @@ fun () ->
  List.iteri
    (fun i conn ->
      let source = Printf.sprintf "main = a!%d -> main\n" i in
      let resp =
        request_exn conn
          (req "graph" [ src source; ("process", Json.str "main") ])
      in
      let out, code = outcome resp in
      check_int (Printf.sprintf "conn %d exit" i) 0 code;
      check_bool
        (Printf.sprintf "conn %d labelled" i)
        true
        (String.length out > 0
        && String.sub out 0 1 = "1" (* one state, self loop *)))
    conns

(* Jobs dispatched onto the pool's stealing session share the closure
   memo tables: a repeated fuzz request must hit what the first one
   memoised, exactly as with --jobs 1. *)
let test_concurrent_jobs_share_memos () =
  with_server ~jobs:2 @@ fun socket ->
  let conn =
    match Workload.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Workload.close conn) @@ fun () ->
  let fuzz =
    req "fuzz"
      [ ("seed", Json.int 3); ("count", Json.int 20); ("stats", Json.Bool true) ]
  in
  ignore (request_exn conn fuzz);
  let memo_hits =
    match Json.member "stats" (request_exn conn fuzz) with
    | Some stats -> Option.value ~default:0 (Json.mem_int "closure.memo_hits" stats)
    | None -> Alcotest.fail "a stats:true reply carries no stats"
  in
  check_bool "second request hits the closure memos" true (memo_hits > 0)

(* ---- persistence through the server ------------------------------------ *)

let test_save_load_roundtrip () =
  let snap = Filename.temp_file "cspc-snap" ".cspc" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  let graph_req =
    req "graph" [ src ring_source; ("process", Json.str "main") ]
  in
  let prove_req = req "prove" [ src copier_source ] in
  let refine_req =
    req "refine"
      [ src refine_ok_source; ("impl", Json.str "impl");
        ("spec", Json.str "spec") ]
  in
  let cold = fresh_server () in
  let cold_answers =
    List.map (fun r -> outcome (response cold r))
      [ graph_req; prove_req; refine_req ]
  in
  (match Json.mem_bool "ok" (response cold (req "save" [ ("path", Json.str snap) ])) with
  | Some true -> ()
  | _ -> Alcotest.fail "save failed");
  (* a fresh process warm-started from the snapshot *)
  let warm = fresh_server ~warm:snap ()
  in
  check_bool "warm state has sources" true (Server.source_count warm >= 2);
  check_bool "warm state has compiled automata" true
    (Server.compiled_total warm >= 1);
  (* the first request after warm start recompiles nothing *)
  let (out, code), deltas =
    Obs.delta_snapshot (fun () -> outcome (response warm graph_req))
  in
  let delta name =
    Option.value ~default:0 (List.assoc_opt name deltas)
  in
  check_int "no compile misses on warm graph" 0 (delta "engine.compile_misses");
  check_bool "compile cache hit on warm graph" true
    (delta "engine.compile_hits" >= 1);
  let warm_answers =
    (out, code)
    :: List.map (fun r -> outcome (response warm r)) [ prove_req; refine_req ]
  in
  List.iteri
    (fun i ((cold_out, cold_code), (warm_out, warm_code)) ->
      check_string (Printf.sprintf "answer %d bytes" i) cold_out warm_out;
      check_int (Printf.sprintf "answer %d exit" i) cold_code warm_code)
    (List.combine cold_answers warm_answers)

let test_warm_refuses_damage () =
  let snap = Filename.temp_file "cspc-snap" ".cspc" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  let t = fresh_server () in
  ignore (response t (req "prove" [ src copier_source ]));
  (match Json.mem_bool "ok" (response t (req "save" [ ("path", Json.str snap) ])) with
  | Some true -> ()
  | _ -> Alcotest.fail "save failed");
  let img = slurp snap in
  let oc = open_out snap in
  output_string oc (String.sub img 0 (String.length img - 5));
  close_out oc;
  match Server.create (Server.config ~warm:snap "unused.sock") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a truncated warm snapshot must refuse to start"

let () =
  Alcotest.run "server"
    [
      ( "differential",
        [
          Alcotest.test_case "cli byte-identity" `Quick test_differential;
          Alcotest.test_case "fuzz (elapsed masked)" `Quick
            test_differential_fuzz;
          Alcotest.test_case "over a socket" `Quick test_socket_differential;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad requests" `Quick test_bad_requests;
          Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded;
        ] );
      ( "framing",
        [
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "carry across frames" `Quick test_frame_carry;
          Alcotest.test_case "partial frame is EOF" `Quick
            test_partial_frame_is_eof;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "mid-request disconnect" `Quick
            test_client_disconnect_mid_request;
          Alcotest.test_case "disconnect during slow job" `Quick
            test_disconnect_during_slow_job;
          Alcotest.test_case "source table bounded" `Quick
            test_source_table_bounded;
          Alcotest.test_case "oversized and malformed on socket" `Quick
            test_socket_oversized_and_malformed;
          Alcotest.test_case "concurrent jobs" `Quick test_concurrent_jobs;
          Alcotest.test_case "concurrent jobs share memos" `Quick
            test_concurrent_jobs_share_memos;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load byte-identity" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "damaged warm refused" `Quick
            test_warm_refuses_damage;
        ] );
    ]
