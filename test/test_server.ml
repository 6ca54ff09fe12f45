(* The verification service: differential byte-identity against the
   one-shot CLI binary, bounded framing, disconnect resilience,
   request budgets and warm-start persistence. *)

module Server = Csp_server.Server
module Protocol = Csp_server.Protocol
module Jobs = Csp_server.Jobs
module Snapshot = Csp_persist.Snapshot
module Json = Csp_persist.Json
module Obs = Csp_obs.Obs
module Coop = Csp_parallel.Coop

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

let counter name = Obs.Counter.get (Obs.Counter.make name)

let ctx_of source =
  match Jobs.ctx_of_source source with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* ---- the real binary --------------------------------------------------- *)

let run_cli = Test_support.run_cli

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

let protocol_source = slurp (Test_support.build_file "examples/protocol.csp")
let corpus_source f = slurp (Test_support.build_file ("test/corpus/" ^ f))
let copier_source = corpus_source "prover-sound-copier.csp"
let ring_source = corpus_source "closure-kernel-token-ring.csp"
let window_source = corpus_source "op-vs-deno-sliding-window.csp"
let multiplier_source =
  slurp (Test_support.build_file "examples/multiplier.csp")

(* A job that outlasts many 1 ms slices on a fresh server: the
   multiplier's network at nat 2 compiles 3083 states. *)
let slow_graph =
  req "graph"
    [ src multiplier_source; ("process", Json.str "network");
      ("nat", Json.int 2); ("max_states", Json.int 50_000) ]

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

(* An unguarded definition is bad input on both surfaces: serve answers
   [bad-request] naming it, and the CLI prints the same message and
   exits 1. *)
let unguarded_source = "P = P\nQ = a!0 -> STOP | P\nR = a!0 -> STOP\n"

let unguarded_message =
  "process P is unguarded: unfolding it reaches no communication"

let test_unguarded () =
  let t = fresh_server () in
  List.iter
    (fun (label, op, kvs) ->
      let resp = response t (req op (src unguarded_source :: kvs)) in
      check_string (label ^ ": kind") "bad-request" (error_kind resp);
      check_string (label ^ ": message") unguarded_message
        (Option.value ~default:"" (Json.mem_str "error" resp)))
    [
      ("refine", "refine", [ ("impl", Json.str "R"); ("spec", Json.str "Q") ]);
      ( "refine weak",
        "refine",
        [ ("impl", Json.str "Q"); ("spec", Json.str "R");
          ("weak", Json.Bool true) ] );
      ("graph", "graph", [ ("process", Json.str "Q") ]);
    ];
  (* a failed compile leaves no root for a snapshot to replay *)
  let ctx = ctx_of unguarded_source in
  check_bool "graph refused" true
    (Result.is_error
       (Jobs.graph ctx ~process:"Q" ~max_states:100 ~nat_bound:3
          ~compiled:true));
  check_bool "weak refine refused" true
    (Result.is_error
       (Jobs.refine ctx ~impl:"R" ~spec:"Q" ~depth:5 ~nat_bound:3 ~weak:true));
  check_int "compile roots recorded" 1 (List.length ctx.Jobs.compiled_roots);
  (* a snapshot an older server wrote with such a root still loads *)
  let snap = Filename.temp_file "cspc-unguarded" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      Snapshot.save snap
        {
          Snapshot.entries =
            [
              {
                Snapshot.source = unguarded_source;
                compiled =
                  [ { Snapshot.process = "Q"; budget = Some 100;
                      nat_bound = 3 } ];
                certs = "";
              };
            ];
        };
      let resp = response t (req "load" [ ("path", Json.str snap) ]) in
      check_bool "snapshot with an unguarded root loads" true
        (Json.mem_bool "ok" resp = Some true));
  with_temp_source unguarded_source @@ fun path ->
  List.iter
    (fun args ->
      let label = String.concat " " (List.hd args :: List.tl (List.tl args)) in
      let out, code = run_cli ~stderr:true args in
      check_string (label ^ ": message") (unguarded_message ^ "\n") out;
      check_int (label ^ ": exit") 1 code)
    [
      [ "refine"; path; "-p"; "R"; "-s"; "Q" ];
      [ "graph"; path; "-p"; "Q" ];
      [ "traces"; path; "-p"; "Q" ];
    ]

(* Naming a process array without a subscript is bad input on both
   surfaces too: serve answers [bad-request] naming the array, and the
   CLI prints the same message and exits 1. *)
let test_array_name () =
  let t = fresh_server () in
  let window_example =
    slurp (Test_support.build_file "examples/sliding_window.csp")
  in
  List.iter
    (fun (file, source, array, other) ->
      let message =
        Printf.sprintf "process %s is a process array and needs a subscript"
          array
      in
      List.iter
        (fun (label, op, kvs) ->
          let label = Printf.sprintf "%s %s" array label in
          let resp = response t (req op (src source :: kvs)) in
          check_string (label ^ ": kind") "bad-request" (error_kind resp);
          check_string (label ^ ": message") message
            (Option.value ~default:"" (Json.mem_str "error" resp)))
        [
          ("graph", "graph", [ ("process", Json.str array) ]);
          ( "refine impl",
            "refine",
            [ ("impl", Json.str array); ("spec", Json.str other) ] );
          ( "refine spec",
            "refine",
            [ ("impl", Json.str other); ("spec", Json.str array) ] );
        ];
      let path = Test_support.build_file file in
      List.iter
        (fun args ->
          let label = String.concat " " (List.hd args :: List.tl (List.tl args)) in
          let out, code = run_cli ~stderr:true args in
          check_string (label ^ ": message") (message ^ "\n") out;
          check_int (label ^ ": exit") 1 code)
        [
          [ "refine"; path; "-p"; array; "-s"; other ];
          [ "graph"; path; "-p"; array ];
          [ "traces"; path; "-p"; array; "-d"; "2" ];
        ])
    [
      ("examples/protocol.csp", protocol_source, "q", "sender");
      ("examples/sliding_window.csp", window_example, "pending", "sender");
    ]

(* A weak check that stops at its 2000-state bound decides nothing: it
   reads unknown, not false.  copier-chain-8 has 65 537 states at nat 3
   and 257 at nat 1. *)
let test_weak_truncated () =
  let chain8 =
    let defs, chain = Csp.Paper.Copier.chain_defs 8 in
    Csp_syntax.Printer.defs (Csp.Defs.define "chain" chain defs)
  in
  let window2 =
    let w = Csp.Models.Sliding_window.make ~w:2 in
    Csp_syntax.Printer.defs
      (w.Csp.Models.Sliding_window.defs
      |> Csp.Defs.define "system" w.Csp.Models.Sliding_window.system
      |> Csp.Defs.define "spec" w.Csp.Models.Sliding_window.spec)
  in
  let t = fresh_server () in
  List.iter
    (fun (source, impl, spec, nat, expected) ->
      let request =
        req "refine"
          [ src source; ("impl", Json.str impl); ("spec", Json.str spec);
            ("nat", Json.int nat); ("weak", Json.Bool true) ]
      in
      let label = Printf.sprintf "%s/%s at nat %d" impl spec nat in
      let line =
        Printf.sprintf "%s and %s weakly bisimilar (bounded): %s\n" impl spec
          expected
      in
      let out, code = outcome (response t request) in
      check_string (label ^ ": serve") line out;
      check_int (label ^ ": serve exit") 0 code;
      with_temp_source source @@ fun path ->
      let out, code =
        run_cli
          [ "refine"; path; "-p"; impl; "-s"; spec; "--nat-bound";
            string_of_int nat; "--weak" ]
      in
      check_string (label ^ ": cli") line out;
      check_int (label ^ ": cli exit") 0 code)
    [
      (chain8, "chain", "chain", 3, "unknown (truncated at 2000 states)");
      (chain8, "chain", "chain", 1, "true");
      (window2, "system", "spec", 3, "true");
    ]

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
      | `Frame _ | `Partial | `Eof ->
        Alcotest.fail "oversized frame not rejected")

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
      | `Frame _ | `Partial | `Too_large ->
        Alcotest.fail "partial frame at EOF must read as EOF")

(* On a non-blocking descriptor a frame may arrive in pieces: a read
   that ends mid-frame answers [`Partial] and keeps the bytes, also
   behind a frame the same read completed. *)
let test_partial_frames_kept () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ r; w ])
  @@ fun () ->
  Unix.set_nonblock r;
  let reader = Protocol.reader ~max_frame:1024 r in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  let expect what =
    match (Protocol.read_frame reader, what) with
    | `Partial, None -> ()
    | `Frame f, Some frame -> check_string "frame" frame f
    | _ -> Alcotest.fail "unexpected read_frame result"
  in
  expect None;
  List.iter
    (fun piece ->
      write piece;
      expect None)
    [ "{\"op\""; ":\"pi"; "ng\"" ];
  write "}\n{\"op\"";
  expect (Some "{\"op\":\"ping\"}");
  expect None;
  write ":1}\n";
  expect (Some "{\"op\":1}")

(* ---- a live socket server ---------------------------------------------- *)

let with_server ?limits ?warm f =
  let socket = Filename.temp_file "cspc-serve" ".sock" in
  Sys.remove socket;
  let cfg = Server.config ?limits ?warm socket in
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
      (match Protocol.connect socket with
      | Ok conn ->
        ignore (Protocol.request conn (req "shutdown" []));
        Protocol.close conn
      | Error _ -> ());
      Domain.join d)
  @@ fun () -> f socket

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let request_exn conn j =
  match Protocol.request conn j with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_socket_differential () =
  with_server @@ fun socket ->
  let conn =
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
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
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
  let resp = request_exn conn (req "ping" []) in
  check_bool "server alive" true
    (Json.mem_bool "ok" resp = Some true)

(* Clients that submit an expensive job and vanish before the answer
   is ready: each graph is cancelled while paused holding its source
   context's lock (the later ones while waiting for it), and the
   cancellation must release the lock — not wedge the source or the
   accept loop. *)
let test_disconnect_during_slow_job () =
  let cancelled0 = counter "serve.cancelled" in
  with_server @@ fun socket ->
  let line = Json.to_string slow_graph ^ "\n" in
  for _ = 1 to 3 do
    let fd = raw_connect socket in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd
  done;
  (* the server must still answer fresh connections, including the
     very request the dead clients abandoned *)
  let conn =
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
  check_bool "server alive" true
    (Json.mem_bool "ok" (request_exn conn (req "ping" [])) = Some true);
  let _, code = outcome (request_exn conn slow_graph) in
  check_int "abandoned request still answerable" 0 code;
  check_bool "an abandoned graph was cancelled" true
    (counter "serve.cancelled" > cancelled0)

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
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
  check_bool "server alive" true
    (Json.mem_bool "ok" (request_exn conn (req "ping" [])) = Some true)

(* Three connections on one server: answers must be exactly the
   sequential ones. *)
let test_concurrent_jobs () =
  with_server @@ fun socket ->
  let conns =
    List.init 3 (fun _ ->
        match Protocol.connect socket with
        | Ok c -> c
        | Error m -> Alcotest.fail m)
  in
  Fun.protect ~finally:(fun () -> List.iter Protocol.close conns)
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

(* Jobs share the closure memo tables: a repeated fuzz request must
   hit what the first one memoised. *)
let test_concurrent_jobs_share_memos () =
  with_server @@ fun socket ->
  let conn =
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
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

(* ---- cooperative slices ----------------------------------------------- *)

let send fd j =
  let line = Json.to_string j ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

(* One reply per connection, listed in the order they arrived. *)
let replies_in_order conns =
  let pending =
    ref
      (List.map
         (fun (label, fd) ->
           (label, fd, Protocol.reader ~max_frame:(64 * 1024 * 1024) fd))
         conns)
  in
  let order = ref [] in
  while !pending <> [] do
    match Unix.select (List.map (fun (_, fd, _) -> fd) !pending) [] [] 60. with
    | [], _, _ -> Alcotest.fail "no reply within 60 s"
    | ready, _, _ ->
      List.iter
        (fun (label, fd, reader) ->
          if List.mem fd ready then begin
            (match Protocol.read_frame reader with
            | `Frame f -> (
              match Json.parse f with
              | Ok j -> order := (label, j) :: !order
              | Error m -> Alcotest.failf "%s: bad reply: %s" label m)
            | `Partial | `Eof | `Too_large ->
              Alcotest.failf "%s: no reply" label);
            pending := List.filter (fun (_, fd', _) -> fd' <> fd) !pending
          end)
        !pending
  done;
  List.rev !order

(* Two raw connections, [b] opened first: the poller serves the newer
   connection first when both have a frame, so [a]'s request, sent
   first, also starts first. *)
let with_two_clients socket f =
  let b = raw_connect socket in
  let a = raw_connect socket in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) @@ fun () -> f a b

let fuzz_req ?(stats = false) count =
  req "fuzz"
    ([ ("seed", Json.int 5); ("count", Json.int count) ]
    @ if stats then [ ("stats", Json.Bool true) ] else [])

let parse_req = req "parse" [ src protocol_source ]

(* A batch fuzz no longer holds up an interactive parse, and its own
   reply is the one an idle server gives. *)
let test_slice_interactive_first () =
  let idle_out, idle_exit =
    outcome (response (fresh_server ()) (fuzz_req 60))
  in
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  send a (fuzz_req 60);
  Unix.sleepf 0.02;
  send b parse_req;
  match replies_in_order [ ("fuzz", a); ("parse", b) ] with
  | [ ("parse", p); ("fuzz", f) ] ->
    check_bool "parse ok" true (Json.mem_bool "ok" p = Some true);
    let out, code = outcome f in
    check_string "fuzz output (elapsed masked)" (mask_elapsed idle_out)
      (mask_elapsed out);
    check_int "fuzz exit" idle_exit code
  | order ->
    Alcotest.failf "replies in order %s"
      (String.concat ", " (List.map fst order))

(* Two long graph jobs on one source: the second waits for the
   context the first holds while it is paused, and both answer with
   the sequential bytes. *)
let test_slice_same_source () =
  let expected = outcome (response (fresh_server ()) slow_graph) in
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  send a slow_graph;
  send b slow_graph;
  List.iter
    (fun (label, reply) ->
      check_bool (label ^ " ok") true (Json.mem_bool "ok" reply = Some true);
      check_bool (label ^ " sequential bytes") true (outcome reply = expected))
    (replies_in_order [ ("a", a); ("b", b) ])

(* A [stats:true] job runs unsliced, so a parse sent behind it waits. *)
let test_slice_stats_unsliced () =
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  send a (fuzz_req ~stats:true 60);
  Unix.sleepf 0.02;
  send b parse_req;
  match replies_in_order [ ("fuzz", a); ("parse", b) ] with
  | [ ("fuzz", f); ("parse", _) ] -> (
    match Json.member "stats" f with
    | Some stats ->
      check_int "the fuzz's own cases" 60
        (Option.value ~default:0 (Json.mem_int "fuzz.cases" stats))
    | None -> Alcotest.fail "a stats:true reply carries no stats")
  | order ->
    Alcotest.failf "replies in order %s"
      (String.concat ", " (List.map fst order))

(* A client that leaves while its job is paused has the job cancelled;
   the server keeps answering. *)
let test_slice_cancel_on_disconnect () =
  let cancelled0 = counter "serve.cancelled" in
  let cases0 = counter "fuzz.cases" in
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  send fd (fuzz_req 5000);
  Unix.sleepf 0.02;
  Unix.close fd;
  let t0 = Unix.gettimeofday () in
  while counter "serve.cancelled" = cancelled0 do
    if Unix.gettimeofday () -. t0 > 30. then
      Alcotest.fail "the abandoned job was not cancelled";
    Unix.sleepf 0.005
  done;
  let conn =
    match Protocol.connect socket with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Protocol.close conn) @@ fun () ->
  check_bool "ping answered" true
    (Json.mem_bool "ok" (request_exn conn (req "ping" [])) = Some true);
  check_int "one job cancelled" 1 (counter "serve.cancelled" - cancelled0);
  let cases = counter "fuzz.cases" - cases0 in
  check_bool
    (Printf.sprintf "cancelled early (%d of 5000 cases run)" cases)
    true (cases < 1000)

(* [shutdown] while a job is paused: the job is cancelled, its client
   sees the connection close, and the server domain returns
   ([with_server] joins it). *)
let test_slice_shutdown_cancels () =
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  send a (fuzz_req 5000);
  Unix.sleepf 0.02;
  send b (req "shutdown" []);
  (match Protocol.read_frame (Protocol.reader b) with
  | `Frame _ -> ()
  | _ -> Alcotest.fail "shutdown not answered");
  match Protocol.read_frame (Protocol.reader a) with
  | `Eof -> ()
  | _ -> Alcotest.fail "the paused job answered after shutdown"

(* ---- one client never blocks the loop --------------------------------- *)

(* The next reply on [fd], or a failure once [seconds] pass without
   one starting: [select] bounds the wait, so a stalled server fails
   the test instead of hanging it. *)
let reply_within label seconds fd reader =
  if not (Protocol.buffered_frame reader) then begin
    match Unix.select [ fd ] [] [] seconds with
    | [], _, _ -> Alcotest.failf "%s: no reply within %.0f s" label seconds
    | _ -> ()
  end;
  match Protocol.read_frame reader with
  | `Frame f -> (
    match Json.parse f with
    | Ok j -> j
    | Error m -> Alcotest.failf "%s: bad reply: %s" label m)
  | `Partial | `Eof | `Too_large -> Alcotest.failf "%s: no reply" label

let pong label j =
  check_bool (label ^ " answered") true (Json.mem_bool "pong" j = Some true)

(* A client that sent half a frame and stays connected holds up
   nobody: another client's ping is answered at once, and the first
   client's own ping once its frame ends. *)
let test_half_frame_blocks_nobody () =
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  let write fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  write a "{\"op\":\"ping\"";
  Unix.sleepf 0.05;
  send b (req "ping" []);
  pong "b's ping" (reply_within "b's ping" 5. b (Protocol.reader b));
  write a "}\n";
  pong "a's ping" (reply_within "a's ping" 5. a (Protocol.reader a))

(* A reply larger than the socket buffer, left unread, holds up
   nobody: the fuzz that finishes after it is answered first, and the
   graph reply then arrives whole, with an idle server's bytes. *)
let test_unread_reply_blocks_nobody () =
  let idle = outcome (response (fresh_server ()) slow_graph) in
  with_server @@ fun socket ->
  with_two_clients socket @@ fun a b ->
  send a (fuzz_req 30);
  send b slow_graph;
  let f = reply_within "fuzz" 20. a (Protocol.reader a) in
  check_bool "fuzz ok" true (Json.mem_bool "ok" f = Some true);
  let g =
    reply_within "graph" 60. b
      (Protocol.reader ~max_frame:(64 * 1024 * 1024) b)
  in
  check_bool "graph bytes are an idle server's" true (outcome g = idle)

(* A frame pipelined behind a reply the socket has not taken yet
   waits for it: replies leave in request order. *)
let test_pipelined_behind_pending_reply () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd slow_graph;
  send fd (req "ping" []);
  (* let the graph reply fill the socket before reading *)
  Unix.sleepf 0.3;
  let reader = Protocol.reader ~max_frame:(64 * 1024 * 1024) fd in
  let g = reply_within "graph" 60. fd reader in
  check_bool "the graph first" true (Json.mem_str "op" g = Some "graph");
  pong "the pipelined ping" (reply_within "ping" 5. fd reader)

(* Spans keep their depths under slicing: a graph that runs while a
   fuzz is paused inside a span records its spans at the depths of a
   solo run. *)
let test_slice_span_depths () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let rec finish = function
    | Coop.Done _ -> ()
    | Coop.Paused k -> finish (Effect.Deep.continue k ())
  in
  let line j = Json.to_string j in
  let graph_spans t =
    Obs.clear_events ();
    finish (Coop.slice (fun () -> Server.handle_line t (line slow_graph)));
    List.filter_map
      (fun (e : Obs.event) ->
        if List.mem e.Obs.name [ "compile"; "explore-compiled"; "to_dot" ]
        then Some (e.Obs.name, e.Obs.depth)
        else None)
      (Obs.events ())
  in
  let solo = graph_spans (fresh_server ()) in
  check_int "three graph spans" 3 (List.length solo);
  let t = fresh_server () in
  match
    Coop.slice (fun () ->
        Obs.span "batch" (fun () -> Server.handle_line t (line (fuzz_req 60))))
  with
  | Coop.Done _ -> Alcotest.fail "the fuzz did not pause"
  | Coop.Paused k ->
    let interleaved = graph_spans t in
    finish (Effect.Deep.continue k ());
    Alcotest.(check (list (pair string int)))
      "span depths of a solo run" solo interleaved;
    check_int "the caller's depth after both jobs" 0 (Obs.span_depth ())

(* ---- frames: each reply written once, byte for byte the tree's -------- *)

module Dot = Csp.Dot

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* [elapsed_ms] is the one field two runs of a reply may differ in: its
   number reads 0.  Inside a string every quote is escaped, so the key
   is found only where the field is. *)
let mask_ms line =
  let key = "\"elapsed_ms\":" in
  match find_sub line key with
  | None -> line
  | Some i ->
    let j = i + String.length key in
    let k = ref j in
    while
      !k < String.length line && String.contains "0123456789.-+eE" line.[!k]
    do
      incr k
    done;
    String.sub line 0 j ^ "0" ^ String.sub line !k (String.length line - !k)

(* A request and the frame an in-process tree gives for it: the
   outcome of a cold [Jobs] call printed by [Json.to_string]. *)
let graph_case ?id ?(max_states = 2000) ?(nat = 3) source process =
  let request =
    Json.Obj
      ((match id with Some i -> [ ("id", i) ] | None -> [])
      @ [ ("op", Json.str "graph"); src source; ("process", Json.str process);
          ("max_states", Json.int max_states); ("nat", Json.int nat) ])
  in
  let o =
    match
      Jobs.graph (ctx_of source) ~process ~max_states ~nat_bound:nat
        ~compiled:true
    with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  ( request,
    Json.to_string
      (Protocol.ok_response ~id:(Option.value ~default:Json.Null id)
         ~op:"graph" ~output:o.Jobs.output ~exit_code:o.Jobs.exit_code
         ~elapsed_ms:0. ()) )

let deadlock_source = "main = a!0 -> STOP\n"

let graph_cases () =
  [
    ("ring", graph_case ~id:(Json.int 1) ring_source "main");
    ( "window at 5 states",
      graph_case ~id:(Json.int 2) ~max_states:5 window_source "main" );
    ( "multiplier network",
      graph_case ~id:(Json.int 3) ~nat:2 ~max_states:50_000 multiplier_source
        "network" );
    ("a deadlock state", graph_case ~id:(Json.int 4) deadlock_source "main");
    ( "a hidden edge",
      graph_case ~id:(Json.int 5)
        (corpus_source "closure-kernel-par-hide.csp")
        "main" );
  ]

let id_cases () =
  List.map
    (fun (label, id) -> ("id " ^ label, graph_case ?id ring_source "main"))
    [
      ("absent", None);
      ("an int", Some (Json.int 7));
      ("a string with quote and backslash", Some (Json.str "a\"b\\c"));
      ("an array", Some (Json.Arr [ Json.int 1; Json.str "x" ]));
      ( "an object",
        Some (Json.Obj [ ("k", Json.Arr []); ("q", Json.str "\"") ]) );
    ]

let check_frame label expected line =
  check_string label (mask_ms expected) (mask_ms line)

let test_frames_graph () =
  let t = fresh_server () in
  let cases = graph_cases () in
  (* each graph draws what it is there for *)
  List.iter2
    (fun (label, (_, expected)) (feature, min_bytes) ->
      check_bool (label ^ " draws " ^ feature) true
        (find_sub expected feature <> None
        && String.length expected >= min_bytes))
    cases
    [ ("[style=bold]", 0); ("style=dashed];", 0); ("[shape=circle]", 300_000);
      ("doublecircle", 0); ("\\\", style=dashed];", 0) ];
  List.iter
    (fun (label, (request, expected)) ->
      check_frame label expected
        (Server.handle_line t (Json.to_string request)))
    (cases @ id_cases ())

(* The other ops' replies, an error reply and a [stats:true] reply. *)
let test_frames_other_ops () =
  let t = fresh_server () in
  let line request = Server.handle_line t (Json.to_string request) in
  let ok ~op (o : Jobs.outcome) =
    Json.to_string
      (Protocol.ok_response ~id:Json.Null ~op ~output:o.Jobs.output
         ~exit_code:o.Jobs.exit_code ~elapsed_ms:0. ())
  in
  let get = function Ok o -> o | Error m -> Alcotest.fail m in
  check_frame "parse" (ok ~op:"parse" (Jobs.parse (ctx_of protocol_source)))
    (line parse_req);
  check_frame "refine"
    (ok ~op:"refine"
       (get
          (Jobs.refine (ctx_of refine_fail_source) ~impl:"impl" ~spec:"spec"
             ~depth:5 ~nat_bound:3 ~weak:false)))
    (line
       (req "refine"
          [ src refine_fail_source; ("impl", Json.str "impl");
            ("spec", Json.str "spec") ]));
  check_frame "prove"
    (ok ~op:"prove" (Jobs.prove (ctx_of copier_source) ~verbose:false))
    (line (req "prove" [ src copier_source ]));
  check_string "fuzz"
    (mask_elapsed
       (mask_ms
          (ok ~op:"fuzz"
             (get
                (Jobs.fuzz ~seed:5 ~count:10 ~budget:None ~oracle_names:[] ())))))
    (mask_elapsed (mask_ms (line (fuzz_req 10))));
  let undefined =
    Json.Obj
      [ ("id", Json.str "u"); ("op", Json.str "graph"); src deadlock_source;
        ("process", Json.str "nope") ]
  in
  check_string "an error reply"
    (Json.to_string
       (Protocol.error_response ~id:(Json.str "u") Protocol.Bad_request
          "process nope is not defined"))
    (line undefined);
  let request, _ = graph_case ring_source "main" in
  let request =
    match request with
    | Json.Obj kvs -> Json.Obj (kvs @ [ ("stats", Json.Bool true) ])
    | j -> j
  in
  let reply = line request in
  let stats =
    match Json.parse reply with
    | Ok j -> (
      match Json.member "stats" j with
      | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, Option.get (Json.to_int v))) kvs
      | _ -> Alcotest.fail "a stats:true reply carries no stats")
    | Error m -> Alcotest.fail m
  in
  let o =
    get
      (Jobs.graph (ctx_of ring_source) ~process:"main" ~max_states:2000
         ~nat_bound:3 ~compiled:true)
  in
  check_frame "stats:true"
    (Json.to_string
       (Protocol.ok_response ~id:Json.Null ~op:"graph" ~output:o.Jobs.output
          ~exit_code:0 ~stats ~elapsed_ms:0. ()))
    reply

(* The raw bytes up to and including the next newline; one request is
   outstanding, so nothing follows them. *)
let raw_line fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.select [ fd ] [] [] 60. with
    | [], _, _ -> Alcotest.fail "no reply within 60 s"
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Alcotest.fail "server closed the connection"
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        if Bytes.get chunk (k - 1) = '\n' then Buffer.contents buf else go ())
  in
  go ()

(* Over a socket each reply is one line, [Json.to_line] of the tree. *)
let test_frames_socket () =
  let cases = graph_cases () @ id_cases () in
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun (label, (request, expected)) ->
      send fd request;
      let line = raw_line fd in
      check_frame label (expected ^ "\n") line;
      check_bool (label ^ ": one line") true
        (String.index line '\n' = String.length line - 1))
    cases

(* One connection's buffer carries a long reply, then shorter ones,
   then the long one again: no byte of a reply survives into the
   next. *)
let test_frames_reused_buffer () =
  let requests =
    [
      slow_graph;
      req "graph" [ src ring_source; ("process", Json.str "main") ];
      req "graph" [ src ring_source; ("process", Json.str "nope") ];
      slow_graph;
    ]
  in
  let idle =
    List.map
      (fun r -> Server.handle_line (fresh_server ()) (Json.to_string r))
      requests
  in
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter (send fd) requests;
  let reader = Protocol.reader ~max_frame:(64 * 1024 * 1024) fd in
  List.iteri
    (fun i expected ->
      let label = Printf.sprintf "reply %d" (i + 1) in
      match Protocol.read_frame reader with
      | `Frame line -> check_frame label expected line
      | `Partial | `Eof | `Too_large -> Alcotest.failf "%s: no reply" label)
    idle

(* A warm graph reply reads the cached automaton's rows in place and
   renders them straight into the connection's buffer: warm
   copier-chain-7 replies on a reused buffer allocate less than half
   their frame's bytes each.  A copy of the rows or a scratch buffer
   per reply would each cost about as much as the frame.  The count is
   a mean over ten replies: [Gc.allocated_bytes] takes in the minor
   heap's words only at a minor collection, so one reply reads either
   its major allocations alone or a whole minor heap besides. *)
let test_frames_warm_allocation () =
  let chain7 =
    let defs, chain = Csp.Paper.Copier.chain_defs 7 in
    Csp_syntax.Printer.defs (Csp.Defs.define "chain" chain defs)
  in
  let request, expected =
    graph_case ~max_states:20_000 ~nat:3 chain7 "chain"
  in
  let line = Json.to_string request in
  let t = fresh_server () in
  let buf = Buffer.create 4096 in
  let reply () =
    Buffer.clear buf;
    Server.handle_into t buf line
  in
  (* the first reply compiles, the second is the first warm one *)
  reply ();
  reply ();
  let replies = 10 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to replies do
    reply ()
  done;
  let allocated = (Gc.allocated_bytes () -. before) /. float_of_int replies in
  let frame = Buffer.contents buf in
  check_frame "a warm reply" expected frame;
  check_bool
    (Printf.sprintf "%.0f bytes allocated per reply for a %d-byte frame"
       allocated (String.length frame))
    true
    (allocated < float_of_int (String.length frame) /. 2.)

(* The JSON sink writes [Json.escape] of what the identity sink
   writes, over labels, names and headers that need every escape. *)
let dot_sinks_property =
  let open QCheck2.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x80 0xff));
        (3, char);
      ]
  in
  let text =
    map (String.concat "")
      (list_size (int_range 0 6)
         (oneof
            [ string_size ~gen:byte (int_range 0 6);
              oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\"\\" ] ]))
  in
  let value =
    oneof
      [ map (fun s -> Csp.Value.Str s) text; map (fun s -> Csp.Value.Sym s) text ]
  in
  let event =
    map2
      (fun c v -> Csp.Event.make (Csp.Channel.make c) v)
      (oneofl [ "a"; "b\"c"; "d\\e" ])
      value
  in
  let graph =
    int_range 1 5 >>= fun n ->
    let state = int_range 0 (n - 1) in
    map3
      (fun edges truncated (initial, complete) ->
        Dot.of_transitions ~initial ~n_states:n ~complete
          ~truncated:(Array.of_list truncated) ~n_edges:(List.length edges)
          (fun add -> List.iter (fun (s, e, v, t) -> add s e v t) edges))
      (list_size (int_range 0 8) (quad state event bool state))
      (list_repeat n bool)
      (pair state bool)
  in
  let name =
    oneof
      [ oneofl [ "lts"; "a b"; "node"; "Graph"; "x\"y"; "1abc"; ""; "back\\slash" ];
        text ]
  in
  let case = triple graph name text in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"the JSON sink writes Json.escape of the identity sink"
       ~print:(fun (_, name, header) ->
         Printf.sprintf "name %S header %S" name header)
       case (fun (g, name, header) ->
         let text = Dot.render ~name ~header ~status:Jobs.status_line g in
         let buf = Buffer.create 16 in
         Buffer.add_string buf "{";
         Dot.write ~escape:Json.escape ~name ~header ~status:Jobs.status_line buf g;
         let written = Buffer.contents buf in
         String.equal written ("{" ^ Json.escape text)
         && String.equal written
              ("{" ^ (let s = Json.to_string (Json.Str text) in
                      String.sub s 1 (String.length s - 2)))))

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
          Alcotest.test_case "unguarded definition" `Quick test_unguarded;
          Alcotest.test_case "process array without a subscript" `Quick
            test_array_name;
          Alcotest.test_case "weak check truncated" `Quick test_weak_truncated;
        ] );
      ( "framing",
        [
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "carry across frames" `Quick test_frame_carry;
          Alcotest.test_case "partial frame is EOF" `Quick
            test_partial_frame_is_eof;
          Alcotest.test_case "partial frames kept" `Quick
            test_partial_frames_kept;
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
      ( "slicing",
        [
          Alcotest.test_case "interactive before batch" `Quick
            test_slice_interactive_first;
          Alcotest.test_case "same source waits" `Quick test_slice_same_source;
          Alcotest.test_case "stats:true unsliced" `Quick
            test_slice_stats_unsliced;
          Alcotest.test_case "cancel on disconnect" `Quick
            test_slice_cancel_on_disconnect;
          Alcotest.test_case "shutdown cancels paused jobs" `Quick
            test_slice_shutdown_cancels;
          Alcotest.test_case "span depths of a solo run" `Quick
            test_slice_span_depths;
        ] );
      ( "stalls",
        [
          Alcotest.test_case "half a frame blocks nobody" `Quick
            test_half_frame_blocks_nobody;
          Alcotest.test_case "an unread reply blocks nobody" `Quick
            test_unread_reply_blocks_nobody;
          Alcotest.test_case "pipelined frames wait for a pending reply"
            `Quick test_pipelined_behind_pending_reply;
        ] );
      ( "frames",
        [
          Alcotest.test_case "graph replies" `Quick test_frames_graph;
          Alcotest.test_case "other ops, errors, stats" `Quick
            test_frames_other_ops;
          Alcotest.test_case "over a socket" `Quick test_frames_socket;
          Alcotest.test_case "a reused buffer" `Quick test_frames_reused_buffer;
          Alcotest.test_case "a warm reply's allocation" `Quick
            test_frames_warm_allocation;
          dot_sinks_property;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load byte-identity" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "damaged warm refused" `Quick
            test_warm_refuses_damage;
        ] );
    ]
