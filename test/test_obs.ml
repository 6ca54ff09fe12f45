(* The observability layer: the atomic metric registry, span buffers,
   the machine-readable exports, and the dormant-by-default contract
   (a disabled run must record no events at all).

   The registry is process-global and tests in this binary toggle the
   global telemetry switch, so every test that enables it restores the
   dormant default — ordering between test cases never matters. *)

open Csp

let with_telemetry f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.clear_events ())
    f

(* ---- a minimal JSON reader ------------------------------------------- *)

(* Just enough of RFC 8259 to validate our own emitters (no JSON
   library ships in the test environment, and depending on one for a
   schema check would defeat the point: the export must be plain
   enough to parse by hand). *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?' (* outside our emitters *)
          | None -> fail "bad \\u escape");
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        J_obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        J_arr (elements [])
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('0' .. '9' | '-') -> J_num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | J_obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* ---- metric registry -------------------------------------------------- *)

let test_counter_parallel () =
  let c = Obs.Counter.make "test.obs.parallel" in
  let before = Obs.Counter.get c in
  let domains = 4 and per_domain = 25_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int)
    "no lost increments across domains"
    (before + (domains * per_domain))
    (Obs.Counter.get c)

let test_registry_interns_by_name () =
  let a = Obs.Counter.make "test.obs.shared" in
  let b = Obs.Counter.make "test.obs.shared" in
  let before = Obs.Counter.get a in
  Obs.Counter.incr b;
  Alcotest.(check int)
    "make with the same name returns the same instrument" (before + 1)
    (Obs.Counter.get a)

let test_counters_live_while_disabled () =
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.obs.dormant" in
  let before = Obs.Counter.get c in
  Obs.Counter.add c 7;
  Alcotest.(check int)
    "counters count even when telemetry is off" (before + 7)
    (Obs.Counter.get c)

let test_timer_gated_on_enabled () =
  let t = Obs.Timer.make "test.obs.timer" in
  Obs.set_enabled false;
  let before = Obs.Timer.count t in
  Alcotest.(check int) "disabled Timer.time runs the thunk" 42
    (Obs.Timer.time t (fun () -> 42));
  Alcotest.(check int) "…without recording" before (Obs.Timer.count t);
  with_telemetry (fun () ->
      ignore (Obs.Timer.time t (fun () -> Sys.opaque_identity 1));
      Alcotest.(check int) "enabled Timer.time records" (before + 1)
        (Obs.Timer.count t))

let test_timer_histogram () =
  let t = Obs.Timer.make "test.obs.hist" in
  Obs.Timer.observe_ns t 1500.0;
  (* 2^10 = 1024 ≤ 1500 < 2048 = 2^11 → slot 10 *)
  let buckets = Obs.Timer.buckets t in
  Alcotest.(check bool) "log₂ slot occupied" true (buckets.(10) >= 1);
  Alcotest.(check bool) "max tracked" true (Obs.Timer.max_ns t >= 1500.0);
  Alcotest.(check bool) "total accumulates" true (Obs.Timer.total_ns t >= 1500.0)

let test_reset_zeroes_metrics_only () =
  with_telemetry (fun () ->
      let c = Obs.Counter.make "test.obs.reset.c" in
      let g = Obs.Gauge.make "test.obs.reset.g" in
      let t = Obs.Timer.make "test.obs.reset.t" in
      Obs.Counter.add c 3;
      Obs.Gauge.set g 2.5;
      Obs.Timer.observe_ns t 10.0;
      Obs.span ~cat:"test" "reset-span" (fun () -> ());
      let events_before = Obs.event_count () in
      Alcotest.(check bool) "a span was recorded" true (events_before > 0);
      Obs.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.get c);
      Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (Obs.Gauge.get g);
      Alcotest.(check int) "timer zeroed" 0 (Obs.Timer.count t);
      Alcotest.(check int)
        "the event log survives reset" events_before (Obs.event_count ()))

let value_testable =
  let pp ppf v = Format.pp_print_string ppf (Obs.string_of_value v) in
  Alcotest.testable pp ( = )

let test_snapshot_totality () =
  let c = Obs.Counter.make "test.obs.total.c" in
  let g = Obs.Gauge.make "test.obs.total.g" in
  let t = Obs.Timer.make "test.obs.total.t" in
  Obs.Counter.add c 5;
  Obs.Gauge.set g 1.5;
  Obs.Timer.observe_ns t 2000.0;
  Obs.register_source "test.obs.src" (fun () -> [ ("k", Obs.Int 9) ]);
  let snap = Obs.snapshot () in
  let find k = List.assoc_opt k snap in
  Alcotest.(check (option value_testable))
    "counter under its own name" (Some (Obs.Int 5)) (find "test.obs.total.c");
  Alcotest.(check (option value_testable))
    "gauge under its own name" (Some (Obs.Float 1.5)) (find "test.obs.total.g");
  List.iter
    (fun suffix ->
      Alcotest.(check bool)
        (Printf.sprintf "timer exports %s" suffix)
        true
        (find ("test.obs.total.t" ^ suffix) <> None))
    [ ".count"; ".total_ms"; ".mean_ms"; ".max_ms" ];
  Alcotest.(check (option value_testable))
    "sources fold in under their prefix" (Some (Obs.Int 9))
    (find "test.obs.src.k");
  let keys = List.map fst snap in
  Alcotest.(check (list string))
    "snapshot sorted by key"
    (List.sort compare keys)
    keys

(* A probe nested in another on the same domain (a bench leg around a
   coverage-guided campaign) must not deadlock on the probe lock, and
   the outer diff counts the inner one's movement too. *)
let test_delta_snapshot_nests () =
  let c = Obs.Counter.make "test.obs.delta.nested" in
  let ((), inner), outer =
    Obs.delta_snapshot (fun () ->
        Obs.Counter.incr c;
        Obs.delta_snapshot (fun () -> Obs.Counter.add c 2))
  in
  let get k deltas = List.assoc_opt k deltas in
  Alcotest.(check (option int)) "inner delta" (Some 2)
    (get "test.obs.delta.nested" inner);
  Alcotest.(check (option int)) "outer delta includes the inner" (Some 3)
    (get "test.obs.delta.nested" outer)

(* The snapshot keys the CLI's --stats / --stats-json rendering is
   documented to expose: pin them so an instrument rename is a
   deliberate, test-visible change. *)
let test_snapshot_pins_instrument_keys () =
  (* the fuzz counters register at Fuzz's module initialisation; touch
     the module so the linker keeps it in this binary *)
  ignore (Sys.opaque_identity Csp_testkit.Fuzz.default_config);
  let sampler = Sampler.nat_bound 2 in
  let cfg = Step.config ~sampler Paper.Protocol.defs in
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Lts.explore ~max_states:200 ~pool cfg Paper.Protocol.network));
  ignore
    (Denote.denote (Denote.config ~sampler Paper.Protocol.defs) ~depth:2
       Paper.Protocol.network);
  ignore (Sat.check ~depth:3 cfg Paper.Protocol.protocol Paper.Protocol.protocol_spec);
  let snap = Obs.snapshot () in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot has %s" key)
        true
        (List.mem_assoc key snap))
    [
      "closure.lock_waits";
      "closure.memo_hits";
      "closure.memo_misses";
      "closure.node.count";
      "closure.nodes";
      "compiled.leaf_terms";
      "compiled.leaves";
      "denote.calls";
      "denote.eval_hits";
      "denote.eval_misses";
      "denote.fixpoint_iters";
      "fuzz.cases";
      "intern.lock_waits";
      "intern.nodes";
      "lts.layers";
      "lts.states";
      "obs.dropped_events";
      "pool.batches";
      "pool.lock_waits";
      "pool.tasks";
      "sat.checks";
      "sat.trace_evals";
      "step.op_hits";
      "step.op_misses";
      "step.sync_hits";
      "step.sync_misses";
      "step.trans_hits";
      "step.trans_misses";
    ];
  let rendered = Format.asprintf "%a" Obs.pp_snapshot () in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and sl = String.length rendered in
        let rec go i = i + nl <= sl && (String.sub rendered i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "--stats prints %S" needle)
        true found)
    [ "pool.lock_waits = "; "lts.states = "; "sat.checks = " ]

(* A compile's state-vector counters move by its own automaton's
   figures: the copier chain's eight stages are its leaves, each in
   three terms (the reference and one output per sampled value). *)
let test_compiled_vector_counters () =
  let defs, net = Paper.Copier.chain_defs 8 in
  let c, deltas =
    Obs.delta_snapshot (fun () ->
        Compiled.compile (Step.config ~sampler:(Sampler.nat_bound 2) defs) net)
  in
  let moved k = Option.value ~default:0 (List.assoc_opt k deltas) in
  Alcotest.(check int) "compiled.leaves" 8 (moved "compiled.leaves");
  Alcotest.(check int) "compiled.leaf_terms" 24 (moved "compiled.leaf_terms");
  Alcotest.(check int) "compiled.states" 6561 (moved "compiled.states");
  Alcotest.(check int) "the automaton's own count" (Compiled.leaf_terms c)
    (moved "compiled.leaf_terms")

(* ---- spans ------------------------------------------------------------ *)

let test_span_nesting () =
  with_telemetry (fun () ->
      Obs.clear_events ();
      Obs.span ~cat:"test" "outer" (fun () ->
          Obs.span ~cat:"test" "inner-a" (fun () -> Sys.opaque_identity ());
          Obs.span ~cat:"test" "inner-b" (fun () -> Sys.opaque_identity ()));
      let evs = Obs.events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      let find name = List.find (fun e -> e.Obs.name = name) evs in
      let outer = find "outer"
      and inner_a = find "inner-a"
      and inner_b = find "inner-b" in
      Alcotest.(check int) "outer at depth 0" 0 outer.Obs.depth;
      Alcotest.(check int) "inner-a nested" 1 inner_a.Obs.depth;
      Alcotest.(check int) "inner-b nested" 1 inner_b.Obs.depth;
      let within (child : Obs.event) (parent : Obs.event) =
        child.Obs.ts_ns >= parent.Obs.ts_ns
        && child.Obs.ts_ns +. child.Obs.dur_ns
           <= parent.Obs.ts_ns +. parent.Obs.dur_ns
      in
      Alcotest.(check bool) "inner-a within outer" true (within inner_a outer);
      Alcotest.(check bool) "inner-b within outer" true (within inner_b outer);
      Alcotest.(check bool)
        "inner-a before inner-b" true
        (inner_a.Obs.ts_ns <= inner_b.Obs.ts_ns);
      let starts = List.map (fun e -> e.Obs.ts_ns) evs in
      Alcotest.(check bool)
        "events () sorted by start" true
        (List.sort compare starts = starts))

exception Test_blew_up

let test_span_records_on_raise () =
  with_telemetry (fun () ->
      Obs.clear_events ();
      (try Obs.span ~cat:"test" "raiser" (fun () -> raise Test_blew_up)
       with Test_blew_up -> ());
      Alcotest.(check int)
        "a raising span still records its interval" 1 (Obs.event_count ()))

let test_span_args_lazy () =
  Obs.set_enabled false;
  let evaluated = ref false in
  Alcotest.(check int) "result passes through" 3
    (Obs.span ~cat:"test" "lazy"
       ~args:(fun () ->
         evaluated := true;
         [])
       (fun () -> 3));
  Alcotest.(check bool)
    "args thunk untouched while disabled" false !evaluated

(* Disabled runs must register nothing, whatever shape the span tree
   takes: QCheck drives random nesting programs through [span] with
   telemetry off and the event log must not move. *)
let disabled_spans_silent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"disabled spans record zero events"
       QCheck2.Gen.(list_size (int_bound 20) (int_bound 3))
       (fun program ->
         Obs.set_enabled false;
         let before = Obs.event_count () in
         let rec run = function
           | [] -> 0
           | depth :: rest ->
             (* [depth] nested spans around the rest of the program *)
             let rec nest d =
               if d = 0 then run rest
               else Obs.span ~cat:"qc" (Printf.sprintf "n%d" d) (fun () -> nest (d - 1))
             in
             nest depth
         in
         ignore (run program);
         Obs.event_count () = before))

(* ---- a request's layer split ------------------------------------------ *)

(* One compiled graph request shows its compile, its walk and its
   render as separate spans, so a traced [cspc graph] or [cspc serve]
   splits each request by layer. *)
let test_graph_request_spans () =
  let source =
    In_channel.with_open_bin (Test_support.build_file "examples/protocol.csp")
      In_channel.input_all
  in
  let ctx =
    match Csp_server.Jobs.ctx_of_source source with
    | Ok ctx -> ctx
    | Error m -> Alcotest.fail m
  in
  with_telemetry (fun () ->
      Obs.clear_events ();
      (match
         Csp_server.Jobs.graph ctx ~process:"protocol" ~max_states:2000
           ~nat_bound:2 ~compiled:true
       with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let recorded =
        List.map (fun e -> (e.Obs.cat, e.Obs.name)) (Obs.events ())
      in
      List.iter
        (fun span ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s recorded" (fst span) (snd span))
            true (List.mem span recorded))
        [
          ("compiled", "compile");
          ("explore", "explore-compiled");
          ("export", "to_dot");
        ])

(* ---- exports ---------------------------------------------------------- *)

let test_chrome_trace_schema () =
  with_telemetry (fun () ->
      Obs.clear_events ();
      Obs.span ~cat:"test" "export"
        ~args:(fun () -> [ ("n", Obs.Int 3); ("label", Obs.String "a\"b") ])
        (fun () -> Obs.span ~cat:"test" "child" (fun () -> ()));
      let trace = parse_json (Obs.chrome_trace ()) in
      match member "traceEvents" trace with
      | Some (J_arr evs) ->
        Alcotest.(check int) "one trace event per span" 2 (List.length evs);
        List.iter
          (fun ev ->
            Alcotest.(check (option string))
              "complete events" (Some "X")
              (match member "ph" ev with Some (J_str s) -> Some s | _ -> None);
            List.iter
              (fun field ->
                match member field ev with
                | Some (J_str _) -> ()
                | _ -> Alcotest.failf "%s must be a string" field)
              [ "name"; "cat" ];
            List.iter
              (fun field ->
                match member field ev with
                | Some (J_num _) -> ()
                | _ -> Alcotest.failf "%s must be a number" field)
              [ "ts"; "dur"; "pid"; "tid" ];
            Alcotest.(check (option (float 0.0)))
              "pid is 1" (Some 1.0)
              (match member "pid" ev with Some (J_num f) -> Some f | _ -> None);
            match member "args" ev with
            | Some (J_obj _) -> ()
            | _ -> Alcotest.fail "args must be an object")
          evs
      | _ -> Alcotest.fail "chrome_trace must carry a traceEvents array")

let test_snapshot_json_parses () =
  let c = Obs.Counter.make "test.obs.json" in
  Obs.Counter.incr c;
  match parse_json (Obs.snapshot_json ()) with
  | J_obj kvs ->
    Alcotest.(check bool)
      "the pinned counter survives the JSON round trip" true
      (match List.assoc_opt "test.obs.json" kvs with
      | Some (J_num _) -> true
      | _ -> false)
  | _ -> Alcotest.fail "snapshot_json must be an object"

let test_events_jsonl () =
  with_telemetry (fun () ->
      Obs.clear_events ();
      Obs.span ~cat:"test" "l1" (fun () -> ());
      Obs.span ~cat:"test" "l2" (fun () -> ());
      let lines =
        Obs.events_jsonl () |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun line ->
          match parse_json line with
          | J_obj _ -> ()
          | _ -> Alcotest.fail "each JSONL line must be an object")
        lines)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "atomic counters across domains" `Quick
            test_counter_parallel;
          Alcotest.test_case "interned by name" `Quick
            test_registry_interns_by_name;
          Alcotest.test_case "counters live while disabled" `Quick
            test_counters_live_while_disabled;
          Alcotest.test_case "timers gated on enabled" `Quick
            test_timer_gated_on_enabled;
          Alcotest.test_case "timer histogram" `Quick test_timer_histogram;
          Alcotest.test_case "reset zeroes metrics, keeps events" `Quick
            test_reset_zeroes_metrics_only;
          Alcotest.test_case "snapshot totality" `Quick test_snapshot_totality;
          Alcotest.test_case "delta probes nest" `Quick
            test_delta_snapshot_nests;
          Alcotest.test_case "pinned instrument keys" `Quick
            test_snapshot_pins_instrument_keys;
          Alcotest.test_case "compiled vector counters" `Quick
            test_compiled_vector_counters;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "recorded on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "args thunk lazy" `Quick test_span_args_lazy;
          disabled_spans_silent;
          Alcotest.test_case "graph request: compile, explore, render" `Quick
            test_graph_request_spans;
        ] );
      ( "exports",
        [
          Alcotest.test_case "chrome trace schema" `Quick
            test_chrome_trace_schema;
          Alcotest.test_case "snapshot json parses" `Quick
            test_snapshot_json_parses;
          Alcotest.test_case "events jsonl" `Quick test_events_jsonl;
        ] );
    ]
