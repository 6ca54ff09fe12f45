(* cspc — command-line front end.

   Subcommands: parse, traces, simulate, check, prove, deadlock, graph,
   refusals, infer, refine, check-cert, fuzz, serve, client.  A .csp
   file contains process definitions and `assert` declarations in the
   concrete syntax of Csp_syntax.Parser.

   parse, graph, refine, prove and fuzz are cold clients of
   Csp_server.Jobs: each builds a fresh job context, prints the job's
   output and exits with its status — the same code that answers
   `cspc serve` requests, so both surfaces print the same bytes. *)

open Csp
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Jobs = Csp_server.Jobs

let die fmt = Format.kasprintf (fun m -> prerr_endline m; exit 1) fmt
let ok_or_die = function Ok x -> x | Error m -> die "%s" m

let slurp path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> die "%s" m

(* Read and parse a .csp file into a cold job context. *)
let load path =
  Obs.span ~cat:"cli" "load"
    ~args:(fun () -> [ ("path", Obs.String path) ])
  @@ fun () ->
  match Jobs.ctx_of_source (slurp path) with
  | Ok ctx -> ctx
  | Error m -> die "%s: %s" path m

let find_process ctx name = ok_or_die (Jobs.find_process ctx name)

(* Every semantic subcommand runs off one unified engine: the sampler,
   fuel budgets, depth and seed all come from this single value, and
   the operational/denotational caches are shared within a command. *)
let engine ?depth ?seed ctx ~nat_bound =
  Engine.create ?depth ?seed ~nat_bound ctx.Jobs.file.Parser.defs

(* A job's stdout, then its exit status. *)
let finish (o : Jobs.outcome) =
  print_string o.Jobs.output;
  if o.Jobs.exit_code <> 0 then exit o.Jobs.exit_code

(* ---- telemetry ------------------------------------------------------- *)

(* Every subcommand takes the same three exporters.  [--stats] prints
   the full registry snapshot (kernel caches, pool, per-oracle
   counters, timers) as `key = value` lines on stderr, so it composes
   with redirected command output; [--stats-json FILE] writes the same
   snapshot as one JSON object; [--trace-out FILE] writes the span log
   in Chrome trace_event format (load in chrome://tracing or
   Perfetto).  Any of the three switches telemetry on for the whole
   run; outputs are exported in an [at_exit] hook so failing commands
   (exit 1) still produce their telemetry. *)
type telemetry = {
  stats : bool;
  stats_json : string option;
  trace_out : string option;
}

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let install_telemetry t =
  if t.stats || t.stats_json <> None || t.trace_out <> None then begin
    Obs.set_enabled true;
    at_exit (fun () ->
        if t.stats then Format.eprintf "%a@." Obs.pp_snapshot ();
        Option.iter (fun p -> write_file p (Obs.snapshot_json ())) t.stats_json;
        Option.iter (fun p -> write_file p (Obs.chrome_trace ())) t.trace_out)
  end

(* Instrument the command body itself: with telemetry off this is one
   atomic load, with it on the trace gets a root span per command.  An
   unguarded definition is bad input: every subcommand dies on it with
   the message a job answers. *)
let with_telemetry name t f =
  install_telemetry t;
  try Obs.span ~cat:"cli" name f
  with Step.Unproductive n -> die "%s" (Jobs.unguarded n)

(* ---- parse ---------------------------------------------------------- *)

let cmd_parse path telemetry =
  with_telemetry "parse" telemetry @@ fun () -> finish (Jobs.parse (load path))

(* ---- traces --------------------------------------------------------- *)

let cmd_traces path name depth nat_bound denotational telemetry =
  with_telemetry "traces" telemetry @@ fun () ->
  let ctx = load path in
  let p = find_process ctx name in
  let eng = engine ~depth ctx ~nat_bound in
  let closure =
    if denotational then Denote.denote (Engine.denote_config eng) ~depth p
    else Step.traces (Engine.step_config eng) ~depth p
  in
  Printf.printf "%d traces (maximal shown):\n" (Closure.cardinal closure);
  List.iter
    (fun t -> print_endline (Trace.to_string t))
    (Closure.maximal_traces closure)

(* ---- simulate ------------------------------------------------------- *)

let cmd_simulate path name steps seed nat_bound telemetry =
  with_telemetry "simulate" telemetry @@ fun () ->
  let ctx = load path in
  let p = find_process ctx name in
  let monitors =
    List.filter_map
      (function
        | Parser.Assert_plain (n, a) when String.equal n name ->
          Some (Csp_sim.Runner.monitor n a)
        | _ -> None)
      ctx.Jobs.file.Parser.decls
  in
  let eng = engine ~seed ctx ~nat_bound in
  let r = Csp_sim.Runner.run_engine ~monitors ~max_steps:steps eng p in
  Format.printf "%a@." Csp_sim.Runner.pp_result r;
  List.iter
    (fun v ->
      Format.printf "VIOLATION %s at step %d: %a@."
        v.Csp_sim.Runner.monitor_name v.Csp_sim.Runner.at_step History.pp
        v.Csp_sim.Runner.history)
    r.Csp_sim.Runner.violations;
  if r.Csp_sim.Runner.violations <> [] then exit 1

(* ---- check (bounded sat) -------------------------------------------- *)

let cmd_check path depth nat_bound telemetry =
  with_telemetry "check" telemetry @@ fun () ->
  let ctx = load path in
  let eng = engine ~depth ctx ~nat_bound in
  let failures = ref 0 in
  List.iter
    (fun decl ->
      match decl with
      | Parser.Assert_plain (n, a) ->
        let p = find_process ctx n in
        let out = Sat.check_engine eng p a in
        Format.printf "%s sat %s: %a@." n (Printer.assertion a) Sat.pp_outcome
          out;
        (match out with Sat.Fails _ -> incr failures | Sat.Holds _ -> ())
      | Parser.Assert_array (q, x, m, a) ->
        List.iter
          (fun v ->
            let p = Process.Ref (q, Some (Expr.Const v)) in
            let a' =
              Assertion.subst_var x (Term.Const v) a
            in
            let out = Sat.check_engine eng p a' in
            Format.printf "%s[%s] sat %s: %a@." q (Value.to_string v)
              (Printer.assertion a') Sat.pp_outcome out;
            match out with Sat.Fails _ -> incr failures | Sat.Holds _ -> ())
          (Sampler.sample eng.Engine.sampler m))
    ctx.Jobs.file.Parser.decls;
  if !failures > 0 then die "%d assertion(s) failed" !failures

(* ---- prove ---------------------------------------------------------- *)

(* [--family FORMULA] switches prove from the file's assertions to a
   preset replica family; [--emit] writes the certificates of the
   sequents the job proved. *)
let cmd_prove path verbose emit family model depth telemetry =
  with_telemetry "prove" telemetry @@ fun () ->
  match family, path with
  | Some formula, _ ->
    finish (ok_or_die (Jobs.prove_family ~model ~formula ~depth))
  | None, None -> die "FILE is required unless --family is given"
  | None, Some path ->
    let ctx = load path in
    let o = Jobs.prove ctx ~verbose in
    finish
      (match emit with
      | None -> o
      | Some out ->
        let proofs = List.rev_map snd ctx.Jobs.proofs in
        write_file out (Cert.write_many proofs ^ "\n");
        {
          o with
          output =
            o.Jobs.output
            ^ Printf.sprintf "wrote %d certificate(s) to %s\n"
                (List.length proofs) out;
        })

(* ---- check-cert --------------------------------------------------------- *)

let cmd_check_cert path cert_path telemetry =
  with_telemetry "check-cert" telemetry @@ fun () ->
  let ctx = load path in
  match Cert.read_many (slurp cert_path) with
  | Error m -> die "%s: %s" cert_path m
  | Ok certs ->
    let sctx = Sequent.context ctx.Jobs.file.Parser.defs in
    let failures = ref 0 in
    List.iter
      (fun (j, proof) ->
        match Check.check sctx j proof with
        | Ok report ->
          Printf.printf "CHECKED %s (%d rules, %d tested obligations)\n"
            (Sequent.judgment_to_string j)
            report.Check.rules_applied
            (Check.tested_obligations report)
        | Error m ->
          incr failures;
          Printf.printf "REJECTED %s: %s\n" (Sequent.judgment_to_string j) m)
      certs;
    if !failures > 0 then exit 1

(* ---- deadlock ------------------------------------------------------- *)

let cmd_deadlock path name steps runs nat_bound seed telemetry =
  with_telemetry "deadlock" telemetry @@ fun () ->
  let ctx = load path in
  let p = find_process ctx name in
  let eng = engine ~seed ctx ~nat_bound in
  let compiled = Engine.compile ~budget:steps eng p in
  let deadlocks = ref 0 in
  for i = 0 to runs - 1 do
    let r =
      Csp_sim.Runner.run_engine ~seed:(seed + i) ~max_steps:steps ~compiled eng
        p
    in
    if r.Csp_sim.Runner.stop = Csp_sim.Runner.Deadlock then incr deadlocks
  done;
  Printf.printf "%d/%d runs deadlocked within %d steps\n" !deadlocks runs steps;
  if !deadlocks > 0 then exit 1

(* ---- graph ----------------------------------------------------------- *)

(* [--abstract counter] graphs the counter-abstract quotient of a
   preset family at instance size [--size] instead of a concrete file.
   With [-o], the DOT text (from its "digraph" line on) goes to the
   file and the status lines stay on stdout. *)
let cmd_graph path name max_states nat_bound output abstract model fam_n
    telemetry =
  with_telemetry "graph" telemetry @@ fun () ->
  let o =
    match abstract with
    | Some "counter" -> Jobs.graph_abstract ~model ~n:fam_n ~max_states
    | Some m -> die "unknown abstraction %s (have: counter)" m
    | None ->
      let path =
        match path with
        | Some p -> p
        | None -> die "FILE is required unless --abstract is given"
      in
      let process =
        match name with
        | Some n -> n
        | None -> die "--process is required unless --abstract is given"
      in
      Jobs.graph (load path) ~process ~max_states ~nat_bound ~compiled:true
  in
  let o = ok_or_die o in
  match output with
  | None -> finish o
  | Some f ->
    let s = o.Jobs.output in
    let rec dot_start i =
      if i + 7 <= String.length s && String.sub s i 7 = "digraph" then i
      else
        match String.index_from_opt s i '\n' with
        | Some j -> dot_start (j + 1)
        | None -> String.length s
    in
    let i = dot_start 0 in
    write_file f (String.sub s i (String.length s - i));
    finish { o with output = String.sub s 0 i ^ Printf.sprintf "wrote %s\n" f }

(* ---- refusals ---------------------------------------------------------- *)

let cmd_refusals path name depth nat_bound telemetry =
  with_telemetry "refusals" telemetry @@ fun () ->
  let ctx = load path in
  let p = find_process ctx name in
  let cfg = Engine.step_config (engine ~depth ctx ~nat_bound) in
  let fs = Failures.failures cfg ~depth p in
  Format.printf "%a@." Failures.pp fs;
  (match Failures.can_deadlock cfg ~depth p with
  | Some [] -> print_endline "may deadlock immediately"
  | Some s -> Printf.printf "may deadlock after %s\n" (Trace.to_string s)
  | None -> Printf.printf "no reachable deadlock within depth %d\n" depth);
  Printf.printf "STOP | %s distinguished from %s in the refusals model: %b\n"
    name name
    (Failures.distinguishes_stop_choice cfg ~depth p)

(* ---- refine ------------------------------------------------------------ *)

let cmd_refine path impl spec depth nat_bound weak telemetry =
  with_telemetry "refine" telemetry @@ fun () ->
  finish
    (ok_or_die (Jobs.refine (load path) ~impl ~spec ~depth ~nat_bound ~weak))

(* ---- infer ------------------------------------------------------------ *)

let cmd_infer path name nat_bound seed telemetry =
  with_telemetry "infer" telemetry @@ fun () ->
  let ctx = load path in
  let p = find_process ctx name in
  let eng = engine ~seed ctx ~nat_bound in
  let tables = Jobs.tables_of ctx.Jobs.file in
  let results = Infer.infer_engine ~tables eng ~name p in
  if results = [] then print_endline "no invariants conjectured"
  else
    List.iter
      (fun c ->
        Printf.printf "%s  %s\n"
          (if c.Infer.proved then "PROVED   " else "conjecture")
          (Printer.assertion c.Infer.assertion))
      results

(* ---- fuzz ------------------------------------------------------------- *)

let cmd_fuzz seed count budget oracle_names save replay jobs coverage
    telemetry =
  with_telemetry "fuzz" telemetry @@ fun () ->
  finish
    (ok_or_die
       (Jobs.fuzz ~jobs ~coverage ?replay ?save ~seed ~count ~budget
          ~oracle_names ()))

(* ---- serve / client -------------------------------------------------- *)

module Server = Csp_server.Server
module Protocol = Csp_server.Protocol
module Json = Csp_persist.Json

let cmd_serve socket warm max_frame max_states max_depth max_cases
    max_sources telemetry =
  with_telemetry "serve" telemetry @@ fun () ->
  let limits =
    { Protocol.max_frame; max_states; max_depth; max_cases; max_sources }
  in
  let cfg = Server.config ~limits ?warm socket in
  let ready () =
    Printf.eprintf "cspc serve: listening on %s%s\n%!" socket
      (match warm with Some f -> " (warm from " ^ f ^ ")" | None -> "")
  in
  match Server.run ~ready cfg with Ok () -> () | Error m -> die "%s" m

let cmd_client socket req telemetry =
  with_telemetry "client" telemetry @@ fun () ->
  let line =
    match req with
    | Some s -> s
    | None -> (
      try input_line stdin
      with End_of_file -> die "client: no request given (--req or stdin)")
  in
  match Json.parse line with
  | Error m -> die "request is not valid JSON: %s" m
  | Ok j -> (
    match Protocol.connect socket with
    | Error m -> die "%s" m
    | Ok conn ->
      let resp =
        match Protocol.request conn j with
        | Ok r -> r
        | Error m ->
          Protocol.close conn;
          die "%s" m
      in
      Protocol.close conn;
      print_endline (Json.to_string resp);
      (match Json.mem_bool "ok" resp with
      | Some true -> ()
      | _ -> exit 1))

(* ---- cmdliner glue --------------------------------------------------- *)

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".csp file")

let opt_path_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:".csp file (may be omitted in --family / --abstract modes)")

let model_arg =
  Arg.(
    value
    & opt string "token-ring"
    & info [ "model" ] ~docv:"NAME"
        ~doc:
          "Preset replica family: token-ring, leader, philosophers or \
           workers (aliases: ring, phils, pool)")

let name_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "process" ] ~docv:"NAME" ~doc:"Process name to run")

let depth_arg default =
  Arg.(value & opt int default & info [ "d"; "depth" ] ~doc:"Trace depth bound")

let nat_arg =
  Arg.(
    value & opt int 3
    & info [ "nat-bound" ] ~doc:"Sample size for NAT-typed inputs")

let steps_arg =
  Arg.(value & opt int 1000 & info [ "steps" ] ~doc:"Maximum simulation steps")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed")
let runs_arg = Arg.(value & opt int 20 & info [ "runs" ] ~doc:"Number of runs")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full proof tables")

(* One shared telemetry term, appended to every subcommand. *)
let telemetry_arg =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the full telemetry snapshot (kernel caches, pool, \
                per-oracle counters, timers) as key = value lines on stderr")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the telemetry snapshot to FILE as one JSON object")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the span log to FILE in Chrome trace_event format \
                (load in chrome://tracing or Perfetto)")
  in
  Term.(
    const (fun stats stats_json trace_out -> { stats; stats_json; trace_out })
    $ stats $ stats_json $ trace_out)

let parse_cmd =
  Cmd.v (Cmd.info "parse" ~doc:"Parse and pretty-print a .csp file")
    Term.(const cmd_parse $ path_arg $ telemetry_arg)

let traces_cmd =
  let deno =
    Arg.(
      value & flag
      & info [ "denotational" ]
          ~doc:"Use the denotational fixpoint semantics instead of the \
                operational enumeration")
  in
  Cmd.v (Cmd.info "traces" ~doc:"Enumerate traces of a process")
    Term.(
      const cmd_traces $ path_arg $ name_arg $ depth_arg 5 $ nat_arg $ deno
      $ telemetry_arg)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a process with a random scheduler, monitoring its \
             declared assertions")
    Term.(
      const cmd_simulate $ path_arg $ name_arg $ steps_arg $ seed_arg $ nat_arg
      $ telemetry_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Bounded model check of every declared assertion (exact up to \
             the depth and sample)")
    Term.(const cmd_check $ path_arg $ depth_arg 6 $ nat_arg $ telemetry_arg)

let prove_cmd =
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE" ~doc:"Write proof certificates here")
  in
  let family =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"FORMULA"
          ~doc:
            "Certify the --model family's invariants for every parameter \
             value satisfying this assumption formula (e.g. 'n <= 32' or \
             'n >= 2'), one counter-abstract run per assignment class")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove every declared assertion with the inference rules of the \
             paper, using the declarations as loop invariants; with \
             --family, certify a whole parameterised family instead")
    Term.(
      const cmd_prove $ opt_path_arg $ verbose_arg $ emit $ family $ model_arg
      $ depth_arg 6 $ telemetry_arg)

let check_cert_cmd =
  let cert =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CERT" ~doc:"Certificate file from prove --emit")
  in
  Cmd.v
    (Cmd.info "check-cert"
       ~doc:"Re-verify proof certificates against the definitions, without \
             re-running the tactic")
    Term.(const cmd_check_cert $ path_arg $ cert $ telemetry_arg)

let graph_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT to this file")
  in
  let max_states =
    Arg.(value & opt int 2000 & info [ "max-states" ] ~doc:"State bound")
  in
  let abstract =
    Arg.(
      value
      & opt (some string) None
      & info [ "abstract" ] ~docv:"MODE"
          ~doc:
            "Graph an abstraction instead of a concrete file; the only mode \
             is 'counter' (counter-abstract quotient of the --model family \
             at size --n)")
  in
  let fam_n =
    Arg.(
      value & opt int 4
      & info [ "size" ] ~docv:"N" ~doc:"Family instance size n for --abstract")
  in
  let opt_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "process" ] ~docv:"NAME" ~doc:"Process name to explore")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Explore the labelled transition system and emit Graphviz DOT; \
             with --abstract counter, graph a family's abstract quotient")
    Term.(
      const cmd_graph $ opt_path_arg $ opt_name $ max_states $ nat_arg $ out
      $ abstract $ model_arg $ fam_n $ telemetry_arg)

let refusals_cmd =
  Cmd.v
    (Cmd.info "refusals"
       ~doc:"Print the bounded stable-failures of a process (the §4 \
             extension: distinguishes STOP|P from P and reports \
             deadlocks)")
    Term.(
      const cmd_refusals $ path_arg $ name_arg $ depth_arg 3 $ nat_arg
      $ telemetry_arg)

let refine_cmd =
  let spec =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "spec" ] ~docv:"NAME" ~doc:"Specification process")
  in
  let weak =
    Arg.(
      value & flag
      & info [ "weak" ] ~doc:"Check weak bisimilarity instead of trace \
                              refinement")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Check that one process trace-refines another (or is weakly \
             bisimilar to it)")
    Term.(
      const cmd_refine $ path_arg $ name_arg $ spec $ depth_arg 5 $ nat_arg
      $ weak $ telemetry_arg)

let infer_cmd =
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Discover invariants: observe simulated histories, \
             conjecture template instances, and prove the survivors \
             with the recursion rule")
    Term.(
      const cmd_infer $ path_arg $ name_arg $ nat_arg $ seed_arg
      $ telemetry_arg)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Generator seed (the run \
                                                  is deterministic for a \
                                                  fixed seed and case count)")
  in
  let cases =
    Arg.(value & opt int 200 & info [ "count" ] ~doc:"Generated scenarios")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; stops between cases, so completed cases \
                stay reproducible from the seed")
  in
  let oracles =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Run only this oracle (repeatable; default: all)")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Persist shrunk counterexamples into this corpus directory")
  in
  let replay =
    Arg.(
      value
      & opt (some dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:"First replay every corpus entry of this directory against \
                its recorded oracle")
  in
  let coverage =
    Arg.(
      value & flag
      & info [ "coverage" ]
          ~doc:"Coverage-guided mode: diff the telemetry registry around \
                every case, keep a corpus of coverage-gaining scenarios, \
                and bias generation toward the shapes that moved new \
                counters.  Deterministic for a fixed seed at any --jobs; \
                prints the coverage curve and the minimised corpus size")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains the cases are sharded over (the report is \
                identical to -j 1; only wall-clock changes)")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential conformance fuzzing: generate random scenarios \
             and cross-check the closure kernel, the two semantics, the \
             refinement models and the prover against each other; failures \
             are shrunk and printed as parseable .csp text")
    Term.(
      const cmd_fuzz $ seed $ cases $ budget $ oracles $ save $ replay
      $ jobs $ coverage $ telemetry_arg)

let deadlock_cmd =
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:"Search for deadlocks by repeated randomised execution (partial \
             correctness cannot rule them out — §4)")
    Term.(
      const cmd_deadlock $ path_arg $ name_arg $ steps_arg $ runs_arg
      $ nat_arg $ seed_arg $ telemetry_arg)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_cmd =
  let warm =
    Arg.(
      value
      & opt (some file) None
      & info [ "warm" ] ~docv:"FILE"
          ~doc:"Load this cache snapshot before accepting requests; the \
                first request then runs at warm-cache speed.  A corrupt or \
                version-mismatched snapshot refuses to start.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Protocol.default_limits.Protocol.max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame; oversized frames are \
                rejected without unbounded buffering")
  in
  let max_states =
    Arg.(
      value
      & opt int Protocol.default_limits.Protocol.max_states
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Per-request cap on graph exploration budgets")
  in
  let max_depth =
    Arg.(
      value
      & opt int Protocol.default_limits.Protocol.max_depth
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Per-request cap on refinement depth bounds")
  in
  let max_cases =
    Arg.(
      value
      & opt int Protocol.default_limits.Protocol.max_cases
      & info [ "max-cases" ] ~docv:"N"
          ~doc:"Per-request cap on fuzz case counts")
  in
  let max_sources =
    Arg.(
      value
      & opt int Protocol.default_limits.Protocol.max_sources
      & info [ "max-sources" ] ~docv:"N"
          ~doc:"Cached source contexts kept warm; the least recently used \
                is evicted when a new source would exceed this, so the \
                table stays bounded under a stream of distinct sources")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent verification service: a Unix-socket server \
             answering parse/graph/refine/prove/fuzz requests \
             (newline-delimited JSON) from one shared cache-warm engine, \
             byte-identical to the one-shot subcommands")
    Term.(
      const cmd_serve $ socket_arg $ warm $ max_frame $ max_states
      $ max_depth $ max_cases $ max_sources $ telemetry_arg)

let client_cmd =
  let req =
    Arg.(
      value
      & opt (some string) None
      & info [ "req" ] ~docv:"JSON"
          ~doc:"One request object to send (default: read a line from stdin)")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running cspc serve: send one request (exit status \
             follows the response)")
    Term.(const cmd_client $ socket_arg $ req $ telemetry_arg)

let main =
  Cmd.group
    (Cmd.info "cspc" ~version:"1.0.0"
       ~doc:"Trace assertions and proofs for communicating sequential \
             processes (Zhou & Hoare, 1981)")
    [
      parse_cmd; traces_cmd; simulate_cmd; check_cmd; prove_cmd;
      deadlock_cmd; graph_cmd; refusals_cmd; infer_cmd; refine_cmd;
      check_cert_cmd; fuzz_cmd; serve_cmd; client_cmd;
    ]

let () = exit (Cmd.eval main)
