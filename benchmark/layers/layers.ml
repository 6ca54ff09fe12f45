(* layers.exe — the in-process half of the benchmark.

     layers.exe regen [--write] [--cspc EXE] [--dir DIR]
       Render the model files from Paper/Models and compute every
       pinned answer; fail on any difference from the committed files
       (with --write, rewrite them instead).

     layers.exe trace --out FILE [--chrome FILE] [--seed S] [--seconds T]
                      [--cspc EXE] [--dir DIR] [--work DIR]
       Replay the cold catalogue through the libraries, timing each call
       into a layer's public function from here, and write the
       per-layer metrics (and the answers' check tally) to FILE as
       JSON; the spans go to the Chrome trace file.  Each replay runs
       in a fresh `layers.exe child MODE LABEL` process.

   Run from the repository root; DIR (the benchmark directory)
   defaults to benchmark. *)

open Csp
module B = Bench_common
module Cat = B.Catalogue
module Json = B.Json
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Jobs = Csp_server.Jobs
module Server = Csp_server.Server

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* ---- models ------------------------------------------------------------- *)

(* A model as concrete syntax: its definitions, then the composite
   processes the requests name. *)
let render ~origin defs extras asserts =
  List.iter
    (fun (n, _) ->
      if Defs.lookup defs n <> None then
        die "model %s: %s is already defined" origin n)
    extras;
  String.concat ""
    ([ "-- "; origin; "\n-- Rendered by `layers.exe regen`; do not edit.\n\n";
       Printer.defs defs; "\n" ]
    @ List.map
        (fun (n, p) -> Printf.sprintf "%s = %s\n" n (Printer.process p))
        extras
    @ asserts)

let chain n =
  let defs, net = Paper.Copier.chain_defs n in
  render ~origin:(Printf.sprintf "Paper.Copier.chain_defs %d" n) defs
    [ ("chain", net) ] []

let protocol () =
  let open Paper.Protocol in
  let plain name a =
    Printf.sprintf "assert %s sat %s\n" name (Printer.assertion a)
  in
  let x, m, qa = q_spec in
  render ~origin:"Paper.Protocol" defs []
    [ "\n"; plain "sender" sender_spec;
      Printf.sprintf "assert forall %s:%s. q[%s] sat %s\n" x (Printer.vset m) x
        (Printer.assertion ~bound:[ x ] qa);
      plain "receiver" receiver_spec; plain "protocol" protocol_spec ]

let model_source = function
  | "copier-chain-8" -> chain 8
  | "copier-chain-7" -> chain 7
  | "workers-12" ->
    let m = Models.Workers.make ~n:12 in
    render ~origin:"Models.Workers.make ~n:12" m.defs [ ("system", m.network) ] []
  | "philosophers-5" ->
    let m = Paper.Philosophers.make ~n:5 () in
    render ~origin:"Paper.Philosophers.make ~n:5 ()" m.defs
      [ ("system", m.network) ] []
  | "token-ring-10" ->
    let m = Models.Token_ring.make ~n:10 in
    render ~origin:"Models.Token_ring.make ~n:10" m.defs
      [ ("system", m.system); ("spec", m.spec) ] []
  | "commit-6" ->
    let m = Models.Commit.make ~n:6 in
    render ~origin:"Models.Commit.make ~n:6" m.defs
      [ ("system", m.system); ("spec", m.spec) ] []
  | "leader-8" ->
    let m = Models.Leader.make ~n:8 in
    render ~origin:"Models.Leader.make ~n:8" m.defs
      [ ("system", m.system); ("spec", m.spec) ] []
  | "window-2" ->
    let m = Models.Sliding_window.make ~w:2 in
    render ~origin:"Models.Sliding_window.make ~w:2" m.defs
      [ ("system", m.system); ("spec", m.spec) ] []
  | "protocol" -> protocol ()
  | m -> die "no renderer for model %s" m

(* ---- answers ------------------------------------------------------------ *)

let source_of ~dir model = Cat.read_file (Cat.model_path ~dir model)

let serve_answer r source =
  match Cat.serve_fields ~source r with
  | None -> None
  | Some fields -> (
    let server =
      match Server.create (Server.config "unused.sock") with
      | Ok s -> s
      | Error m -> die "%s" m
    in
    let reply =
      Server.handle_line server (Json.to_string (Json.Obj fields))
    in
    match Json.parse reply with
    | Ok j when Json.mem_bool "ok" j = Some true ->
      Some
        {
          Cat.exit_code = Option.value ~default:(-1) (Json.mem_int "exit" j);
          answer =
            Cat.classify r (Option.value ~default:"" (Json.mem_str "output" j));
        }
    | _ -> die "%s: serve refused: %s" r.Cat.label reply)

let cli_answer ~cspc ~models r =
  let res = B.Child.run ~stderr:"/dev/null" cspc (Cat.cli_args ~models r) in
  { Cat.exit_code = res.exit_code; answer = Cat.classify r res.stdout }

(* Graphs are pinned from the interpreted path and must agree with the
   compiled path, the serve reply and the binary; every other answer
   comes from the binary and must agree with the serve reply. *)
let pinned_answer ~cspc ~models r =
  let cli = cli_answer ~cspc ~models r in
  let reference, others =
    match r.Cat.kind with
    | Cat.Graph g ->
      let source = source_of ~dir:models r.model in
      let jobs compiled =
        let ctx =
          match Jobs.ctx_of_source source with
          | Ok c -> c
          | Error m -> die "%s does not parse: %s" r.model m
        in
        match
          Jobs.graph ctx ~process:g.process ~max_states:g.max_states
            ~nat_bound:g.nat ~compiled
        with
        | Ok o -> { Cat.exit_code = o.exit_code; answer = Cat.classify r o.output }
        | Error m -> die "%s: %s" r.label m
      in
      (jobs false, [ ("compiled", jobs true); ("cli", cli) ])
    | _ -> (cli, [])
  in
  let source = if r.model = "" then "" else source_of ~dir:models r.model in
  let others =
    match serve_answer r source with
    | Some s -> ("serve", s) :: others
    | None -> others
  in
  List.iter
    (fun (name, a) ->
      if a <> reference then
        die "%s: the %s answer (exit %d, %S) differs from the reference (exit %d, %S)"
          r.label name a.Cat.exit_code a.answer reference.exit_code reference.answer)
    others;
  reference

let regen ~write ~cspc ~dir =
  let models = Filename.concat dir "models" in
  let stale = ref [] in
  let sync path contents =
    let current = try Some (Cat.read_file path) with Sys_error _ -> None in
    if current <> Some contents then
      if write then Cat.write_file path contents else stale := path :: !stale
  in
  if write && not (Sys.file_exists models) then Sys.mkdir models 0o755;
  List.iter
    (fun m -> sync (Cat.model_path ~dir:models m) (model_source m))
    Cat.models;
  if !stale <> [] then
    die "regen: model files differ from their rendering: %s"
      (String.concat ", " (List.rev !stale));
  let answers =
    List.map
      (fun r ->
        let a = pinned_answer ~cspc ~models r in
        Printf.printf "  %-28s exit %d  %s\n%!" r.Cat.label a.Cat.exit_code a.answer;
        (r.Cat.label, a))
      Cat.pinned
  in
  (* every campaign of the fuzz pool answers like the pinned one *)
  let fuzz = List.assoc "fuzz" answers in
  List.iter
    (fun seed ->
      let a = cli_answer ~cspc ~models (Cat.fuzz ~seed ~count:Cat.fuzz_count) in
      if a <> fuzz then
        die "fuzz seed %d: exit %d %S, want exit %d %S" seed a.Cat.exit_code a.answer
          fuzz.Cat.exit_code fuzz.answer)
    Cat.fuzz_pool;
  Printf.printf "  fuzz pool: %d seeds x %d cases agree\n%!" (List.length Cat.fuzz_pool)
    Cat.fuzz_count;
  let answers = List.map (fun (l, a) -> (l, Cat.answer_json a)) answers in
  let expected = Filename.concat dir "expected" in
  if write && not (Sys.file_exists expected) then Sys.mkdir expected 0o755;
  sync (Filename.concat expected "answers.json") (Json.to_pretty (Json.Obj answers));
  if !stale <> [] then
    die "regen: pinned answers differ: %s" (String.concat ", " !stale);
  print_endline (if write then "regen: files written" else "regen: no differences")

(* ---- spans -------------------------------------------------------------- *)

(* Benchmark-side spans around calls into each layer's public
   functions, recorded by the process replaying one request.  A span's
   layer is its name up to the first dot; the request's root span
   encloses its layer spans, so the root's self time is what no layer
   call accounts for. *)
let now = B.Child.now

type span = {
  name : string;
  phase : string;  (** "cold", or "warm" for the re-query *)
  root : bool;
  start : float;  (** monotonic clock, comparable across processes *)
  stop : float;
}

let spans : span list ref = ref []
let phase = ref "cold"

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let record ~root name start =
  spans := { name; phase = !phase; root; start; stop = now () } :: !spans

let traced =
  {
    span =
      (fun name f ->
        let start = now () in
        let v = f () in
        record ~root:false name start;
        v);
  }

let bare = { span = (fun _ f -> f ()) }

let with_request label f =
  let start = now () in
  let v = f () in
  record ~root:true ("request:" ^ label) start;
  v

let ms s = (s.stop -. s.start) *. 1000.

(* ---- one request, layer by layer ---------------------------------------- *)

(* Each case does what the matching cspc subcommand does and builds
   the same stdout, so its answer is checked like the binary's. *)

type outcome = {
  exit_code : int;
  output : string;
  requery : (tracer -> string) option;
      (** the same question again on the warm engines; its output *)
}

(* work done by this process's replay, for the per-second rates *)
let explored_states = ref 0.
let dot_bytes = ref 0.
let parsed_bytes = ref 0.
let sim_steps = ref 0.

let load tr ~models model =
  tr.span "parse" (fun () ->
      let text = source_of ~dir:models model in
      parsed_bytes := !parsed_bytes +. float_of_int (String.length text);
      match Parser.parse_file text with
      | Ok f -> f
      | Error m -> die "%s: %s" model m)

let graph_output ~process lts =
  Printf.sprintf "%d states, %d transitions%s; deterministic=%b; deadlock states: %d\n"
    (Lts.num_states lts) (Lts.num_transitions lts)
    (if lts.Lts.complete then ""
     else
       Printf.sprintf " (truncated; %d states with dropped moves)"
         (List.length (Lts.truncated_states lts)))
    (Lts.is_deterministic lts)
    (List.length (Lts.deadlock_states lts))
  ^ Lts.to_dot ~name:process lts

let tables_of file =
  let invariants =
    List.filter_map
      (function Parser.Assert_plain (n, a) -> Some (n, a) | _ -> None)
      file.Parser.decls
  in
  let array_invariants =
    List.filter_map
      (function Parser.Assert_array (q, x, m, a) -> Some (q, (x, m, a)) | _ -> None)
      file.Parser.decls
  in
  Tactic.tables ~invariants ~array_invariants ()

let judgment = function
  | Parser.Assert_plain (n, a) -> (n, Sequent.Holds (Process.ref_ n, a))
  | Parser.Assert_array (q, x, m, a) -> (q ^ "[]", Sequent.Holds_all (q, x, m, a))

let exit_of failures = if failures > 0 then 1 else 0

let replay tr ~models (r : Cat.request) =
  let plain ?(exit_code = 0) output = { exit_code; output; requery = None } in
  match r.kind with
  | Cat.Graph g ->
    let file = load tr ~models r.model in
    let eng = Engine.create ~nat_bound:g.nat file.Parser.defs in
    let p = Process.ref_ g.process in
    let query tr =
      let compiled =
        tr.span "compile" (fun () -> Engine.compile ~budget:g.max_states eng p)
      in
      let lts =
        tr.span "explore" (fun () ->
            Lts.explore ~max_states:g.max_states ~compiled (Engine.step_config eng) p)
      in
      explored_states := !explored_states +. float_of_int (Lts.num_states lts);
      let output = tr.span "render.dot" (fun () -> graph_output ~process:g.process lts) in
      dot_bytes := !dot_bytes +. float_of_int (String.length output);
      output
    in
    let requery tr =
      let output = query tr in
      ignore
        (tr.span "render.json" (fun () ->
             Csp_persist.Json.to_string
               (Csp_server.Protocol.ok_response ~id:(Csp_persist.Json.int 1)
                  ~op:"graph" ~output ~exit_code:0 ~elapsed_ms:1. ())));
      output
    in
    { (plain (query tr)) with requery = Some requery }
  | Cat.Refine f ->
    let file = load tr ~models r.model in
    let eng = Engine.create ~depth:f.depth ~nat_bound:3 file.Parser.defs in
    let cfg = Engine.step_config eng in
    let p = Process.ref_ f.impl and q = Process.ref_ f.spec in
    let decide tr =
      if f.weak then begin
        let compile x = Engine.compile ~budget:2000 eng x in
        tr.span "compile" (fun () ->
            ignore (compile p);
            ignore (compile q));
        let b =
          tr.span "decide.bisim" (fun () ->
              Bisim.weak_equivalent ~compiler:compile cfg p q)
        in
        plain (Printf.sprintf "%s and %s weakly bisimilar (bounded): %b\n" f.impl f.spec b)
      end
      else
        match
          tr.span "decide.refine" (fun () ->
              Equiv.trace_refines ~depth:f.depth cfg ~impl:p ~spec:q)
        with
        | Ok () ->
          plain (Printf.sprintf "%s trace-refines %s up to depth %d\n" f.impl f.spec f.depth)
        | Error s ->
          plain ~exit_code:1
            (Printf.sprintf "NOT a refinement: %s allows %s, %s does not\n" f.impl
               (Trace.to_string s) f.spec)
    in
    { (decide tr) with requery = Some (fun tr -> (decide tr).output) }
  | Cat.Prove ->
    let file = load tr ~models r.model in
    let tables = tables_of file in
    let ctx = Sequent.context file.Parser.defs in
    let failures = ref 0 in
    let line decl =
      let name, j = judgment decl in
      (* [Tactic.prove_and_check] is [auto] then [Check.check], with a
         retry on failure; timing the two apart needs the pieces *)
      let first =
        match tr.span "decide.prove_search" (fun () -> Tactic.auto ~tables ctx j) with
        | Error _ -> None
        | Ok proof -> (
          match tr.span "decide.prove_check" (fun () -> Check.check ctx j proof) with
          | Ok report -> Some (Ok (proof, report))
          | Error _ -> None)
      in
      let result =
        match first with
        | Some r -> r
        | None ->
          tr.span "decide.prove_search" (fun () -> Tactic.prove_and_check ~tables ctx j)
      in
      match result with
      | Ok (proof, report) ->
        Printf.sprintf "PROVED %s: %d rules, %d obligations (%d by testing)\n" name
          (Proof.size proof) (List.length report.Check.obligations)
          (Check.tested_obligations report)
      | Error m ->
        incr failures;
        Printf.sprintf "FAILED %s: %s\n" name m
    in
    let output = String.concat "" (List.map line file.Parser.decls) in
    plain ~exit_code:(exit_of !failures) output
  | Cat.Check ->
    let file = load tr ~models r.model in
    let eng = Engine.create ~depth:6 ~nat_bound:3 file.Parser.defs in
    let failures = ref 0 in
    let one label p a =
      let out = tr.span "decide.sat" (fun () -> Sat.check_engine eng p a) in
      (match out with Sat.Fails _ -> incr failures | Sat.Holds _ -> ());
      [ Format.asprintf "%s: %a\n" label Sat.pp_outcome out ]
    in
    let lines =
      List.concat_map
        (function
          | Parser.Assert_plain (n, a) ->
            one (Printf.sprintf "%s sat %s" n (Printer.assertion a)) (Process.ref_ n) a
          | Parser.Assert_array (q, x, m, a) ->
            List.concat_map
              (fun v ->
                let a' = Assertion.subst_var x (Term.Const v) a in
                one
                  (Printf.sprintf "%s[%s] sat %s" q (Value.to_string v)
                     (Printer.assertion a'))
                  (Process.Ref (q, Some (Expr.Const v)))
                  a')
              (Sampler.sample eng.Engine.sampler m))
        file.Parser.decls
    in
    plain ~exit_code:(exit_of !failures) (String.concat "" lines)
  | Cat.Family f -> (
    let fam =
      match Abstraction.Family.find f.family with
      | Some x -> x
      | None -> die "unknown family %s" f.family
    in
    let formula =
      match Abstraction.Formula.of_string "n <= 32" with
      | Ok x -> x
      | Error m -> die "%s" m
    in
    match
      tr.span "decide.family" (fun () ->
          Abstraction.Family.check_family ~depth:f.depth fam ~formula)
    with
    | Ok o ->
      plain
        ~exit_code:(if o.Abstraction.Family.certified then 0 else 1)
        (Format.asprintf "%a@." Abstraction.Family.pp_outcome o)
    | Error m -> plain ~exit_code:1 m)
  | Cat.Deadlock d ->
    let file = load tr ~models r.model in
    let eng = Engine.create ~seed:1 ~nat_bound:d.nat file.Parser.defs in
    let p = Process.ref_ d.process in
    let compiled = tr.span "compile" (fun () -> Engine.compile ~budget:d.steps eng p) in
    let deadlocks =
      tr.span "sim" (fun () ->
          let k = ref 0 in
          for i = 0 to d.runs - 1 do
            let res = Runner.run_engine ~seed:(1 + i) ~max_steps:d.steps ~compiled eng p in
            sim_steps := !sim_steps +. float_of_int res.Runner.stats.Csp_sim.Stats.steps;
            if res.Runner.stop = Runner.Deadlock then incr k
          done;
          !k)
    in
    plain ~exit_code:(exit_of deadlocks)
      (Printf.sprintf "%d/%d runs deadlocked within %d steps\n" deadlocks d.runs d.steps)
  | Cat.Parse ->
    let file = load tr ~models r.model in
    plain
      (tr.span "render.text" (fun () ->
           let decl = function
             | Parser.Assert_plain (n, a) ->
               Printf.sprintf "assert %s sat %s\n" n (Printer.assertion a)
             | Parser.Assert_array (q, x, m, a) ->
               Printf.sprintf "assert forall %s:%s. %s[%s] sat %s\n" x (Printer.vset m)
                 q x (Printer.assertion ~bound:[ x ] a)
           in
           String.concat ""
             ((Printer.defs file.Parser.defs ^ "\n") :: List.map decl file.Parser.decls)))
  | Cat.Fuzz _ -> die "fuzz requests are not replayed in process"

(* ---- one request in a fresh process ------------------------------------ *)

(* Every measured replay runs in a fresh process, as cspc does, so no
   heap, intern table or memo outlives its request.  [child] is that
   process: it prints one JSON object and exits. *)

let answers_of dir = Cat.load_answers (Filename.concat dir "expected/answers.json")

let span_json s =
  Json.Obj
    [
      ("name", Json.Str s.name); ("phase", Json.Str s.phase); ("root", Json.Bool s.root);
      ("start", Json.Num s.start); ("stop", Json.Num s.stop);
    ]

(* Seconds of interpreted exploration of a graph request, fresh engine. *)
let interpreted ?pool ~models (r : Cat.request) =
  match r.kind with
  | Cat.Graph g ->
    let file =
      match Parser.parse_file (source_of ~dir:models r.model) with
      | Ok f -> f
      | Error m -> die "%s" m
    in
    let eng = Engine.create ~nat_bound:g.nat file.Parser.defs in
    let t0 = now () in
    ignore
      (Lts.explore ~max_states:g.max_states ?pool (Engine.step_config eng)
         (Process.ref_ g.process));
    now () -. t0
  | _ -> die "%s is not a graph request" r.label

let child ~dir ~mode ~label =
  let models = Filename.concat dir "models" in
  let answers = answers_of dir in
  let r =
    match List.find_opt (fun (r : Cat.request) -> r.label = label) Cat.oneshot with
    | Some r -> r
    | None -> die "no request %s" label
  in
  let checked = ref 0 and failures = ref [] in
  let check ~exit_code ~output =
    incr checked;
    Option.iter (fun m -> failures := m :: !failures) (Cat.check answers r ~exit_code ~output)
  in
  let fields =
    match mode with
    | "bare" ->
      let t0 = now () in
      let o = replay bare ~models r in
      let wall = now () -. t0 in
      check ~exit_code:o.exit_code ~output:o.output;
      [ ("wall_ms", Json.Num (wall *. 1000.)) ]
    | "traced" ->
      let (), deltas =
        Obs.delta_snapshot (fun () ->
            let o = with_request label (fun () -> replay traced ~models r) in
            check ~exit_code:o.exit_code ~output:o.output;
            phase := "warm";
            Option.iter
              (fun requery ->
                check ~exit_code:o.exit_code
                  ~output:(with_request label (fun () -> requery traced)))
              o.requery)
      in
      [
        ("spans", Json.Arr (List.rev_map span_json !spans));
        ("counters", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) deltas));
        ("explored_states", Json.Num !explored_states);
        ("dot_bytes", Json.Num !dot_bytes);
        ("parsed_bytes", Json.Num !parsed_bytes);
        ("sim_steps", Json.Num !sim_steps);
      ]
    | "interp" -> [ ("wall_ms", Json.Num (1000. *. interpreted ~models r)) ]
    | "interp2" ->
      let wall, deltas =
        Obs.delta_snapshot (fun () ->
            Pool.with_pool ~domains:2 (fun pool -> interpreted ~pool ~models r))
      in
      [
        ("wall_ms", Json.Num (1000. *. wall));
        ("counters", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) deltas));
      ]
    | m -> die "unknown child mode %s" m
  in
  print_endline
    (Json.to_string
       (Json.Obj
          (("checked", Json.int !checked)
          :: ("failures", Json.Arr (List.rev_map (fun m -> Json.Str m) !failures))
          :: fields)))

(* ---- probes in the parent ----------------------------------------------- *)

let counter deltas key = float_of_int (Option.value ~default:0 (List.assoc_opt key deltas))

let sum_counters lists =
  let h = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, n) ->
         Hashtbl.replace h k (n + Option.value ~default:0 (Hashtbl.find_opt h k))))
    lists;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) h []

let ratio deltas hits misses =
  let h = counter deltas hits and m = counter deltas misses in
  if h +. m > 0. then h /. (h +. m) else 0.

(* An in-process server warmed on the catalogue, saved, and restarted
   from the snapshot: save and load times and the recompiles. *)
let persist_probe ~models ~work check =
  let server =
    match Server.create (Server.config "unused.sock") with
    | Ok s -> s
    | Error m -> die "%s" m
  in
  List.iter
    (fun (r : Cat.request) ->
      let source = if r.model = "" then "" else source_of ~dir:models r.model in
      match Cat.serve_fields ~source r with
      | None -> ()
      | Some fields -> (
        match Json.parse (Server.handle_line server (Json.to_string (Json.Obj fields))) with
        | Ok j ->
          check r
            ~exit_code:(Option.value ~default:(-1) (Json.mem_int "exit" j))
            ~output:(Option.value ~default:"" (Json.mem_str "output" j))
        | Error m -> die "serve reply: %s" m))
    Cat.oneshot;
  let snap = Filename.concat work "layers.snap" in
  let t0 = now () in
  let saved =
    Server.handle_line server
      (Json.to_string (Json.Obj [ ("op", Json.Str "save"); ("path", Json.Str snap) ]))
  in
  let save_ms = (now () -. t0) *. 1000. in
  (match Json.parse saved with
  | Ok j when Json.mem_bool "ok" j = Some true -> ()
  | _ -> die "save: %s" saved);
  let t1 = now () in
  let (), deltas =
    Obs.delta_snapshot (fun () ->
        match Server.create (Server.config ~warm:snap "unused.sock") with
        | Ok _ -> ()
        | Error m -> die "warm restart: %s" m)
  in
  let load_ms = (now () -. t1) *. 1000. in
  (try Sys.remove snap with Sys_error _ -> ());
  (save_ms, load_ms, counter deltas "compiled.compiles")

module Oracle = Csp_testkit.Oracle
module Fuzz = Csp_testkit.Fuzz

(* Generation, then each oracle on the same scenarios, then the
   sharded campaign at one and at two domains: the cases of one seed
   of the catalogue's pinned pool ([Fuzz.run] draws case [i] of seed
   [s] from [Random.State.make [| s; i |]] too). *)
let fuzz_probe ~seed note =
  let seed = List.nth Cat.fuzz_pool (abs seed mod List.length Cat.fuzz_pool) in
  let n = Cat.fuzz_count in
  let t0 = now () in
  let scenarios =
    List.init n (fun i ->
        QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed; i |]) Csp_testkit.Gen.scenario)
  in
  let gen_us = (now () -. t0) *. 1e6 /. float_of_int n in
  let per_oracle =
    List.map
      (fun (o : Oracle.t) ->
        let t0 = now () in
        List.iter
          (fun sc ->
            match o.check sc with
            | Oracle.Pass -> note None
            | Oracle.Fail m -> note (Some (Printf.sprintf "oracle %s: %s" o.name m)))
          scenarios;
        (o.name, (now () -. t0) *. 1000. /. float_of_int n))
      Oracle.all
  in
  let campaign jobs =
    let r = Fuzz.run { Fuzz.default_config with Fuzz.seed; max_cases = n; jobs } in
    note
      (if r.Fuzz.counterexamples = [] then None
       else Some (Printf.sprintf "fuzz --jobs %d found counterexamples" jobs));
    r.Fuzz.elapsed
  in
  let j1 = campaign 1 in
  let j2 = campaign 2 in
  (gen_us, per_oracle, j1 /. j2)

(* ---- the traced run ----------------------------------------------------- *)

let answers_ref = ref []

let j2_labels = [ "graph:copier-chain-8"; "graph:philosophers-5" ]

type report = {
  r : Cat.request;
  request : int;  (** id in the Chrome trace *)
  spans : span list;
  counters : (string * int) list;
  num : string -> float;
}

(* One pass over the shuffled catalogue: each request bare, traced
   (cold, then re-queried warm) and through the binary, back to back so
   the three see the same host; then the interpreted and two-domain
   explorations.  Returns the pass's metric values and its spans. *)
let one_pass ~run_child ~cspc ~models ~work ~st ~next_id note =
  let order = Array.to_list (Cat.shuffle st (Array.of_list Cat.oneshot)) in
  let num j k = Option.value ~default:0. (Json.mem_float k j) in
  let counters_of j =
    match Json.member "counters" j with
    | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
    | _ -> []
  in
  let spans_of j =
    match Json.member "spans" j with
    | Some (Json.Arr xs) ->
      List.map
        (fun x ->
          {
            name = Option.value ~default:"" (Json.mem_str "name" x);
            phase = Option.value ~default:"" (Json.mem_str "phase" x);
            root = Json.mem_bool "root" x = Some true;
            start = num x "start";
            stop = num x "stop";
          })
        xs
    | _ -> []
  in
  let bare_ms = ref 0. and unattributed = ref [] in
  let reports =
    List.map
      (fun (r : Cat.request) ->
        bare_ms := !bare_ms +. num (run_child "bare" r.label) "wall_ms";
        let j = run_child "traced" r.label in
        let spans = spans_of j in
        let layered =
          List.fold_left
            (fun acc s -> if s.phase = "cold" && not s.root then acc +. ms s else acc)
            0. spans
        in
        let cli =
          B.Child.run ~stderr:(Filename.concat work "layers-child.err") cspc
            (Cat.cli_args ~models r)
        in
        note (Cat.check !answers_ref r ~exit_code:cli.exit_code ~output:cli.stdout);
        unattributed := (cli.wall_ms -. layered) :: !unattributed;
        incr next_id;
        { r; request = !next_id; spans; counters = counters_of j; num = num j })
      order
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. reports in
  let deltas = sum_counters (List.map (fun rep -> rep.counters) reports) in
  let total ?(phase = "cold") ?(only = fun _ -> true) name =
    sum (fun rep ->
        if only rep.r then
          List.fold_left
            (fun acc s -> if s.name = name && s.phase = phase then acc +. ms s else acc)
            0. rep.spans
        else 0.)
  in
  let traced_ms =
    sum (fun rep ->
        List.fold_left
          (fun acc s -> if s.root && s.phase = "cold" then acc +. ms s else acc)
          0. rep.spans)
  in
  let is_graph (r : Cat.request) = match r.kind with Cat.Graph _ -> true | _ -> false in
  let graphs = List.filter is_graph order in
  let interp_ms =
    List.fold_left (fun acc (r : Cat.request) -> acc +. num (run_child "interp" r.label) "wall_ms") 0. graphs
  in
  let j2_set = List.filter (fun (r : Cat.request) -> List.mem r.label j2_labels) order in
  let t1 =
    List.fold_left (fun acc (r : Cat.request) -> acc +. num (run_child "interp" r.label) "wall_ms") 0. j2_set
  in
  let j2 = List.map (fun (r : Cat.request) -> run_child "interp2" r.label) j2_set in
  let t2 = List.fold_left (fun acc j -> acc +. num j "wall_ms") 0. j2 in
  let j2_deltas = sum_counters (List.map counters_of j2) in
  let per_s amount ms = if ms > 0. then amount /. (ms /. 1000.) else 0. in
  let values =
    [
      ("parse.ms", "ms", total "parse");
      ("parse.mb_per_s", "MB/s", per_s (sum (fun rep -> rep.num "parsed_bytes") /. 1e6) (total "parse"));
      ("intern.nodes", "count", counter deltas "intern.nodes");
      ("intern.hit_ratio", "ratio", ratio deltas "intern.hits" "intern.misses");
      ("step.interp_ms", "ms", interp_ms);
      ("step.trans_hit_ratio", "ratio", ratio deltas "step.trans_hits" "step.trans_misses");
      ("compile.ms", "ms", total "compile");
      ("compile.states_per_s", "1/s", per_s (counter deltas "compiled.states") (total "compile"));
      ( "compile.over_interp", "ratio",
        (total ~only:is_graph "compile" +. total "explore") /. interp_ms );
      ( "compile.cache_hit_ratio", "ratio",
        ratio deltas "engine.compile_hits" "engine.compile_misses" );
      ("compile.fallbacks", "count", counter deltas "compiled.fallbacks");
      ("explore.ms", "ms", total "explore");
      ("explore.states_per_s", "1/s", per_s (sum (fun rep -> rep.num "explored_states")) (total "explore"));
      ("explore.j2_speedup", "ratio", t1 /. t2);
      ("frontier.hit_ratio", "ratio", ratio j2_deltas "frontier.hits" "frontier.misses");
      ("pool.steals", "count", counter j2_deltas "pool.steals");
      ("decide.refine_ms", "ms", total "decide.refine");
      ("decide.bisim_ms", "ms", total "decide.bisim");
      ("decide.prove_search_ms", "ms", total "decide.prove_search");
      ("decide.prove_check_ms", "ms", total "decide.prove_check");
      ("decide.family_ms", "ms", total "decide.family");
      ("decide.sat_trace_evals", "count", counter deltas "sat.trace_evals");
      ("decide.abstract_states", "count", counter deltas "abstraction.quotient_states");
      ("render.dot_ms", "ms", total "render.dot");
      ("render.dot_mb_per_s", "MB/s", per_s (sum (fun rep -> rep.num "dot_bytes") /. 1e6) (total "render.dot"));
      ("render.json_ms", "ms", total ~phase:"warm" "render.json");
      ("sim.steps_per_s", "1/s", per_s (sum (fun rep -> rep.num "sim_steps")) (total "sim"));
      ("cli.unattributed_ms", "ms", B.Stats.median !unattributed);
      ("trace.overhead_pct", "%", 100. *. (traced_ms -. !bare_ms) /. !bare_ms);
    ]
  in
  (values, reports)

let chrome_trace path reports =
  let t0 =
    List.fold_left
      (fun m rep -> List.fold_left (fun m s -> Float.min m s.start) m rep.spans)
      infinity reports
  in
  let event rep s =
    let layer =
      match String.index_opt s.name '.' with
      | Some k -> String.sub s.name 0 k
      | None -> s.name
    in
    Json.Obj
      [
        ("name", Json.Str s.name); ("cat", Json.Str layer); ("ph", Json.Str "X");
        ("ts", Json.Num ((s.start -. t0) *. 1e6));
        ("dur", Json.Num ((s.stop -. s.start) *. 1e6));
        ("pid", Json.int 1); ("tid", Json.int 1);
        ( "args",
          Json.Obj
            [
              ("request", Json.int rep.request); ("label", Json.Str rep.r.label);
              ("phase", Json.Str s.phase);
              ( "parent",
                if s.root then Json.Null else Json.Str ("request:" ^ rep.r.label) );
            ] );
      ]
  in
  Cat.write_file path
    (Json.to_string
       (Json.Obj
          [ ("traceEvents", Json.Arr (List.concat_map (fun rep -> List.map (event rep) rep.spans) reports)) ]))

let trace ~cspc ~dir ~work ~seed ~seconds ~out ~chrome =
  let models = Filename.concat dir "models" in
  answers_ref := answers_of dir;
  let attempted = ref 0 and notes = ref [] in
  let note = function
    | None -> incr attempted
    | Some m ->
      incr attempted;
      notes := m :: !notes
  in
  let check r ~exit_code ~output = note (Cat.check !answers_ref r ~exit_code ~output) in
  let run_child mode label =
    let res =
      B.Child.run ~stderr:(Filename.concat work "layers-child.err") Sys.executable_name
        [ "child"; mode; label; "--dir"; dir ]
    in
    if res.exit_code <> 0 then
      die "layers.exe child %s %s: exit %d: %s" mode label res.exit_code
        (B.Child.tail_of_file (Filename.concat work "layers-child.err"));
    match Json.parse (String.trim res.stdout) with
    | Ok j ->
      attempted := !attempted + Option.value ~default:0 (Json.mem_int "checked" j);
      (match Json.member "failures" j with
      | Some (Json.Arr xs) -> notes := List.rev_append (List.filter_map Json.to_str xs) !notes
      | _ -> ());
      j
    | Error m -> die "layers.exe child %s %s: %s" mode label m
  in
  let t_start = now () in
  let st = Random.State.make [| seed |] in
  let save_ms, load_ms, restart_compiles = persist_probe ~models ~work check in
  let gen_us, per_oracle, fuzz_j2 = fuzz_probe ~seed note in
  let next_id = ref 0 in
  let rec passes acc =
    let p = one_pass ~run_child ~cspc ~models ~work ~st ~next_id note in
    if now () -. t_start < seconds then passes (p :: acc) else p :: acc
  in
  let all = passes [] in
  let per_pass =
    List.map
      (fun (name, unit, _) ->
        let values =
          List.map (fun (p, _) -> let _, _, v = List.find (fun (n, _, _) -> n = name) p in v) all
        in
        (name, unit, B.Stats.median values))
      (fst (List.hd all))
  in
  let once =
    [
      ("persist.save_ms", "ms", save_ms);
      ("persist.load_ms", "ms", load_ms);
      ("persist.restart_compiles", "count", restart_compiles);
      ("fuzz.gen_us_per_case", "us", gen_us);
    ]
    @ List.map
        (fun (o, v) -> (Printf.sprintf "fuzz.oracle.%s.ms_per_case" o, "ms", v))
        per_oracle
    @ [ ("pool.fuzz_j2_speedup", "ratio", fuzz_j2) ]
  in
  chrome_trace chrome (List.concat_map snd all);
  Cat.write_file out
    (Json.to_pretty
       (Json.Obj
          [
            ("attempted", Json.int !attempted);
            ("failed", Json.int (List.length !notes));
            ("notes", Json.Arr (List.rev_map (fun s -> Json.Str s) !notes));
            ("passes", Json.int (List.length all));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                   (per_pass @ once)) );
          ]))

(* ---- command line ------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name default = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name default rest
    | [] -> default
  in
  let cspc = opt "--cspc" "_build/default/bin/cspc.exe" args in
  let dir = opt "--dir" "benchmark" args in
  match args with
  | "regen" :: rest -> regen ~write:(List.mem "--write" rest) ~cspc ~dir
  | "trace" :: _ ->
    trace ~cspc ~dir ~work:(opt "--work" "." args)
      ~seed:(int_of_string (opt "--seed" "1" args))
      ~seconds:(float_of_string (opt "--seconds" "10" args))
      ~out:(opt "--out" "layers.json" args)
      ~chrome:(opt "--chrome" "trace.json" args)
  | "child" :: mode :: label :: _ -> child ~dir ~mode ~label
  | _ ->
    prerr_endline "usage: layers.exe (regen [--write] | trace --out FILE) [options]";
    exit 2
