open Csp
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Snapshot = Csp_persist.Snapshot

type ctx = {
  digest : string;
  source : string;
  file : Parser.file;
  engines : (int, Engine.t) Hashtbl.t;
  mutable compiled_roots : Snapshot.compiled_root list;
  mutable proofs : (string * (Sequent.judgment * Proof.t)) list;
  lock : Mutex.t;
}

let ctx_of_source source =
  match Parser.parse_file source with
  | Error m -> Error m
  | Ok file ->
    Ok
      {
        digest = Digest.to_hex (Digest.string source);
        source;
        file;
        engines = Hashtbl.create 2;
        compiled_roots = [];
        proofs = [];
        lock = Mutex.create ();
      }

(* Engines are keyed by the sampler bound: depth and seed are
   per-query parameters ([with_depth]/[with_seed] share the caches),
   but [nat_bound] changes the transition relation and needs its own
   cache hierarchy — exactly the [Engine.with_sampler] rule. *)
let engine ctx ~nat_bound =
  match Hashtbl.find_opt ctx.engines nat_bound with
  | Some eng -> eng
  | None ->
    let eng = Engine.create ~nat_bound ctx.file.Parser.defs in
    Hashtbl.add ctx.engines nat_bound eng;
    eng

type outcome = { output : string; exit_code : int }

let record_compile ctx ~process ~budget ~nat_bound =
  let root = { Snapshot.process; budget; nat_bound } in
  if not (List.mem root ctx.compiled_roots) then
    ctx.compiled_roots <- root :: ctx.compiled_roots

let admit_proofs ctx proofs =
  List.iter
    (fun (j, proof) ->
      let key = Sequent.judgment_to_string j in
      if not (List.mem_assoc key ctx.proofs) then
        ctx.proofs <- (key, (j, proof)) :: ctx.proofs)
    proofs

let find_process ctx name =
  match Defs.lookup ctx.file.Parser.defs name with
  | Some _ -> Ok (Process.ref_ name)
  | None -> Error (Printf.sprintf "process %s is not defined" name)

let ( let* ) = Result.bind

let unguarded name =
  Printf.sprintf
    "process %s is unguarded: unfolding it reaches no communication" name

(* An unguarded definition is bad input, not a bug: the job answers an
   error naming it. *)
let guarded f = try f () with Step.Unproductive n -> Error (unguarded n)

(* ---- parse ------------------------------------------------------------ *)

(* [cspc parse]: the printed definitions and a newline, then one line
   per assertion declaration. *)
let parse ctx =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printer.defs ctx.file.Parser.defs);
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Parser.Assert_plain (n, a) ->
        Buffer.add_string buf
          (Printf.sprintf "assert %s sat %s\n" n (Printer.assertion a))
      | Parser.Assert_array (q, x, m, a) ->
        Buffer.add_string buf
          (Printf.sprintf "assert forall %s:%s. %s[%s] sat %s\n" x
             (Printer.vset m) q x
             (Printer.assertion ~bound:[ x ] a)))
    ctx.file.Parser.decls;
  { output = Buffer.contents buf; exit_code = 0 }

(* ---- graph ------------------------------------------------------------ *)

let status_line (f : Dot.facts) =
  Printf.sprintf
    "%d states, %d transitions%s; deterministic=%b; deadlock states: %d\n"
    f.Dot.states f.Dot.transitions
    (if f.Dot.complete then ""
     else
       Printf.sprintf " (truncated; %d states with dropped moves)"
         f.Dot.truncated_states)
    f.Dot.deterministic f.Dot.deadlocks

(* The compiled path replays the engine's cached automaton and writes
   the reply straight from the walk's flat edges; the interpreted
   reference takes its facts from the [Lts.t] it explored. *)
let compiled_graph ctx ~process ~max_states ~nat_bound =
  let* p = find_process ctx process in
  let eng = engine ctx ~nat_bound in
  guarded @@ fun () ->
  let c = Engine.compile ~budget:max_states eng p in
  record_compile ctx ~process ~budget:(Some max_states) ~nat_bound;
  Ok (Compiled.explore_raw ~max_states c).Compiled.graph

let graph_writer ctx ~process ~max_states ~nat_bound =
  let* g = compiled_graph ctx ~process ~max_states ~nat_bound in
  Ok
    (fun ~escape buf ->
      Dot.write ~escape ~name:process ~status:status_line buf g)

let graph ctx ~process ~max_states ~nat_bound ~compiled =
  let* output =
    if compiled then
      let* g = compiled_graph ctx ~process ~max_states ~nat_bound in
      Ok (Dot.render ~name:process ~status:status_line g)
    else
      let* p = find_process ctx process in
      let eng = engine ctx ~nat_bound in
      let lts = Lts.explore ~max_states (Engine.step_config eng) p in
      let facts =
        {
          Dot.states = Lts.num_states lts;
          transitions = Lts.num_transitions lts;
          complete = lts.Lts.complete;
          deterministic = Lts.is_deterministic lts;
          deadlocks = List.length (Lts.deadlock_states lts);
          truncated_states = List.length (Lts.truncated_states lts);
        }
      in
      Ok (Lts.to_dot ~name:process ~header:(status_line facts) lts)
  in
  Ok { output; exit_code = 0 }

(* ---- preset families --------------------------------------------------- *)

module Family = Abstraction.Family
module Counter = Abstraction.Counter

let find_family model =
  match Family.find model with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown family %s (have: %s)" model
         (String.concat ", "
            (List.map (fun (f : Family.t) -> f.fam.Counter.name) Family.presets)))

(* [graph --abstract counter]: the summary, one legend line per local
   state, then the DOT of the counter-abstract quotient. *)
let graph_abstract ~model ~n ~max_states =
  let* fam = find_family model in
  let r = Counter.explore ~max_states fam.Family.fam ~n in
  let g = r.Counter.graph in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "%d abstract states, %d transitions%s; %d omega collapse(s); %d local \
     state(s) in legend\n"
    g.Dot.n_states g.Dot.n_edges
    (if g.Dot.complete then "" else " (truncated)")
    r.Counter.omega_collapses
    (List.length r.Counter.legend);
  List.iter
    (fun (i, p) -> Printf.bprintf buf "  s%d = %s\n" i (Printer.process p))
    r.Counter.legend;
  Ok
    {
      output =
        Dot.render
          ~name:(fam.Family.fam.Counter.name ^ "_abs")
          ~header:(Buffer.contents buf) g;
      exit_code = 0;
    }

(* ---- refine ----------------------------------------------------------- *)

(* [--weak] explores each side to this many states. *)
let weak_states = 2000

let refine ctx ~impl ~spec ~depth ~nat_bound ~weak =
  let* p = find_process ctx impl in
  let* q = find_process ctx spec in
  let eng = Engine.with_depth (engine ctx ~nat_bound) depth in
  let cfg = Engine.step_config eng in
  guarded @@ fun () ->
  if weak then begin
    let compiler r = Engine.compile ~budget:weak_states eng r in
    (* a compile that raises records nothing a snapshot would replay *)
    ignore (compiler p);
    record_compile ctx ~process:impl ~budget:(Some weak_states) ~nat_bound;
    ignore (compiler q);
    record_compile ctx ~process:spec ~budget:(Some weak_states) ~nat_bound;
    let answer =
      match
        Bisim.weak_verdict ~max_states:weak_states ~compiler cfg p q
      with
      | Some b -> string_of_bool b
      | None ->
        Printf.sprintf "unknown (truncated at %d states)" weak_states
    in
    Ok
      {
        output =
          Printf.sprintf "%s and %s weakly bisimilar (bounded): %s\n" impl
            spec answer;
        exit_code = 0;
      }
  end
  else
    match Equiv.trace_refines ~depth cfg ~impl:p ~spec:q with
    | Ok () ->
      Ok
        {
          output =
            Printf.sprintf "%s trace-refines %s up to depth %d\n" impl spec
              depth;
          exit_code = 0;
        }
    | Error s ->
      Ok
        {
          output =
            Printf.sprintf "NOT a refinement: %s allows %s, %s does not\n"
              impl (Trace.to_string s) spec;
          exit_code = 1;
        }

(* ---- prove ------------------------------------------------------------ *)

let tables_of file =
  let invariants =
    List.filter_map
      (function Parser.Assert_plain (n, a) -> Some (n, a) | _ -> None)
      file.Parser.decls
  in
  let array_invariants =
    List.filter_map
      (function
        | Parser.Assert_array (q, x, m, a) -> Some (q, (x, m, a))
        | _ -> None)
      file.Parser.decls
  in
  Tactic.tables ~invariants ~array_invariants ()

(* [Tactic.prove_and_check] is [auto] followed by [Check.check], so
   re-checking a stored proof tree yields the same report — and hence
   the same output line — as searching for it afresh; only the search
   is skipped.  A stored proof that no longer checks (it cannot, for
   a fixed source) falls back to the tactic. *)
let prove ctx ~verbose =
  let tables = tables_of ctx.file in
  let sctx = Sequent.context ctx.file.Parser.defs in
  let buf = Buffer.create 256 in
  let failures = ref 0 in
  List.iter
    (fun decl ->
      let name, judgment =
        match decl with
        | Parser.Assert_plain (n, a) -> (n, Sequent.Holds (Process.ref_ n, a))
        | Parser.Assert_array (q, x, m, a) ->
          (q ^ "[]", Sequent.Holds_all (q, x, m, a))
      in
      let key = Sequent.judgment_to_string judgment in
      let proved =
        match List.assoc_opt key ctx.proofs with
        | Some (_, proof) -> (
          match Check.check sctx judgment proof with
          | Ok report -> Some (proof, report)
          | Error _ -> None)
        | None -> None
      in
      let result =
        match proved with
        | Some pr -> Ok pr
        | None -> (
          match Tactic.prove_and_check ~tables sctx judgment with
          | Ok (proof, report) ->
            ctx.proofs <- (key, (judgment, proof)) :: ctx.proofs;
            Ok (proof, report)
          | Error m -> Error m)
      in
      match result with
      | Ok (proof, report) ->
        Buffer.add_string buf
          (Printf.sprintf
             "PROVED %s: %d rules, %d obligations (%d by testing)\n" name
             (Proof.size proof)
             (List.length report.Check.obligations)
             (Check.tested_obligations report));
        if verbose then
          Buffer.add_string buf (Format.asprintf "%a@." Check.pp_report report)
      | Error m ->
        incr failures;
        Buffer.add_string buf (Printf.sprintf "FAILED %s: %s\n" name m))
    ctx.file.Parser.decls;
  { output = Buffer.contents buf;
    exit_code = (if !failures > 0 then 1 else 0) }

(* [prove --family]: one counter-abstract exploration per assignment
   class of the formula certifies the family's erased invariants for
   every satisfying instance at once. *)
let prove_family ~model ~formula ~depth =
  let* fam = find_family model in
  let* f =
    Result.map_error
      (Printf.sprintf "bad formula %S: %s" formula)
      (Abstraction.Formula.of_string formula)
  in
  let* o =
    Result.map_error
      (Printf.sprintf "%s: %s" model)
      (Family.check_family ~depth fam ~formula:f)
  in
  Ok
    {
      output = Format.asprintf "%a@." Family.pp_outcome o;
      exit_code = (if o.Family.certified then 0 else 1);
    }

(* ---- fuzz ------------------------------------------------------------- *)

module Oracle = Csp_testkit.Oracle
module Fuzz = Csp_testkit.Fuzz
module Corpus = Csp_testkit.Corpus

let resolve_oracles = function
  | [] -> Ok Oracle.all
  | names ->
    List.fold_left
      (fun acc n ->
        let* acc = acc in
        match Oracle.find n with
        | Some o -> Ok (o :: acc)
        | None ->
          Error
            (Printf.sprintf "unknown oracle %s (available: %s)" n
               (String.concat ", " (Oracle.names ()))))
      (Ok []) names
    |> Result.map List.rev

(* Re-examine every corpus entry of [dir] with its recorded oracle;
   returns the failure count. *)
let replay_corpus buf dir =
  let entries = Corpus.read_dir dir in
  let failed = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      match Oracle.find e.Corpus.oracle with
      | None ->
        incr failed;
        Printf.bprintf buf "DISABLED %s: oracle %s is not registered\n"
          e.Corpus.path e.Corpus.oracle
      | Some o -> (
        match o.Oracle.check e.Corpus.scenario with
        | Oracle.Pass ->
          Printf.bprintf buf "ok %s [%s]\n" e.Corpus.path o.Oracle.name
        | Oracle.Fail m ->
          incr failed;
          Printf.bprintf buf "FAIL %s [%s]: %s\n" e.Corpus.path o.Oracle.name m))
    entries;
  Printf.bprintf buf "corpus: %d entr%s replayed, %d failure(s)\n"
    (List.length entries)
    (if List.length entries = 1 then "y" else "ies")
    !failed;
  !failed

let fuzz ?(jobs = 1) ?(coverage = false) ?replay ?save ~seed ~count ~budget
    ~oracle_names () =
  let* oracles = resolve_oracles oracle_names in
  let buf = Buffer.create 1024 in
  let replay_failures =
    match replay with None -> 0 | Some dir -> replay_corpus buf dir
  in
  let config =
    {
      Fuzz.default_config with
      Fuzz.seed;
      max_cases = count;
      budget;
      oracles;
      jobs;
    }
  in
  (* a case is where a sliced job may pause (see [Coop]) *)
  let on_case _ = Csp_parallel.Coop.yield () in
  let report =
    if coverage then begin
      let report, cov = Fuzz.run_coverage ~on_case config in
      Buffer.add_string buf
        (Format.asprintf "%a@." Fuzz.pp_coverage (report, cov));
      report
    end
    else Fuzz.run ~on_case config
  in
  Buffer.add_string buf (Format.asprintf "%a@." Fuzz.pp_report report);
  Option.iter
    (fun dir ->
      List.iter
        (fun (c : Fuzz.counterexample) ->
          Printf.bprintf buf "saved %s\n"
            (Corpus.write ~dir ~oracle:c.Fuzz.oracle ~seed c.Fuzz.scenario))
        report.Fuzz.counterexamples)
    save;
  Ok
    {
      output = Buffer.contents buf;
      exit_code =
        (if replay_failures > 0 || report.Fuzz.counterexamples <> [] then 1
         else 0);
    }
