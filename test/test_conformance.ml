(* Differential conformance: deterministic replay of the counterexample
   corpus, oracle-registry coverage, a seeded fuzz smoke run, generator
   determinism, and printer/parser round-trips on generated scenarios
   and the shipped examples.

   The corpus lives in [test/corpus/*.csp]; each entry records the
   oracle that must accept it.  Replay fails if an entry's oracle is
   missing from the registry, and registry coverage fails if an oracle
   has no corpus entry — together these guarantee that disabling any
   single oracle makes this suite fail. *)

open Csp
open Test_support
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Gen = Csp_testkit.Gen
module Oracle = Csp_testkit.Oracle
module Fuzz = Csp_testkit.Fuzz
module Corpus = Csp_testkit.Corpus
module Scenario = Csp_testkit.Scenario

let corpus_dir = build_file "test/corpus"
let examples_dir = build_file "examples"
let entries = lazy (Corpus.read_dir corpus_dir)

(* ---- corpus replay --------------------------------------------------- *)

let test_corpus_replay () =
  let entries = Lazy.force entries in
  Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
  List.iter
    (fun (e : Corpus.entry) ->
      match Oracle.find e.oracle with
      | None ->
        Alcotest.failf "%s: oracle %S is not registered — disabled?" e.path
          e.oracle
      | Some o -> (
        match o.Oracle.check e.scenario with
        | Oracle.Pass -> ()
        | Oracle.Fail m -> Alcotest.failf "%s [%s]: %s" e.path e.oracle m))
    entries

let test_registry_covered () =
  let entries = Lazy.force entries in
  List.iter
    (fun (o : Oracle.t) ->
      if
        not
          (List.exists
             (fun (e : Corpus.entry) -> String.equal e.oracle o.Oracle.name)
             entries)
      then Alcotest.failf "no corpus entry exercises oracle %s" o.Oracle.name)
    Oracle.all

(* every corpus file must round-trip through its own persisted form:
   re-serialising the parsed scenario yields a file that parses back to
   the same scenario (the format [Corpus.write] emits). *)
let test_corpus_format_stable () =
  List.iter
    (fun (e : Corpus.entry) ->
      let text = Scenario.to_csp ~header:[ "oracle: " ^ e.oracle ] e.scenario in
      match Parser.parse_file text with
      | Error m -> Alcotest.failf "%s: re-serialised text fails: %s" e.path m
      | Ok f ->
        let s = Scenario.make ~defs:f.Parser.defs ~main:e.scenario.Scenario.main in
        if not (Scenario.equal e.scenario s) then
          Alcotest.failf "%s: scenario changed across print/parse" e.path)
    (Lazy.force entries)

(* [Oracle.make] threads every check through a per-oracle case counter
   ([oracle.<name>.cases] in the Obs registry); replaying the corpus
   must move every registered oracle's counter — proving the
   instrumentation sits on the real verdict path, not a side branch.
   Counters are cumulative and process-global, so the test differences
   two readings rather than expecting absolute values. *)
let test_replay_moves_oracle_counters () =
  let before =
    List.map (fun o -> (o.Oracle.name, Oracle.cases_run o)) Oracle.all
  in
  List.iter
    (fun (e : Corpus.entry) ->
      match Oracle.find e.oracle with
      | None -> ()
      | Some o -> ignore (o.Oracle.check e.scenario))
    (Lazy.force entries);
  List.iter
    (fun (o : Oracle.t) ->
      let b = List.assoc o.Oracle.name before in
      Alcotest.(check bool)
        (Printf.sprintf "oracle %s counted its replays" o.Oracle.name)
        true
        (Oracle.cases_run o - b >= 1))
    Oracle.all

(* ---- seeded fuzz smoke ----------------------------------------------- *)

let smoke_cases = 40
let smoke_config = { Fuzz.default_config with Fuzz.seed = 2026; max_cases = smoke_cases }

let test_fuzz_smoke () =
  let r = Fuzz.run smoke_config in
  Alcotest.(check int) "all cases ran" smoke_cases r.Fuzz.cases;
  List.iter
    (fun (name, runs) ->
      Alcotest.(check int) (name ^ " ran on every case") smoke_cases runs)
    r.Fuzz.oracle_runs;
  Alcotest.(check int)
    "every registered oracle ran"
    (List.length Oracle.all)
    (List.length r.Fuzz.oracle_runs);
  match r.Fuzz.counterexamples with
  | [] -> ()
  | c :: _ -> Alcotest.failf "%a" Fuzz.pp_counterexample c

let test_generator_deterministic () =
  let stream seed n =
    let rand = Random.State.make [| seed |] in
    List.init n (fun _ -> QCheck2.Gen.generate1 ~rand Gen.scenario)
  in
  Alcotest.(check bool)
    "same seed, same scenarios" true
    (List.for_all2 Scenario.equal (stream 11 30) (stream 11 30));
  Alcotest.(check bool)
    "different seeds diverge somewhere" true
    (not (List.for_all2 Scenario.equal (stream 11 30) (stream 12 30)))

(* ---- printer/parser round-trips -------------------------------------- *)

let prop_process_roundtrip =
  qcheck_case ~count:300 "print→parse identity (generated processes)"
    Gen.process (fun p ->
      match Parser.parse_process (Printer.process p) with
      | Ok p' -> Process.equal p p'
      | Error m ->
        QCheck2.Test.fail_reportf "%s does not parse back: %s"
          (Printer.process p) m)

let prop_scenario_roundtrip =
  qcheck_case ~count:200 "corpus-format identity (generated scenarios)"
    Gen.scenario (fun s ->
      let text = Scenario.to_csp s in
      match Parser.parse_file text with
      | Ok f ->
        Scenario.equal s
          (Scenario.make ~defs:f.Parser.defs ~main:s.Scenario.main)
      | Error m ->
        QCheck2.Test.fail_reportf "scenario does not parse back: %s@.%s" m
          text)

let def_equal (a : Defs.def) (b : Defs.def) =
  String.equal a.Defs.name b.Defs.name
  && (match (a.Defs.param, b.Defs.param) with
     | None, None -> true
     | Some (x, m), Some (y, m') -> String.equal x y && Vset.equal m m'
     | _ -> false)
  && Process.equal a.Defs.body b.Defs.body

let test_examples_roundtrip () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csp")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "examples present" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat examples_dir f in
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let file = Parser.parse_file_exn text in
      let printed = Printer.defs file.Parser.defs in
      match Parser.parse_file printed with
      | Error m -> Alcotest.failf "%s: printed defs fail to parse: %s" f m
      | Ok file' ->
        let ds = Scenario.def_list file.Parser.defs in
        let ds' = Scenario.def_list file'.Parser.defs in
        if
          List.length ds <> List.length ds'
          || not (List.for_all2 def_equal ds ds')
        then Alcotest.failf "%s: definitions changed across print/parse" f)
    files

let () =
  Alcotest.run "conformance"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "registry coverage" `Quick test_registry_covered;
          Alcotest.test_case "format stability" `Quick
            test_corpus_format_stable;
          Alcotest.test_case "replay moves oracle counters" `Quick
            test_replay_moves_oracle_counters;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "seeded smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "generator determinism" `Quick
            test_generator_deterministic;
        ] );
      ( "round-trip",
        [
          prop_process_roundtrip;
          prop_scenario_roundtrip;
          Alcotest.test_case "examples/*.csp" `Quick test_examples_roundtrip;
        ] );
    ]
