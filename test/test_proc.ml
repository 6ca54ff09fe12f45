(* Hash-consed process IR: interning canonicity, hash agreement across
   re-interning, printer/parser round-trips at the Proc level, and the
   deterministic DOT rendering of explored transition systems. *)

open Csp
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Tgen = Csp_testkit.Gen
module Scenario = Csp_testkit.Scenario
open Test_support

(* ---- interning canonicity ------------------------------------------- *)

(* physical equality of interned nodes decides structural equality of
   the underlying terms — the defining property of the unique table *)
let prop_intern_canonical =
  qcheck_case ~count:500 "intern p == intern q iff Process.equal p q"
    QCheck2.Gen.(pair process_gen process_gen)
    (fun (p, q) ->
      Bool.equal
        (Proc.equal (Proc.intern p) (Proc.intern q))
        (Process.equal p q))

let prop_intern_reflexive =
  qcheck_case ~count:300 "intern p == intern p" process_gen (fun p ->
      Proc.equal (Proc.intern p) (Proc.intern p))

let prop_to_process_roundtrip =
  qcheck_case ~count:300 "to_process (intern p) = p" process_gen (fun p ->
      Process.equal (Proc.to_process (Proc.intern p)) p)

(* Canonicity under concurrent interning: the lock-free probe fast
   path must never hand two domains distinct nodes for the same term.
   Each domain interns the same family of deep chains; every result
   must be pointer-identical across domains, and the hit counter must
   have moved (the fast path is what the race exercises). *)
let test_intern_concurrent_canonical () =
  let build n =
    let rec chain i acc =
      if i = 0 then acc
      else chain (i - 1) (Process.Output (Chan_expr.simple "c", Expr.int i, acc))
    in
    chain 40 (Process.Output (Chan_expr.simple "seed", Expr.int n, Process.Stop))
  in
  let s0 = Proc.stats () in
  let results =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map pool
          (fun _ -> Array.init 50 (fun i -> Proc.intern (build i)))
          (Array.init 4 Fun.id))
  in
  let reference = results.(0) in
  Array.iter
    (fun per_domain ->
      Alcotest.(check bool) "pointer-identical across domains" true
        (Array.for_all2 Proc.equal reference per_domain))
    results;
  let s1 = Proc.stats () in
  Alcotest.(check bool) "fast-path hits recorded" true
    (s1.Proc.hits > s0.Proc.hits)

(* The unique table keeps every node: a term whose node nothing else
   holds re-interns to the same id after a major collection. *)
let test_id_survives_gc () =
  let intern_fresh () =
    let c = Chan_expr.simple "gc_probe" in
    let k = Process.Output (c, Expr.int 2, Process.Stop) in
    Proc.id (Proc.intern (Process.Output (c, Expr.int 1, k)))
  in
  let id = intern_fresh () in
  Gc.full_major ();
  Alcotest.(check int) "same id after a major GC" id (intern_fresh ())

(* re-interning the projected view lands on the very same node: ids and
   hashes agree across interning rounds *)
let prop_hash_stable =
  qcheck_case ~count:300 "re-interning preserves id and hash" process_gen
    (fun p ->
      let n = Proc.intern p in
      let n' = Proc.intern (Proc.to_process n) in
      Proc.equal n n' && Proc.id n = Proc.id n' && Proc.hash n = Proc.hash n')

let prop_hash_agrees_on_equal =
  qcheck_case ~count:500 "Process.equal p q implies hash agreement"
    QCheck2.Gen.(pair process_gen process_gen)
    (fun (p, q) ->
      (not (Process.equal p q))
      || Proc.hash (Proc.intern p) = Proc.hash (Proc.intern q))

(* ---- printer/parser round trips -------------------------------------- *)

let prop_print_parse_same_node =
  qcheck_case ~count:300 "parse (print p) interns to the same node"
    process_gen (fun p ->
      match Parser.parse_process (Printer.process p) with
      | Ok p' -> Proc.equal (Proc.intern p) (Proc.intern p')
      | Error m ->
        QCheck2.Test.fail_reportf "did not reparse: %s\n%s"
          (Printer.process p) m)

(* whole scenarios survive the corpus format: every definition body of
   a generated scenario re-interns to its original node after a trip
   through [Scenario.to_csp] and the file parser *)
let prop_scenario_roundtrip =
  qcheck_case ~count:150 "scenario to_csp/parse_file re-interns unchanged"
    Tgen.scenario (fun s ->
      match Parser.parse_file (Scenario.to_csp s) with
      | Error m ->
        QCheck2.Test.fail_reportf "scenario did not reparse: %s" m
      | Ok file ->
        List.for_all
          (fun (d : Defs.def) ->
            match Defs.lookup file.Parser.defs d.Defs.name with
            | None -> false
            | Some d' ->
              Proc.equal (Proc.intern d.Defs.body) (Proc.intern d'.Defs.body))
          (Scenario.def_list s.Scenario.defs))

(* ---- interned alphabets ----------------------------------------------- *)

let base_names = [ "a"; "b"; "d" ]

(* Closed subscripts, and two kinds that do not evaluate: an unbound
   variable and a division by zero. *)
let subscript_gen =
  QCheck2.Gen.(
    oneof
      [
        map Expr.int (int_range 0 2);
        map2
          (fun a b -> Expr.Add (Expr.int a, Expr.int b))
          (int_range 0 1) (int_range 0 1);
        pure (Expr.Const Value.ack);
        pure (Expr.Var "x");
        pure (Expr.Div (Expr.int 1, Expr.int 0));
      ])

let alphabet_item_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun name subs -> Chan_set.Chan { Chan_expr.name; subs })
          (oneofl base_names)
          (list_size (int_range 0 2) subscript_gen);
        map2
          (fun name (lo, hi) -> Chan_set.Family (name, Vset.Range (lo, hi)))
          (oneofl base_names)
          (pair (int_range 0 2) (int_range 0 2));
        map2
          (fun name vs -> Chan_set.Family (name, Vset.Enum vs))
          (oneofl base_names)
          (list_size (int_range 0 2) value_gen);
        map (fun name -> Chan_set.Base name) (oneofl base_names);
      ])

let alphabet_gen = QCheck2.Gen.(list_size (int_range 0 5) alphabet_item_gen)

(* channels on the alphabet's base names and on one it never names *)
let probe_gen =
  QCheck2.Gen.(
    map2
      (fun name indices -> Channel.make ~indices name)
      (oneofl ("c" :: base_names))
      (list_size (int_range 0 2) value_gen))

let prop_alphabet_mem =
  qcheck_case ~count:500 "alphabet membership agrees with Chan_set.mem"
    QCheck2.Gen.(pair alphabet_gen (list_size (int_range 1 8) probe_gen))
    (fun (cs, probes) ->
      let a = Proc.Alphabet.make cs in
      List.for_all
        (fun c -> Bool.equal (Proc.Alphabet.mem a c) (Chan_set.mem cs c))
        probes)

(* interning canonicalises [Chan_set.equal], and substitution agrees
   with [Chan_set.subst_value] (then with membership, as above) *)
let prop_alphabet_interned =
  qcheck_case ~count:300 "alphabets intern canonically and substitute"
    QCheck2.Gen.(triple alphabet_gen alphabet_gen value_gen)
    (fun (cs, cs', v) ->
      let a = Proc.Alphabet.make cs in
      let subst = Chan_set.subst_value "x" v cs in
      Proc.Alphabet.make (List.map Fun.id cs) == a
      && Bool.equal (Proc.Alphabet.make cs' == a) (Chan_set.equal cs cs')
      && Proc.Alphabet.subst_value "x" v a == Proc.Alphabet.make subst
      && Chan_set.equal
           (Proc.Alphabet.set (Proc.Alphabet.subst_value "x" v a))
           subst)

(* ---- deterministic DOT output ---------------------------------------- *)

let tick_defs =
  Defs.empty
  |> Defs.define "tick"
       (Process.send "a" (Expr.int 0)
          (Process.Choice
             ( Process.send "b" (Expr.int 1) (Process.ref_ "tick"),
               Process.Hide
                 (Chan_set.of_names [ "c" ],
                  Process.send "c" (Expr.int 2) Process.Stop) )))

let expected_dot = "digraph tick {\n\
                   \  rankdir=LR;\n\
                   \  n0 [style=bold];\n\
                   \  n2 [shape=doublecircle];\n\
                   \  n1 [shape=circle];\n\
                   \  n0 -> n1 [label=\"a.0\"];\n\
                   \  n1 -> n0 [label=\"b.1\"];\n\
                   \  n1 -> n2 [label=\"c.2\", style=dashed];\n\
                   }\n"

let test_dot_expected () =
  let cfg = Step.config tick_defs in
  let lts = Lts.explore cfg (Process.ref_ "tick") in
  Alcotest.(check string) "DOT output" expected_dot (Lts.to_dot ~name:"tick" lts)

(* exploring twice — and exploring a differently-constructed but
   structurally equal copy — renders the very same bytes *)
let test_dot_stable () =
  let render () =
    let cfg = Step.config tick_defs in
    Lts.to_dot (Lts.explore cfg (Process.ref_ "tick"))
  in
  Alcotest.(check string) "stable across runs" (render ()) (render ())

let () =
  Alcotest.run "proc"
    [
      ( "interning",
        [
          prop_intern_canonical;
          prop_intern_reflexive;
          prop_to_process_roundtrip;
          prop_hash_stable;
          prop_hash_agrees_on_equal;
          Alcotest.test_case "concurrent interning canonical" `Quick
            test_intern_concurrent_canonical;
          Alcotest.test_case "ids survive a major GC" `Quick
            test_id_survives_gc;
        ] );
      ("alphabets", [ prop_alphabet_mem; prop_alphabet_interned ]);
      ( "round-trips",
        [ prop_print_parse_same_node; prop_scenario_roundtrip ] );
      ( "dot",
        [
          Alcotest.test_case "expected output" `Quick test_dot_expected;
          Alcotest.test_case "deterministic" `Quick test_dot_stable;
        ] );
    ]
