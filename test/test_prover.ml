(* The obligation prover: syntactic rules, ground evaluation, and
   testing-based refutation. *)

open Csp
open Test_support

let check_bool = Alcotest.(check bool)

let is_proved = function Prover.Proved _ -> true | _ -> false
let is_refuted = function Prover.Refuted _ -> true | _ -> false
let is_unknown = function Prover.Unknown _ -> true | _ -> false
let prove ?hyps concl = Prover.prove (Prover.goal ?hyps concl)

let wire = Term.chan "wire"
let input = Term.chan "input"

let test_reflexivity () =
  check_bool "s <= s" true (is_proved (prove (Assertion.Prefix (wire, wire))));
  check_bool "t = t" true (is_proved (prove (Assertion.Eq (input, input))))

let test_empty_least () =
  check_bool "<> <= s" true
    (is_proved (prove (Assertion.Prefix (Term.empty_seq, wire))))

let test_cons_monotone () =
  (* x^wire <= x^input from wire <= input *)
  let hyp = Assertion.Prefix (wire, input) in
  let concl =
    Assertion.Prefix (Term.Cons (Term.Var "x", wire), Term.Cons (Term.Var "x", input))
  in
  check_bool "cons monotonicity" true (is_proved (prove ~hyps:[ hyp ] concl));
  (* and inside an implication under a quantifier *)
  check_bool "quantified implication" true
    (is_proved (prove (Assertion.Forall ("x", Vset.Nat, Assertion.Imp (hyp, concl)))))

let test_transitivity_chain () =
  let c i = Term.Chan (Chan_expr.indexed "c" (Expr.int i)) in
  let hyps =
    [
      Assertion.Prefix (c 3, c 2);
      Assertion.Prefix (c 2, c 1);
      Assertion.Prefix (c 1, c 0);
    ]
  in
  check_bool "three-step chain" true
    (is_proved (prove ~hyps (Assertion.Prefix (c 3, c 0))));
  check_bool "conjoined hypotheses are flattened" true
    (is_proved
       (prove
          ~hyps:[ Assertion.conj hyps ]
          (Assertion.Prefix (c 3, c 0))));
  check_bool "broken chain not syntactically provable" false
    (is_proved
       (prove
          ~hyps:[ Assertion.Prefix (c 3, c 2) ]
          (Assertion.Prefix (c 3, c 0))))

let test_length_arithmetic () =
  let len c = Term.Len (Term.chan c) in
  let le a b = Assertion.Cmp (Assertion.Le, a, b) in
  (* direct: #wire <= #wire + 1 *)
  check_bool "direct slack" true
    (is_proved (prove (le (len "wire") (Term.Add (len "wire", Term.int 1)))));
  (* cons normalisation: #(x^wire) = #wire + 1 *)
  check_bool "cons on both sides" true
    (is_proved
       (prove
          (le
             (Term.Len (Term.Cons (Term.Var "x", Term.chan "wire")))
             (Term.Add (len "wire", Term.int 1)))));
  (* through a hypothesis, with shifted constants — the count_spec
     obligation of the copier proof *)
  let hyp = le (len "input") (Term.Add (len "wire", Term.int 1)) in
  let goal =
    le
      (Term.Len (Term.Cons (Term.Var "v", Term.chan "input")))
      (Term.Add (Term.Len (Term.Cons (Term.Var "v", Term.chan "wire")), Term.int 1))
  in
  check_bool "copier count obligation" true
    (is_proved (prove ~hyps:[ hyp ] goal));
  (* catenation and literals *)
  check_bool "catenation" true
    (is_proved
       (prove
          (le
             (Term.Len (Term.Cat (Term.chan "a", Term.Const (Value.Seq [ Value.Int 1 ]))))
             (Term.Add (len "a", Term.int 2)))));
  (* NOT provable: dropping an atom *)
  check_bool "missing atom unproved" false
    (is_proved (prove (le (Term.Add (len "a", len "b")) (Term.Add (len "a", Term.int 5)))));
  (* NOT provable: constants in the wrong order *)
  check_bool "wrong constants unproved" false
    (is_proved (prove (le (Term.Add (len "a", Term.int 2)) (Term.Add (len "a", Term.int 1)))))

let test_hypothesis_and_ex_falso () =
  let a = Assertion.Prefix (wire, input) in
  check_bool "hypothesis" true (is_proved (prove ~hyps:[ a ] a));
  check_bool "ex falso" true
    (is_proved (prove ~hyps:[ Assertion.False ] (Assertion.Prefix (input, wire))))

let test_conjunction_split () =
  let a = Assertion.Prefix (wire, wire) and b = Assertion.Eq (input, input) in
  check_bool "both conjuncts" true (is_proved (prove (Assertion.And (a, b))))

let test_ground_evaluation () =
  let s = Term.Const (Value.Seq [ Value.Int 1 ]) in
  let t = Term.Const (Value.Seq [ Value.Int 1; Value.Int 2 ]) in
  check_bool "ground true" true (is_proved (prove (Assertion.Prefix (s, t))));
  check_bool "ground false" true (is_refuted (prove (Assertion.Prefix (t, s))));
  check_bool "ground quantifier" true
    (is_proved
       (prove
          (Assertion.Forall
             ("x", Vset.Range (0, 3), Assertion.Cmp (Assertion.Le, Term.Var "x", Term.int 3)))))

let test_semantic_refutation () =
  (* wire <= input is falsifiable — the tester must find a history *)
  check_bool "refuted with witness" true
    (is_refuted (prove (Assertion.Prefix (wire, input))));
  match prove (Assertion.Prefix (wire, input)) with
  | Prover.Refuted { hist; _ } ->
    (* the witness really falsifies the goal *)
    check_bool "witness valid" false
      (Assertion.eval (Term.ctx ~hist ()) (Assertion.Prefix (wire, input)))
  | _ -> Alcotest.fail "expected refutation"

let test_semantic_survival () =
  (* true but not syntactically provable: survives as Unknown *)
  let concl =
    Assertion.Imp
      ( Assertion.Prefix (wire, input),
        Assertion.Cmp (Assertion.Le, Term.Len wire, Term.Len input) )
  in
  check_bool "length-monotone survives testing" true (is_unknown (prove concl))

let test_protocol_obligations () =
  (* the two obligations of Table 1 that rest on the definition of f *)
  let f t = Term.App ("f", t) in
  let ob1 =
    Assertion.Forall
      ( "x",
        Vset.Nat,
        Assertion.Forall
          ( "y",
            Vset.Enum [ Value.ack ],
            Assertion.Imp
              ( Assertion.Prefix (f wire, input),
                Assertion.Prefix
                  ( f (Term.Cons (Term.Var "x", Term.Cons (Term.Var "y", wire))),
                    Term.Cons (Term.Var "x", input) ) ) ) )
  in
  check_bool "ACK obligation survives" true (Prover.verdict_ok (prove ob1));
  (* flipping the conclusion's cons order must be refuted *)
  let ob_bad =
    Assertion.Forall
      ( "x",
        Vset.Nat,
        Assertion.Imp
          ( Assertion.Prefix (f wire, input),
            Assertion.Prefix
              ( f (Term.Cons (Term.Var "x", Term.Cons (Term.Const Value.ack, wire))),
                input ) ) )
  in
  check_bool "wrong obligation refuted" true (is_refuted (prove ob_bad))

(* The four consequence shapes of `cspc prove -v examples/protocol.csp`,
   each closed only by f's defining equations, and near-misses that
   must not be proved exactly. *)
let f t = Term.App ("f", t)
let output = Term.chan "output"
let ( ^: ) x s = Term.Cons (x, s)
let var x = Term.Var x
let ack_set = Vset.Enum [ Value.ack ]
let nack_set = Vset.Enum [ Value.nack ]

(* forall x:xs. forall v:vs. fn(wire) <= hyp_rhs => fn(x^v^wire) <= x^input *)
let sender_step ?(fn = "f") ?(x = Some Vset.Nat) vs hyp_rhs =
  let body =
    Assertion.Forall
      ( "v",
        vs,
        Assertion.Imp
          ( Assertion.Prefix (Term.App (fn, wire), hyp_rhs),
            Assertion.Prefix
              (Term.App (fn, var "x" ^: var "v" ^: wire), var "x" ^: input) ) )
  in
  match x with Some m -> Assertion.Forall ("x", m, body) | None -> body

let sender_ack = sender_step ack_set input
let q_nack = sender_step nack_set (var "x" ^: input)

let receiver_step signal concl_lhs =
  Assertion.Forall
    ( "v",
      Vset.Nat,
      Assertion.Imp
        ( Assertion.Prefix (output, f wire),
          Assertion.Prefix (concl_lhs, f (var "v" ^: Term.Const signal ^: wire)) ) )

let receiver_ack = receiver_step Value.ack (var "v" ^: output)
let receiver_nack = receiver_step Value.nack output
let def_f_shapes = [ sender_ack; q_nack; receiver_ack; receiver_nack ]

let def_f_near_misses =
  [
    (* the signal binder is not a singleton: {ACK, NACK} *)
    sender_step (Vset.Enum [ Value.ack; Value.nack ]) input;
    (* a signal in the data position *)
    sender_step ~x:(Some ack_set) ack_set input;
    (* the sender's ACK step at a NACK: false *)
    sender_step nack_set input;
    (* the data head has no binder *)
    sender_step ~x:None ack_set input;
  ]

(* A binder hides the hypotheses about the variable it rebinds. *)
let shadowing_goals =
  let x = var "x" in
  let a = Term.chan "a" and b = Term.chan "b" in
  let r03 = Vset.Range (0, 3) in
  [
    Assertion.Forall
      ( "x",
        Vset.Nat,
        Assertion.Imp
          ( Assertion.Eq (x, Term.int 0),
            Assertion.Forall ("x", Vset.Nat, Assertion.Eq (x, Term.int 0)) ) );
    Assertion.Forall
      ( "x",
        r03,
        Assertion.Imp
          ( Assertion.Prefix (a, x ^: b),
            Assertion.Forall ("x", r03, Assertion.Prefix (a, x ^: b)) ) );
  ]

let test_defining_equations () =
  List.iter
    (fun g ->
      check_bool (Assertion.to_string g ^ " proved") true (is_proved (prove g)))
    def_f_shapes;
  List.iter
    (fun g ->
      check_bool (Assertion.to_string g ^ " not proved") false
        (is_proved (prove g)))
    def_f_near_misses

let test_no_equations_no_unfolding () =
  (* g computes f but has no defining equations: the exact phase must
     leave g(x^v^wire) alone, so the true goal only survives testing *)
  let g = { Afun.protocol_cancel with Afun.name = "g"; equations = [] } in
  let config =
    { Prover.default_config with Prover.funs = Afun.register g Afun.default_env }
  in
  check_bool "opaque g is tested, not unfolded" true
    (is_unknown
       (Prover.prove ~config (Prover.goal (sender_step ~fn:"g" ack_set input))))

let test_shadowing () =
  List.iter
    (fun g ->
      check_bool (Assertion.to_string g ^ " not proved") false
        (is_proved (prove g));
      check_bool (Assertion.to_string g ^ " refuted") true (is_refuted (prove g)))
    shadowing_goals

let test_transitivity_consequence () =
  (* §2.2(3) step (4): f(wire) <= input & output <= f(wire) => output <= input *)
  let concl =
    Assertion.Imp
      ( Assertion.And
          (Assertion.Prefix (f wire, input), Assertion.Prefix (output, f wire)),
        Assertion.Prefix (output, input) )
  in
  check_bool "protocol consequence fully proved" true (is_proved (prove concl))

let test_custom_config () =
  (* a tiny alphabet cannot refute a claim about the value 9 *)
  let concl =
    Assertion.Not
      (Assertion.Mem (Term.Index (wire, Term.int 1), Vset.Enum [ Value.Int 9 ]))
  in
  let weak =
    { Prover.default_config with Prover.alphabet = [ Value.Int 0 ]; random_trials = 50 }
  in
  check_bool "weak alphabet misses the witness" true
    (is_unknown (Prover.prove ~config:weak (Prover.goal concl)));
  let strong =
    { Prover.default_config with Prover.alphabet = [ Value.Int 9 ] }
  in
  check_bool "matching alphabet refutes" true
    (is_refuted (Prover.prove ~config:strong (Prover.goal concl)))

let prop_no_false_proofs =
  (* soundness of the exact phase: whenever the prover says Proved,
     random semantic testing agrees *)
  qcheck_case ~count:200 "Proved goals are never falsified by testing"
    QCheck2.Gen.(
      oneofl
        ([
           Assertion.Prefix (wire, wire);
           Assertion.Prefix (Term.empty_seq, input);
           Assertion.Imp
             ( Assertion.Prefix (wire, input),
               Assertion.Prefix
                 (Term.Cons (Term.int 1, wire), Term.Cons (Term.int 1, input)) );
           Assertion.Forall
             ("x", Vset.Range (0, 2),
              Assertion.Mem (Term.Var "x", Vset.Range (0, 2)));
         ]
        @ def_f_shapes @ def_f_near_misses @ shadowing_goals))
    (fun goal ->
      match prove goal with
      | Prover.Proved _ ->
        (* re-verify on random histories, drawn so that the goals'
           hypotheses (wire <= input, f(wire) <= input,
           output <= f(wire)) often hold *)
        let st = Random.State.make [| 7 |] in
        let values = [| Value.Int 0; Value.Int 1; Value.Int 2; Value.ack; Value.nack |] in
        let rand_value () = values.(Random.State.int st (Array.length values)) in
        let rand_seq () = List.init (Random.State.int st 6) (fun _ -> rand_value ()) in
        let set c vs h = History.set h (Channel.simple c) vs in
        List.for_all
          (fun _ ->
            let w = rand_seq () in
            let fw = Afun.protocol_cancel.Afun.apply w in
            let extend s = if Random.State.bool st then s @ rand_seq () else rand_seq () in
            let hist =
              History.empty |> set "wire" w
              |> set "input" (extend (if Random.State.bool st then w else fw))
              |> set "output"
                   (List.filteri (fun i _ -> i < Random.State.int st 4) fw)
              |> set "a" (rand_seq ()) |> set "b" (rand_seq ())
            in
            let rho =
              List.fold_left
                (fun r x -> Valuation.add x (rand_value ()) r)
                Valuation.empty (Assertion.free_vars goal)
            in
            Assertion.eval (Term.ctx ~rho ~hist ()) goal)
          (List.init 50 Fun.id)
      | _ -> true)

let () =
  Alcotest.run "prover"
    [
      ( "syntactic",
        [
          Alcotest.test_case "reflexivity" `Quick test_reflexivity;
          Alcotest.test_case "empty least" `Quick test_empty_least;
          Alcotest.test_case "cons monotonicity" `Quick test_cons_monotone;
          Alcotest.test_case "transitivity chains" `Quick test_transitivity_chain;
          Alcotest.test_case "length arithmetic" `Quick test_length_arithmetic;
          Alcotest.test_case "hypothesis / ex falso" `Quick
            test_hypothesis_and_ex_falso;
          Alcotest.test_case "conjunction" `Quick test_conjunction_split;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "ground evaluation" `Quick test_ground_evaluation;
          Alcotest.test_case "refutation with witness" `Quick
            test_semantic_refutation;
          Alcotest.test_case "survival as Unknown" `Quick test_semantic_survival;
          Alcotest.test_case "configurable alphabet" `Quick test_custom_config;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "Table-1 obligations" `Quick
            test_protocol_obligations;
          Alcotest.test_case "transitive consequence" `Quick
            test_transitivity_consequence;
          Alcotest.test_case "def f by defining equations" `Quick
            test_defining_equations;
          Alcotest.test_case "no equations, no unfolding" `Quick
            test_no_equations_no_unfolding;
        ] );
      ("binders", [ Alcotest.test_case "shadowing drops hypotheses" `Quick test_shadowing ]);
      ("soundness", [ prop_no_false_proofs ]);
    ]
