(* The assertion language: term evaluation, the paper's sequence
   function f, assertion evaluation, and the three substitutions the
   proof rules depend on. *)

open Csp
open Test_support

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx_with pairs = Term.ctx ~hist:(history_of_pairs pairs) ()
let i n = Value.Int n

(* ---- Term evaluation ------------------------------------------------ *)

let test_chan_history () =
  let c = ctx_with [ ("wire", [ 1; 2; 3 ]) ] in
  check value_testable "history lookup"
    (Value.Seq [ i 1; i 2; i 3 ])
    (Term.eval c (Term.chan "wire"));
  check value_testable "unknown channel is empty" (Value.Seq [])
    (Term.eval c (Term.chan "nope"))

let test_seq_operators () =
  let c = ctx_with [ ("s", [ 10; 20; 30 ]) ] in
  check_int "#s" 3 (Term.eval_int c (Term.Len (Term.chan "s")));
  check value_testable "s_2" (i 20)
    (Term.eval c (Term.Index (Term.chan "s", Term.int 2)));
  check value_testable "cons"
    (Value.Seq [ i 5; i 10; i 20; i 30 ])
    (Term.eval c (Term.Cons (Term.int 5, Term.chan "s")));
  check value_testable "cat"
    (Value.Seq [ i 10; i 20; i 30; i 10; i 20; i 30 ])
    (Term.eval c (Term.Cat (Term.chan "s", Term.chan "s")))

let test_arith_and_sum () =
  let c = Term.ctx ~rho:(Valuation.of_list [ ("n", i 4) ]) () in
  check_int "arith" 11
    (Term.eval_int c (Term.Add (Term.Mul (Term.int 2, Term.Var "n"), Term.int 3)));
  check_int "sum 1..n of j*j" 30
    (Term.eval_int c
       (Term.Sum ("j", Term.int 1, Term.Var "n", Term.Mul (Term.Var "j", Term.Var "j"))));
  check_int "empty sum" 0
    (Term.eval_int c (Term.Sum ("j", Term.int 3, Term.int 2, Term.Var "j")));
  (* the bound variable shadows the environment *)
  let c = Term.ctx ~rho:(Valuation.of_list [ ("j", i 100) ]) () in
  check_int "sum binds" 6
    (Term.eval_int c (Term.Sum ("j", Term.int 1, Term.int 3, Term.Var "j")))

let expect_error c t =
  match Term.eval c t with
  | exception Term.Eval_error _ -> ()
  | v -> Alcotest.failf "expected error, got %a" Value.pp v

let test_term_errors () =
  let c = ctx_with [ ("s", [ 1 ]) ] in
  expect_error c (Term.Var "unbound");
  expect_error c (Term.Index (Term.chan "s", Term.int 2));
  expect_error c (Term.Index (Term.chan "s", Term.int 0));
  expect_error c (Term.Len (Term.int 3));
  expect_error c (Term.Add (Term.chan "s", Term.int 1));
  expect_error c (Term.App ("no_such_fun", Term.chan "s"));
  expect_error c (Term.Div (Term.int 1, Term.int 0))

(* ---- The protocol function f (§2.2) --------------------------------- *)

let f = Afun.protocol_cancel.Afun.apply

let test_f_equations () =
  (* f(<>) = <> *)
  check value_testable "f(<>)" (Value.Seq []) (Value.Seq (f []));
  (* f(<x>) = <> *)
  check value_testable "f(<x>)" (Value.Seq []) (Value.Seq (f [ i 7 ]));
  (* f(x^ACK^s) = x^f(s) *)
  check value_testable "f(x^ACK^s)"
    (Value.Seq [ i 7; i 9 ])
    (Value.Seq (f [ i 7; Value.ack; i 9; Value.ack ]));
  (* f(x^NACK^s) = f(s) *)
  check value_testable "f(x^NACK^s)"
    (Value.Seq [ i 9 ])
    (Value.Seq (f [ i 7; Value.nack; i 9; Value.ack ]));
  (* the paper's worked example: f(<x, NACK, y, ACK>) = <y> *)
  check value_testable "paper example"
    (Value.Seq [ i 2 ])
    (Value.Seq (f [ i 1; Value.nack; i 2; Value.ack ]))

let prop_f_output_is_data =
  qcheck_case "f never outputs ACK or NACK" seq_gen (fun s ->
      List.for_all
        (fun v -> not (Value.equal v Value.ack || Value.equal v Value.nack))
        (f s))

let prop_f_length =
  qcheck_case "f shortens its argument" seq_gen (fun s ->
      List.length (f s) <= List.length s / 2)

let test_other_afuns () =
  check value_testable "odds" (Value.Seq [ i 1; i 3 ])
    (Value.Seq (Afun.odds.Afun.apply [ i 1; i 2; i 3 ]));
  check value_testable "evens" (Value.Seq [ i 2 ])
    (Value.Seq (Afun.evens.Afun.apply [ i 1; i 2; i 3 ]));
  check value_testable "identity" (Value.Seq [ i 1 ])
    (Value.Seq (Afun.identity.Afun.apply [ i 1 ]));
  (* registry *)
  check_bool "default env has f" true (Afun.find Afun.default_env "f" <> None);
  check_bool "custom registration" true
    (Afun.find
       (Afun.register { Afun.name = "g"; doc = ""; apply = List.rev; equations = [] } Afun.default_env)
       "g"
    <> None)

(* ---- Defining equations --------------------------------------------- *)

let clauses =
  List.concat_map
    (fun fn -> List.map (fun c -> (fn, c)) fn.Afun.equations)
    (Afun.to_list Afun.default_env)

let any_value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range 0 5);
        oneofl [ Value.ack; Value.nack; Value.sym "OTHER" ];
      ])

(* h1^…^hk^s with each hi drawn from its guard's set *)
let clause_instance_gen =
  QCheck2.Gen.(
    oneofl clauses >>= fun (fn, c) ->
    let head = function
      | Afun.Any -> any_value_gen
      | Afun.In m -> oneofl (Vset.enumerate_bounded ~bound:6 m)
    in
    pair
      (flatten_l (List.map head c.Afun.guards))
      (list_size (int_range 0 6) any_value_gen)
    >|= fun (heads, tail) -> (fn, c, heads, tail))

let prop_clauses_agree =
  qcheck_case ~count:1000 "every clause agrees with apply" clause_instance_gen
    (fun (fn, c, heads, tail) ->
      let pick = List.map (List.nth heads) in
      Value.equal
        (Value.Seq (fn.Afun.apply (heads @ tail)))
        (Value.Seq (pick c.Afun.emit @ fn.Afun.apply (pick c.Afun.pass @ tail))))

let test_clauses_shorten () =
  check_bool "every built-in function has clauses" true
    (List.for_all
       (fun fn -> fn.Afun.equations <> [])
       (Afun.to_list Afun.default_env));
  List.iter
    (fun (fn, c) ->
      check_bool
        (fn.Afun.name ^ ": fewer heads passed back than matched")
        true
        (List.length c.Afun.pass < List.length c.Afun.guards))
    clauses

(* ---- Assertion evaluation ------------------------------------------- *)

let wire_le_input = Assertion.Prefix (Term.chan "wire", Term.chan "input")

let test_eval_prefix () =
  check_bool "holds" true
    (Assertion.eval (ctx_with [ ("wire", [ 1 ]); ("input", [ 1; 2 ]) ]) wire_le_input);
  check_bool "fails" false
    (Assertion.eval (ctx_with [ ("wire", [ 2 ]); ("input", [ 1; 2 ]) ]) wire_le_input);
  check_bool "empty histories" true
    (Assertion.eval (ctx_with []) wire_le_input)

let test_eval_connectives () =
  let c = ctx_with [] in
  let t = Assertion.True and f' = Assertion.False in
  check_bool "and" false (Assertion.eval c (Assertion.And (t, f')));
  check_bool "or" true (Assertion.eval c (Assertion.Or (t, f')));
  check_bool "imp false antecedent" true (Assertion.eval c (Assertion.Imp (f', f')));
  check_bool "imp true-false" false (Assertion.eval c (Assertion.Imp (t, f')));
  check_bool "not" true (Assertion.eval c (Assertion.Not f'));
  check_bool "mem" true
    (Assertion.eval c (Assertion.Mem (Term.int 2, Vset.Range (0, 3))));
  check_bool "cmp" true
    (Assertion.eval c (Assertion.Cmp (Assertion.Lt, Term.int 1, Term.int 2)));
  check_bool "eq seqs" true
    (Assertion.eval c
       (Assertion.Eq (Term.Const (Value.Seq [ i 1 ]), Term.Const (Value.Seq [ i 1 ]))))

let test_eval_quantifiers () =
  let c = ctx_with [] in
  check_bool "forall finite" true
    (Assertion.eval c
       (Assertion.Forall
          ("x", Vset.Range (0, 5), Assertion.Cmp (Assertion.Le, Term.Var "x", Term.int 5))));
  check_bool "exists finite" true
    (Assertion.eval c
       (Assertion.Exists
          ("x", Vset.Range (0, 5), Assertion.Cmp (Assertion.Gt, Term.Var "x", Term.int 4))));
  check_bool "forall over NAT uses nat_bound" true
    (Assertion.eval
       (Term.ctx ~nat_bound:4 ())
       (Assertion.Forall
          ("x", Vset.Nat, Assertion.Cmp (Assertion.Lt, Term.Var "x", Term.int 4))))

let test_multiplier_assertion_shape () =
  (* the paper's §2 multiplier assertion evaluated on a concrete history *)
  let m = Paper.Multiplier.default in
  let hist =
    History.empty
    |> (fun h -> History.set h (Channel.indexed "row" 1) [ i 1; i 0 ])
    |> (fun h -> History.set h (Channel.indexed "row" 2) [ i 1; i 1 ])
    |> (fun h -> History.set h (Channel.indexed "row" 3) [ i 1; i 0 ])
    |> fun h -> History.set h (Channel.simple "output") [ i 6; i 2 ]
  in
  (* v = [1;2;3]: 1*1+2*1+3*1 = 6 ; 1*0+2*1+3*0 = 2 *)
  check_bool "holds on correct products" true
    (Assertion.eval (Term.ctx ~hist ()) m.Paper.Multiplier.spec);
  let bad = History.set hist (Channel.simple "output") [ i 6; i 3 ] in
  check_bool "detects a wrong product" false
    (Assertion.eval (Term.ctx ~hist:bad ()) m.Paper.Multiplier.spec)

(* ---- Substitutions --------------------------------------------------- *)

let test_subst_empty () =
  (* R_<> replaces every channel by <> *)
  let r = Assertion.subst_empty wire_le_input in
  check assertion_testable "both channels emptied"
    (Assertion.Prefix (Term.empty_seq, Term.empty_seq))
    r;
  check_bool "evaluates without any history" true
    (Assertion.eval (ctx_with []) r)

let test_cons_channel () =
  (* R^wire_{e^wire} *)
  match Assertion.cons_channel (Chan_expr.simple "wire") (Term.Var "v") wire_le_input with
  | Ok r ->
    check assertion_testable "only wire rewritten"
      (Assertion.Prefix
         (Term.Cons (Term.Var "v", Term.chan "wire"), Term.chan "input"))
      r
  | Error m -> Alcotest.fail m

let test_cons_channel_indexed () =
  let spec =
    Assertion.Prefix
      (Term.Chan (Chan_expr.indexed "c" (Expr.int 1)),
       Term.Chan (Chan_expr.indexed "c" (Expr.int 0)))
  in
  match Assertion.cons_channel (Chan_expr.indexed "c" (Expr.int 0)) (Term.int 9) spec with
  | Ok (Assertion.Prefix (Term.Chan _, Term.Cons _)) -> ()
  | Ok r -> Alcotest.failf "wrong result %a" Assertion.pp r
  | Error m -> Alcotest.fail m

let test_cons_channel_ambiguous () =
  (* same base name, unevaluable subscript: must refuse *)
  let spec =
    Assertion.Prefix
      (Term.Chan (Chan_expr.indexed "c" (Expr.Var "i")), Term.chan "d")
  in
  match Assertion.cons_channel (Chan_expr.indexed "c" (Expr.int 0)) (Term.int 9) spec with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "ambiguity accepted: %a" Assertion.pp r

let test_subst_var () =
  let r =
    Assertion.Forall
      ("x", Vset.Nat, Assertion.Cmp (Assertion.Le, Term.Var "x", Term.Var "y"))
  in
  let r' = Assertion.subst_var "y" (Term.int 5) r in
  check_bool "y replaced" true
    (not (List.mem "y" (Assertion.free_vars r')));
  (* bound x untouched *)
  let r'' = Assertion.subst_var "x" (Term.int 5) r in
  check assertion_testable "binder protects x" r r''

let test_free_vars_chans () =
  let a =
    Assertion.And
      ( Assertion.Prefix (Term.App ("f", Term.chan "wire"), Term.chan "input"),
        Assertion.Forall
          ("x", Vset.Nat, Assertion.Eq (Term.Var "x", Term.Var "z")) )
  in
  check Alcotest.(list string) "free vars" [ "z" ] (Assertion.free_vars a);
  check_int "free channels" 2 (List.length (Assertion.free_chans a));
  check_bool "mentions wire" true
    (Assertion.mentions_channel a (Channel.simple "wire"));
  check_bool "no col" false (Assertion.mentions_channel a (Channel.simple "col"))

let test_mentions_conservative () =
  let a =
    Assertion.Prefix
      (Term.Chan (Chan_expr.indexed "col" (Expr.Var "i")), Term.chan "out")
  in
  check_bool "open subscript matches any index" true
    (Assertion.mentions_channel a (Channel.indexed "col" 3))

(* ---- Sat ------------------------------------------------------------- *)

let test_sat_check () =
  let defs = defs_copier in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  (match Sat.check ~depth:5 cfg (Process.ref_ "copier") wire_le_input with
  | Sat.Holds { traces; _ } -> check_bool "some traces" true (traces > 10)
  | Sat.Fails { trace } -> Alcotest.failf "fails on %a" Trace.pp trace);
  (* a false assertion is refuted with a witness *)
  let wrong = Assertion.Prefix (Term.chan "input", Term.chan "wire") in
  match Sat.check ~depth:5 cfg (Process.ref_ "copier") wrong with
  | Sat.Fails { trace } -> check_int "shortest witness" 1 (List.length trace)
  | Sat.Holds _ -> Alcotest.fail "expected failure"

let prop_sat_iff_all_traces =
  qcheck_case ~count:60 "Sat.check agrees with direct evaluation" process_gen
    (fun p ->
      let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Defs.empty in
      let spec =
        Assertion.Cmp
          (Assertion.Le, Term.Len (Term.chan "a"), Term.int 2)
      in
      let direct =
        List.for_all
          (fun s ->
            Assertion.eval (Term.ctx ~hist:(History.of_trace s) ()) spec)
          (Closure.to_traces (Step.traces cfg ~depth:4 p))
      in
      match Sat.check ~depth:4 cfg p spec with
      | Sat.Holds _ -> direct
      | Sat.Fails _ -> not direct)

let () =
  Alcotest.run "assertion"
    [
      ( "terms",
        [
          Alcotest.test_case "channel histories" `Quick test_chan_history;
          Alcotest.test_case "sequence operators" `Quick test_seq_operators;
          Alcotest.test_case "arithmetic and sum" `Quick test_arith_and_sum;
          Alcotest.test_case "errors" `Quick test_term_errors;
        ] );
      ( "protocol-f",
        [
          Alcotest.test_case "defining equations" `Quick test_f_equations;
          prop_f_output_is_data;
          prop_f_length;
          Alcotest.test_case "other functions" `Quick test_other_afuns;
          prop_clauses_agree;
          Alcotest.test_case "clauses shorten the argument" `Quick
            test_clauses_shorten;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "prefix order" `Quick test_eval_prefix;
          Alcotest.test_case "connectives" `Quick test_eval_connectives;
          Alcotest.test_case "quantifiers" `Quick test_eval_quantifiers;
          Alcotest.test_case "multiplier spec" `Quick
            test_multiplier_assertion_shape;
        ] );
      ( "substitutions",
        [
          Alcotest.test_case "R_<>" `Quick test_subst_empty;
          Alcotest.test_case "R^c (simple)" `Quick test_cons_channel;
          Alcotest.test_case "R^c (indexed)" `Quick test_cons_channel_indexed;
          Alcotest.test_case "R^c (ambiguous rejected)" `Quick
            test_cons_channel_ambiguous;
          Alcotest.test_case "variable substitution" `Quick test_subst_var;
          Alcotest.test_case "free vars and channels" `Quick
            test_free_vars_chans;
          Alcotest.test_case "conservative mention" `Quick
            test_mentions_conservative;
        ] );
      ( "sat",
        [
          Alcotest.test_case "bounded check" `Quick test_sat_check;
          prop_sat_iff_all_traces;
        ] );
    ]
