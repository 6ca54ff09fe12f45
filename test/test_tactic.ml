(* The automatic tactic: structure-directed proofs, invariant tables,
   recursion (single, array, mutual), parallel decomposition, failures. *)

open Csp
open Test_support

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wire_le_input = Assertion.Prefix (Term.chan "wire", Term.chan "input")

let proved ?tables ctx j =
  match Tactic.prove_and_check ?tables ctx j with
  | Ok _ -> true
  | Error _ -> false

let test_stop_and_prefixes () =
  let ctx = Sequent.context Defs.empty in
  check_bool "STOP" true (proved ctx (Sequent.Holds (Process.Stop, wire_le_input)));
  let p =
    Process.send "wire" (Expr.int 1)
      (Process.send "wire" (Expr.int 2) Process.Stop)
  in
  let spec =
    Assertion.Prefix
      (Term.chan "wire", Term.Const (Value.Seq [ Value.Int 1; Value.Int 2 ]))
  in
  check_bool "two outputs against a literal" true
    (proved ctx (Sequent.Holds (p, spec)))

let test_copier () =
  let ctx = Sequent.context defs_copier in
  let tables = Tactic.tables ~invariants:[ ("copier", wire_le_input) ] () in
  check_bool "recursion with registered invariant" true
    (proved ~tables ctx (Sequent.Holds (Process.ref_ "copier", wire_le_input)));
  (* a weaker goal goes through consequence *)
  let weaker =
    Assertion.Cmp (Assertion.Ge, Term.Len (Term.chan "input"), Term.Len (Term.chan "wire"))
  in
  match Tactic.prove_and_check ~tables ctx (Sequent.Holds (Process.ref_ "copier", weaker)) with
  | Ok (Proof.Consequence _, _) -> ()
  | Ok (p, _) -> Alcotest.failf "expected a consequence root, got %s" (Proof.rule_name p)
  | Error m -> Alcotest.fail m

let test_goal_directed_retry () =
  (* #input <= #wire + 1 does not follow pointwise from wire <= input,
     but is inductive on its own; prove_and_check must retry with the
     goal as the invariant (the paper's §2 length example) *)
  let ctx = Sequent.context Paper.Copier.defs in
  match
    Tactic.prove_and_check ~tables:Paper.Copier.tables ctx
      (Sequent.Holds (Paper.Copier.copier, Paper.Copier.count_spec))
  with
  | Ok (Proof.Fix _, _) -> ()
  | Ok (p, _) -> Alcotest.failf "expected recursion, got %s" (Proof.rule_name p)
  | Error m -> Alcotest.fail m

let test_without_invariant_fails_gracefully () =
  let ctx = Sequent.context defs_copier in
  match Tactic.auto ctx (Sequent.Holds (Process.ref_ "copier", wire_le_input)) with
  | Error _ -> () (* unbounded unfolding is refused *)
  | Ok _ -> Alcotest.fail "expected failure without an invariant"

let test_unfold_fallback_terminating () =
  (* non-recursive alias: unfolding succeeds without any table *)
  let defs =
    Defs.empty
    |> Defs.define "once" (Process.send "a" (Expr.int 1) Process.Stop)
    |> Defs.define "alias" (Process.ref_ "once")
  in
  let ctx = Sequent.context defs in
  let spec =
    Assertion.Prefix (Term.chan "a", Term.Const (Value.Seq [ Value.Int 1 ]))
  in
  check_bool "alias unfolds" true
    (proved ctx (Sequent.Holds (Process.ref_ "alias", spec)))

let test_mutual_recursion () =
  (* ping = a!0 -> pong, pong = b!0 -> ping: prove #b <= #a for ping *)
  let defs =
    Defs.empty
    |> Defs.define "ping" (Process.send "a" (Expr.int 0) (Process.ref_ "pong"))
    |> Defs.define "pong" (Process.send "b" (Expr.int 0) (Process.ref_ "ping"))
  in
  let ctx = Sequent.context defs in
  let inv_ping =
    Assertion.Cmp (Assertion.Le, Term.Len (Term.chan "b"), Term.Len (Term.chan "a"))
  in
  let inv_pong =
    Assertion.Cmp
      ( Assertion.Le,
        Term.Len (Term.chan "b"),
        Term.Add (Term.Len (Term.chan "a"), Term.int 1) )
  in
  (* joint Fix over both names; the conjunction of invariants closes *)
  let tables =
    Tactic.tables ~invariants:[ ("ping", inv_ping); ("pong", inv_pong) ] ()
  in
  match Tactic.prove_and_check ~tables ctx (Sequent.Holds (Process.ref_ "ping", inv_ping)) with
  | Ok (Proof.Fix (specs, 0), report) ->
    check_int "two specifications" 2 (List.length specs);
    check_bool "fully proved" true (Check.fully_proved report)
  | Ok (p, _) -> Alcotest.failf "expected recursion at the root, got %s" (Proof.rule_name p)
  | Error m -> Alcotest.fail m

let test_array_invariant () =
  let defs =
    Defs.empty
    |> Defs.define_array "emit" "x" (Vset.Range (0, 2))
         (Process.Output (Chan_expr.simple "a", Expr.Var "x", Process.Stop))
  in
  let spec = Assertion.Prefix (Term.chan "a", Term.Cons (Term.Var "x", Term.empty_seq)) in
  let tables =
    Tactic.tables ~array_invariants:[ ("emit", ("x", Vset.Range (0, 2), spec)) ] ()
  in
  let ctx = Sequent.context defs in
  check_bool "array judgment" true
    (proved ~tables ctx (Sequent.Holds_all ("emit", "x", Vset.Range (0, 2), spec)));
  (* instance via forall-elim *)
  let inst = Assertion.subst_var "x" (Term.int 1) spec in
  check_bool "instance" true
    (proved ~tables ctx (Sequent.Holds (Process.call "emit" (Expr.int 1), inst)))

let test_parallel_decomposition () =
  let ctx = Sequent.context Paper.Copier.defs in
  (* explicit conjunction goal: direct parallelism *)
  let both = Assertion.And (Paper.Copier.copier_spec, Paper.Copier.recopier_spec) in
  (match
     Tactic.prove_and_check ~tables:Paper.Copier.tables ctx
       (Sequent.Holds (Paper.Copier.network, both))
   with
  | Ok (Proof.Parallelism _, _) -> ()
  | Ok (p, _) -> Alcotest.failf "expected parallelism, got %s" (Proof.rule_name p)
  | Error m -> Alcotest.fail m);
  (* transitive goal: inferred invariants + consequence *)
  check_bool "output <= input via inference" true
    (proved ~tables:Paper.Copier.tables ctx
       (Sequent.Holds (Paper.Copier.network, Paper.Copier.network_spec)));
  (* hidden wire: the chan rule applies on top *)
  check_bool "through hiding" true
    (proved ~tables:Paper.Copier.tables ctx
       (Sequent.Holds (Paper.Copier.pipe, Paper.Copier.network_spec)))

let test_hiding_scope_refused () =
  let ctx = Sequent.context Paper.Copier.defs in
  (* the goal mentions the concealed wire: not provable by the chan rule *)
  match
    Tactic.auto ~tables:Paper.Copier.tables ctx
      (Sequent.Holds (Paper.Copier.pipe, Paper.Copier.copier_spec))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected scope failure"

let test_fresh_variables_distinct () =
  (* nested inputs need distinct fresh variables *)
  let p =
    Process.recv "a" "x" (Vset.Range (0, 1))
      (Process.recv "a" "y" (Vset.Range (0, 1)) Process.Stop)
  in
  let ctx = Sequent.context Defs.empty in
  match
    Tactic.prove_and_check ctx
      (Sequent.Holds (p, Assertion.Cmp (Assertion.Le, Term.Len (Term.chan "a"), Term.int 2)))
  with
  | Ok (Proof.Input_rule (v1, Proof.Input_rule (v2, _)), _) ->
    check_bool "distinct" true (not (String.equal v1 v2))
  | Ok _ -> Alcotest.fail "expected nested input rules"
  | Error m -> Alcotest.fail m

let test_proof_sizes_reported () =
  let ctx = Sequent.context Paper.Protocol.defs in
  match
    Tactic.prove_and_check ~tables:Paper.Protocol.tables ctx
      (Sequent.Holds (Paper.Protocol.sender, Paper.Protocol.sender_spec))
  with
  | Ok (proof, report) ->
    check_int "Table 1 has 11 rule applications" 11 (Proof.size proof);
    check_int "Table 1 lists 11 steps" 11 (List.length report.Check.steps)
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "tactic"
    [
      ( "structural",
        [
          Alcotest.test_case "stop and prefixes" `Quick test_stop_and_prefixes;
          Alcotest.test_case "fresh variables distinct" `Quick
            test_fresh_variables_distinct;
          Alcotest.test_case "unfold fallback" `Quick
            test_unfold_fallback_terminating;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "copier" `Quick test_copier;
          Alcotest.test_case "goal-directed retry" `Quick test_goal_directed_retry;
          Alcotest.test_case "missing invariant fails" `Quick
            test_without_invariant_fails_gracefully;
          Alcotest.test_case "mutual" `Quick test_mutual_recursion;
          Alcotest.test_case "process array" `Quick test_array_invariant;
        ] );
      ( "composition",
        [
          Alcotest.test_case "parallel decomposition" `Quick
            test_parallel_decomposition;
          Alcotest.test_case "hiding scope refused" `Quick
            test_hiding_scope_refused;
          Alcotest.test_case "Table-1 size" `Quick test_proof_sizes_reported;
        ] );
    ]
