(* The paper's systems end to end (experiments E1, E2, E3, E7): every
   claim of §1.3 and §2.2 checked by bounded model checking AND proved
   with the inference rules. *)

open Csp
open Test_support

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let assert_holds ?(depth = 5) ?(nat = 2) ?nat_bound defs p spec =
  let cfg = Step.config ~sampler:(Sampler.nat_bound nat) defs in
  match Sat.check ?nat_bound ~depth cfg p spec with
  | Sat.Holds _ -> ()
  | Sat.Fails { trace } -> Alcotest.failf "refuted on %a" Trace.pp trace

let assert_proved ?tables defs j =
  match Tactic.prove_and_check ?tables (Sequent.context defs) j with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* Every obligation proved exactly: none rests on bounded testing. *)
let assert_fully_proved ?tables defs j =
  match Tactic.prove_and_check ?tables (Sequent.context defs) j with
  | Ok (_, report) -> check_bool "fully proved" true (Check.fully_proved report)
  | Error m -> Alcotest.fail m

(* ---- E1: the copier pipeline ----------------------------------------- *)

module C = Paper.Copier

let test_copier_sat () =
  assert_holds C.defs C.copier C.copier_spec;
  assert_holds C.defs C.recopier C.recopier_spec;
  assert_holds C.defs C.network C.network_spec;
  assert_holds C.defs C.pipe C.network_spec;
  (* the paper's length bound: copier sat #input <= #wire + 1 *)
  assert_holds C.defs C.copier C.count_spec

let test_copier_proofs () =
  assert_proved ~tables:C.tables C.defs (Sequent.Holds (C.copier, C.copier_spec));
  assert_proved ~tables:C.tables C.defs (Sequent.Holds (C.recopier, C.recopier_spec));
  assert_proved ~tables:C.tables C.defs (Sequent.Holds (C.network, C.network_spec));
  assert_proved ~tables:C.tables C.defs (Sequent.Holds (C.pipe, C.network_spec))

let test_copier_proof_fully_syntactic () =
  (* the §2.1 example proof needs no testing-based evidence at all *)
  assert_fully_proved ~tables:C.tables C.defs
    (Sequent.Holds (C.copier, C.copier_spec))

let test_copier_guardedness () =
  check_bool "definitions well guarded" true (Result.is_ok (Defs.well_guarded C.defs))

let test_copier_wrong_spec_refuted () =
  let wrong = Assertion.Prefix (Term.chan "input", Term.chan "wire") in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) C.defs in
  match Sat.check ~depth:4 cfg C.copier wrong with
  | Sat.Fails _ -> ()
  | Sat.Holds _ -> Alcotest.fail "expected refutation"

(* ---- E2: the protocol and Table 1 ------------------------------------- *)

module P = Paper.Protocol

let test_protocol_sat () =
  assert_holds P.defs P.sender P.sender_spec;
  assert_holds P.defs P.receiver P.receiver_spec;
  assert_holds ~depth:6 P.defs P.network
    (Assertion.And (P.sender_spec, P.receiver_spec));
  assert_holds ~depth:6 P.defs P.protocol P.protocol_spec

let test_table_1 () =
  (* the headline proof, with its exact size *)
  match
    Tactic.prove_and_check ~tables:P.tables (Sequent.context P.defs)
      (Sequent.Holds (P.sender, P.sender_spec))
  with
  | Ok (proof, report) ->
    check_int "11 rule applications" 11 (Proof.size proof);
    (* every obligation proved, the two "def f" steps by f's defining
       equations *)
    check_bool "fully proved" true (Check.fully_proved report);
    (* the recursion rule carries both sender and q specifications *)
    (match proof with
    | Proof.Fix (specs, _) -> check_int "joint recursion" 2 (List.length specs)
    | _ -> Alcotest.fail "expected recursion at the root")
  | Error m -> Alcotest.fail m

let test_protocol_proofs () =
  let x, m, s = P.q_spec in
  assert_fully_proved ~tables:P.tables P.defs (Sequent.Holds_all ("q", x, m, s));
  assert_fully_proved ~tables:P.tables P.defs
    (Sequent.Holds (P.receiver, P.receiver_spec));
  assert_fully_proved ~tables:P.tables P.defs
    (Sequent.Holds (P.protocol, P.protocol_spec))

let test_protocol_needs_f () =
  (* without cancelling, the raw wire is NOT a prefix of the input *)
  let wrong = Assertion.Prefix (Term.chan "wire", Term.chan "input") in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) P.defs in
  match Sat.check ~depth:4 cfg P.network wrong with
  | Sat.Fails _ -> ()
  | Sat.Holds _ -> Alcotest.fail "the ACK on the wire must refute this"

let test_protocol_retransmission_traces () =
  (* a NACK forces a retransmission of the same message *)
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) P.defs in
  check_bool "retransmission trace accepted" true
    (Step.accepts_trace cfg P.network
       [
         ev "input" 1;
         ev "wire" 1;
         Event.v "wire" Value.nack;
         ev "wire" 1;
         Event.v "wire" Value.ack;
         ev "output" 1;
       ]);
  check_bool "different retransmission rejected" false
    (Step.accepts_trace cfg P.network
       [ ev "input" 1; ev "wire" 1; Event.v "wire" Value.nack; ev "wire" 0 ])

(* ---- E3: the multiplier ------------------------------------------------ *)

module M = Paper.Multiplier

let test_multiplier_sat () =
  let m = M.default in
  assert_holds ~depth:7 ~nat:2 ~nat_bound:8 m.M.defs m.M.network m.M.spec

let test_multiplier_simulation () =
  let m = M.make ~v:[ 3; 1; 4 ] in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 3) m.M.defs in
  let r =
    Csp_sim.Runner.run
      ~scheduler:(Scheduler.uniform ~seed:2)
      ~monitors:[ Csp_sim.Runner.monitor "products" m.M.spec ]
      ~max_steps:300 cfg m.M.multiplier
  in
  check_int "no violations" 0 (List.length r.Csp_sim.Runner.violations);
  check_bool "made progress" true
    (Stats.count r.Csp_sim.Runner.stats (Channel.simple "output") > 5)

let test_multiplier_sizes () =
  (* generalises beyond the paper's 3 stages *)
  List.iter
    (fun v ->
      let m = M.make ~v in
      let cfg = Step.config ~sampler:(Sampler.nat_bound 2) m.M.defs in
      let r =
        Csp_sim.Runner.run
          ~scheduler:(Scheduler.uniform ~seed:6)
          ~monitors:[ Csp_sim.Runner.monitor "products" m.M.spec ]
          ~max_steps:150 cfg m.M.multiplier
      in
      check_int "no violations" 0 (List.length r.Csp_sim.Runner.violations))
    [ [ 5 ]; [ 1; 2 ]; [ 2; 0; 1; 3 ] ]

let test_multiplier_wrong_vector_detected () =
  (* monitoring with the wrong vector's specification must fire *)
  let m = M.make ~v:[ 1; 2; 3 ] in
  let wrong = M.make ~v:[ 1; 2; 4 ] in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) m.M.defs in
  let r =
    Csp_sim.Runner.run
      ~scheduler:(Scheduler.uniform ~seed:8)
      ~monitors:[ Csp_sim.Runner.monitor "wrong" wrong.M.spec ]
      ~max_steps:300 cfg m.M.multiplier
  in
  check_bool "difference detected" true (r.Csp_sim.Runner.violations <> [])

let test_mult_stage_proof () =
  (* Per-instance proof.  The generic array invariant has open channel
     subscripts (col[i-1] vs col[i]), which the conservative
     substitution of the checker rightly refuses to rewrite; the paper's
     own proofs are also per concrete network.  So we specialise
     mult[2]'s defining equation to a plain definition with closed
     subscripts and prove the per-stage bound #col[2] <= #row[2]. *)
  let m = M.default in
  let mult2_body =
    Process.subst_value "i" (Value.Int 2)
      (Option.get (Defs.lookup m.M.defs "mult")).Defs.body
  in
  (* the recursive call becomes mult[2]; redirect it to the new name *)
  let rec redirect = function
    | Process.Ref ("mult", _) -> Process.ref_ "mult2"
    | Process.Output (c, e, k) -> Process.Output (c, e, redirect k)
    | Process.Input (c, x, s, k) -> Process.Input (c, x, s, redirect k)
    | Process.Choice (a, b) -> Process.Choice (redirect a, redirect b)
    | Process.Par (xa, ya, a, b) -> Process.Par (xa, ya, redirect a, redirect b)
    | Process.Hide (l, p) -> Process.Hide (l, redirect p)
    | (Process.Stop | Process.Ref _) as p -> p
  in
  let defs = Defs.define "mult2" (redirect mult2_body) Defs.empty in
  let spec =
    Assertion.Cmp
      ( Assertion.Le,
        Term.Len (Term.Chan (Chan_expr.indexed "col" (Expr.int 2))),
        Term.Len (Term.Chan (Chan_expr.indexed "row" (Expr.int 2))) )
  in
  let tables = Tactic.tables ~invariants:[ ("mult2", spec) ] () in
  assert_proved ~tables defs (Sequent.Holds (Process.ref_ "mult2", spec))

(* ---- E7: partial correctness cannot exclude deadlock ------------------- *)

let test_stop_satisfies_everything_satisfiable () =
  let specs =
    [
      C.copier_spec;
      C.network_spec;
      P.protocol_spec;
      Assertion.Prefix (Term.App ("f", Term.chan "wire"), Term.chan "input");
    ]
  in
  List.iter
    (fun spec ->
      match
        Check.check (Sequent.context Defs.empty)
          (Sequent.Holds (Process.Stop, spec))
          Proof.Emptiness
      with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "STOP should satisfy %a: %s" Assertion.pp spec m)
    specs

let test_deadlocking_network_passes () =
  (* crossed handshake: provable invariant, certain deadlock *)
  let ab = Chan_set.of_names [ "a"; "b" ] in
  let defs =
    Defs.empty
    |> Defs.define "l"
         (Process.send "a" (Expr.int 0)
            (Process.recv "b" "x" Vset.Nat (Process.ref_ "l")))
    |> Defs.define "r"
         (Process.send "b" (Expr.int 0)
            (Process.recv "a" "x" Vset.Nat (Process.ref_ "r")))
  in
  let net = Process.Par (ab, ab, Process.ref_ "l", Process.ref_ "r") in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  check_bool "immediate deadlock" true (Step.is_deadlocked cfg net);
  (* and yet bounded sat-checking accepts any satisfiable assertion *)
  match Sat.check ~depth:5 cfg net C.network_spec with
  | Sat.Holds _ -> ()
  | Sat.Fails _ -> Alcotest.fail "vacuously true on the empty trace set"

let () =
  Alcotest.run "paper"
    [
      ( "E1-copier",
        [
          Alcotest.test_case "bounded checks" `Quick test_copier_sat;
          Alcotest.test_case "proofs" `Quick test_copier_proofs;
          Alcotest.test_case "fully syntactic" `Quick
            test_copier_proof_fully_syntactic;
          Alcotest.test_case "guardedness" `Quick test_copier_guardedness;
          Alcotest.test_case "wrong spec refuted" `Quick
            test_copier_wrong_spec_refuted;
        ] );
      ( "E2-protocol",
        [
          Alcotest.test_case "bounded checks" `Quick test_protocol_sat;
          Alcotest.test_case "Table 1" `Quick test_table_1;
          Alcotest.test_case "companion proofs" `Quick test_protocol_proofs;
          Alcotest.test_case "f is necessary" `Quick test_protocol_needs_f;
          Alcotest.test_case "retransmission traces" `Quick
            test_protocol_retransmission_traces;
        ] );
      ( "E3-multiplier",
        [
          Alcotest.test_case "bounded check" `Quick test_multiplier_sat;
          Alcotest.test_case "simulation" `Quick test_multiplier_simulation;
          Alcotest.test_case "other sizes" `Quick test_multiplier_sizes;
          Alcotest.test_case "wrong vector detected" `Quick
            test_multiplier_wrong_vector_detected;
          Alcotest.test_case "per-stage proof" `Quick test_mult_stage_proof;
        ] );
      ( "E7-partiality",
        [
          Alcotest.test_case "STOP satisfies everything" `Quick
            test_stop_satisfies_everything_satisfiable;
          Alcotest.test_case "deadlock invisible to sat" `Quick
            test_deadlocking_network_passes;
        ] );
    ]
