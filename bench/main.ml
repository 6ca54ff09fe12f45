(* The benchmark and experiment harness.

   Part 1 regenerates every experiment of DESIGN.md's index (E1–E11):
   the paper has no numeric tables — its evaluation consists of worked
   examples (the copier figure, Table 1 and the protocol, the multiplier
   figure) and the two model-limitation claims of §4 — so each
   experiment re-derives the corresponding claim and prints a
   paper-vs-measured line.  EXPERIMENTS.md records the outputs.

   Part 2 holds the ablations (A1–A2), the P11–P16 performance legs
   (each writes its BENCH_*.json) and a Bechamel timing suite (P1–P7)
   characterising the cost of the semantic operations, the bounded
   checker, the proof system and the simulator.  BENCH_closure.json
   (P8) and BENCH_procir.json (P10) are frozen records of comparisons
   no longer re-run.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- quick   (part 1 only)
             dune exec bench/main.exe -- p11     (parallel scaling only)
             dune exec bench/main.exe -- p13     (compiled successor engine)
             dune exec bench/main.exe -- p14     (coverage-guided fuzzing)
             dune exec bench/main.exe -- p16     (counter abstraction)
             dune exec bench/main.exe -- smoke   (E11 + P11–P16, tiny
                                                  sizes; @bench-smoke) *)

open Csp
module Runner = Csp_sim.Runner

let section title = Printf.printf "\n=== %s ===\n" title
let result fmt = Printf.printf fmt

let ok b = if b then "OK" else "FAILED"

(* ---------------------------------------------------------------------- *)
(* E1: the copier pipeline                                                 *)
(* ---------------------------------------------------------------------- *)

let e1_copier () =
  section "E1: copier pipeline (§1.2, §2) — wire <= input, output <= input";
  let module C = Paper.Copier in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 3) C.defs in
  let ctx = Sequent.context C.defs in
  let line name p spec =
    let sat = Sat.check ~depth:6 cfg p spec in
    let proof =
      match Tactic.prove_and_check ~tables:C.tables ctx (Sequent.Holds (p, spec)) with
      | Ok (proof, report) ->
        Printf.sprintf "proved (%d rules, %d obligations, %d tested)"
          (Proof.size proof)
          (List.length report.Check.obligations)
          (Check.tested_obligations report)
      | Error m -> "PROOF FAILED: " ^ m
    in
    result "  %-34s  %-42s  %s\n" name
      (Format.asprintf "%a" Sat.pp_outcome sat)
      proof
  in
  line "copier sat wire <= input" C.copier C.copier_spec;
  line "recopier sat output <= wire" C.recopier C.recopier_spec;
  line "network sat output <= input" C.network C.network_spec;
  line "pipe sat output <= input" C.pipe C.network_spec;
  line "copier sat #input <= #wire + 1" C.copier C.count_spec

(* ---------------------------------------------------------------------- *)
(* E2: the protocol and Table 1                                            *)
(* ---------------------------------------------------------------------- *)

let e2_protocol () =
  section "E2: retransmission protocol — Table 1 regenerated";
  let module P = Paper.Protocol in
  let ctx = Sequent.context P.defs in
  (match
     Tactic.prove_and_check ~tables:P.tables ctx
       (Sequent.Holds (P.sender, P.sender_spec))
   with
  | Ok (_, report) -> Format.printf "%a@." Check.pp_report report
  | Error m -> result "Table 1 FAILED: %s\n" m);
  List.iter
    (fun (name, j) ->
      match Tactic.prove_and_check ~tables:P.tables ctx j with
      | Ok (proof, report) ->
        result "  %-44s proved (%d rules, %d tested obligations)\n" name
          (Proof.size proof)
          (Check.tested_obligations report)
      | Error m -> result "  %-44s FAILED: %s\n" name m)
    [
      ("receiver sat output <= f(wire)", Sequent.Holds (P.receiver, P.receiver_spec));
      ("protocol sat output <= input", Sequent.Holds (P.protocol, P.protocol_spec));
    ];
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) ~hide_fuel:8 P.defs in
  result "  bounded check: protocol sat output <= input: %s\n"
    (Format.asprintf "%a" Sat.pp_outcome
       (Sat.check ~depth:5 cfg P.protocol P.protocol_spec));
  (* goodput degradation under NACK bias *)
  result "  %8s %10s %10s %10s %10s\n" "p(NACK)" "inputs" "outputs" "wire"
    "goodput";
  List.iter
    (fun p_nack ->
      let weight (e : Event.t) =
        if Value.equal e.Event.value Value.nack then p_nack
        else if Value.equal e.Event.value Value.ack then 1.0 -. p_nack
        else 1.0
      in
      let r =
        Runner.run
          ~scheduler:(Scheduler.weighted ~seed:11 ~weight)
          ~max_steps:10_000 cfg P.protocol
      in
      let count c = Stats.count r.Runner.stats (Channel.simple c) in
      result "  %8.2f %10d %10d %10d %10.4f\n" p_nack (count "input")
        (count "output") (count "wire")
        (float_of_int (count "output")
        /. float_of_int r.Runner.stats.Stats.steps))
    [ 0.0; 0.25; 0.5; 0.75; 0.9 ]

(* ---------------------------------------------------------------------- *)
(* E3: the multiplier                                                      *)
(* ---------------------------------------------------------------------- *)

let e3_multiplier () =
  section "E3: systolic matrix-vector multiplier (§1.3(5))";
  result "  %-14s %-10s %-44s %s\n" "vector" "outputs" "bounded check"
    "monitor";
  List.iter
    (fun v ->
      let m = Paper.Multiplier.make ~v in
      let cfg = Step.config ~sampler:(Sampler.nat_bound 2) m.Paper.Multiplier.defs in
      let sat =
        Sat.check ~nat_bound:8 ~depth:6 cfg m.Paper.Multiplier.network
          m.Paper.Multiplier.spec
      in
      let r =
        Runner.run
          ~scheduler:(Scheduler.uniform ~seed:2)
          ~monitors:[ Runner.monitor "spec" m.Paper.Multiplier.spec ]
          ~max_steps:300 cfg m.Paper.Multiplier.multiplier
      in
      result "  %-14s %-10d %-44s %s\n"
        ("[" ^ String.concat ";" (List.map string_of_int v) ^ "]")
        (Stats.count r.Runner.stats (Channel.simple "output"))
        (Format.asprintf "%a" Sat.pp_outcome sat)
        (ok (r.Runner.violations = [])))
    [ [ 1; 2; 3 ]; [ 2; 7; 1 ]; [ 5 ]; [ 1; 0; 2; 1 ] ]

(* ---------------------------------------------------------------------- *)
(* E4: §3.1 theorems on random closures                                    *)
(* ---------------------------------------------------------------------- *)

let random_closure st depth =
  let rand_event () =
    Event.make
      (Channel.simple (String.make 1 (Char.chr (97 + Random.State.int st 3))))
      (Value.Int (Random.State.int st 2))
  in
  let rand_trace () =
    List.init (Random.State.int st depth) (fun _ -> rand_event ())
  in
  Closure.of_traces (List.init (1 + Random.State.int st 6) (fun _ -> rand_trace ()))

let e4_model_theorems () =
  section "E4: §3.1 theorems (prefix closure, distributivity) on random closures";
  let st = Random.State.make [| 2026 |] in
  let trials = 2000 in
  let count name pred =
    let passed = ref 0 in
    for _ = 1 to trials do
      let a = random_closure st 5 and b = random_closure st 5 in
      if pred a b then incr passed
    done;
    result "  %-52s %d/%d\n" name !passed trials
  in
  let in_a c = Channel.base c = "a" in
  let closed t =
    List.for_all
      (fun s -> List.for_all (fun p -> Closure.mem p t) (Trace.prefixes s))
      (Closure.to_traces t)
  in
  count "(a -> P) is a prefix closure" (fun a _ ->
      closed (Closure.prefix (Event.vi "a" 0) a));
  count "P\\C is a prefix closure" (fun a _ -> closed (Closure.hide in_a a));
  count "par is a prefix closure" (fun a b ->
      closed (Closure.par ~in_x:(fun _ -> true) ~in_y:in_a a b));
  count "(a -> (P u Q)) = (a -> P) u (a -> Q)" (fun a b ->
      let e = Event.vi "a" 0 in
      Closure.equal
        (Closure.prefix e (Closure.union a b))
        (Closure.union (Closure.prefix e a) (Closure.prefix e b)));
  count "(P u Q)\\C = P\\C u Q\\C" (fun a b ->
      Closure.equal
        (Closure.hide in_a (Closure.union a b))
        (Closure.union (Closure.hide in_a a) (Closure.hide in_a b)))

(* ---------------------------------------------------------------------- *)
(* E5: operational vs denotational                                         *)
(* ---------------------------------------------------------------------- *)

let e5_op_vs_deno () =
  section "E5: operational enumeration = denotational fixpoint";
  let sampler = Sampler.nat_bound 2 in
  let check name defs p depth =
    match
      Equiv.operational_vs_denotational ~depth
        (Step.config ~sampler defs)
        (Denote.config ~sampler defs)
        p
    with
    | Ok () -> result "  %-40s agree up to depth %d\n" name depth
    | Error s ->
      result "  %-40s DISAGREE on %s\n" name (Trace.to_string s)
  in
  check "copier" Paper.Copier.defs Paper.Copier.copier 6;
  check "copier network" Paper.Copier.defs Paper.Copier.network 5;
  check "protocol network" Paper.Protocol.defs Paper.Protocol.network 4;
  check "multiplier network" Paper.Multiplier.default.Paper.Multiplier.defs
    Paper.Multiplier.default.Paper.Multiplier.network 4

(* ---------------------------------------------------------------------- *)
(* E6: soundness — accepted proofs vs bounded model checking               *)
(* ---------------------------------------------------------------------- *)

let e6_soundness () =
  section "E6: soundness — every checker-accepted judgment survives model checking";
  let cases =
    [
      ("copier/wire<=input", Paper.Copier.defs, Paper.Copier.tables,
       Paper.Copier.copier, Paper.Copier.copier_spec);
      ("network/output<=input", Paper.Copier.defs, Paper.Copier.tables,
       Paper.Copier.network, Paper.Copier.network_spec);
      ("sender/f(wire)<=input", Paper.Protocol.defs, Paper.Protocol.tables,
       Paper.Protocol.sender, Paper.Protocol.sender_spec);
      ("receiver/output<=f(wire)", Paper.Protocol.defs, Paper.Protocol.tables,
       Paper.Protocol.receiver, Paper.Protocol.receiver_spec);
      ("protocol/output<=input", Paper.Protocol.defs, Paper.Protocol.tables,
       Paper.Protocol.protocol, Paper.Protocol.protocol_spec);
    ]
  in
  List.iter
    (fun (name, defs, tables, p, spec) ->
      let proved =
        Result.is_ok
          (Tactic.prove_and_check ~tables (Sequent.context defs)
             (Sequent.Holds (p, spec)))
      in
      let checked =
        match
          Sat.check ~depth:5
            (Step.config ~sampler:(Sampler.nat_bound 2) defs)
            p spec
        with
        | Sat.Holds _ -> true
        | Sat.Fails _ -> false
      in
      result "  %-28s proved=%b  model-checked=%b  %s\n" name proved checked
        (ok (proved && checked)))
    cases

(* ---------------------------------------------------------------------- *)
(* E7: partial correctness cannot exclude deadlock                         *)
(* ---------------------------------------------------------------------- *)

let e7_partiality () =
  section "E7: §4 defect 1 — STOP satisfies every satisfiable invariant";
  let specs =
    [
      ("wire <= input", Paper.Copier.copier_spec);
      ("output <= input", Paper.Copier.network_spec);
      ("f(wire) <= input", Paper.Protocol.sender_spec);
    ]
  in
  List.iter
    (fun (name, spec) ->
      let accepted =
        Result.is_ok
          (Check.check (Sequent.context Defs.empty)
             (Sequent.Holds (Process.Stop, spec))
             Proof.Emptiness)
      in
      result "  STOP sat %-22s accepted by the emptiness rule: %b\n" name
        accepted)
    specs;
  (* a deadlocking handshake passes its safety checks *)
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
  result "  crossed handshake: deadlocked=%b, yet sat-check of output<=input: %s\n"
    (Step.is_deadlocked cfg net)
    (Format.asprintf "%a" Sat.pp_outcome
       (Sat.check ~depth:4 cfg net Paper.Copier.network_spec))

(* ---------------------------------------------------------------------- *)
(* E8: STOP | P = P in the model                                           *)
(* ---------------------------------------------------------------------- *)

let e8_nondet_defect () =
  section "E8: §4 defect 2 — STOP | P is identically P in the prefix-closure model";
  let sampler = Sampler.nat_bound 2 in
  List.iter
    (fun (name, defs, p) ->
      let dcfg = Denote.config ~sampler defs in
      result "  STOP | %-18s = %-18s at depths 1..6: %s\n" name name
        (ok
           (List.for_all
              (fun depth -> Equiv.stop_choice_identity ~depth dcfg p)
              [ 1; 2; 3; 4; 5; 6 ])))
    [
      ("copier", Paper.Copier.defs, Paper.Copier.copier);
      ("receiver", Paper.Protocol.defs, Paper.Protocol.receiver);
      ("copier-network", Paper.Copier.defs, Paper.Copier.network);
    ];
  (* absorption of a branch that deadlocks after common behaviour *)
  let p =
    Process.send "a" (Expr.int 0) (Process.send "b" (Expr.int 1) Process.Stop)
  in
  let q = Process.send "a" (Expr.int 0) Process.Stop in
  result "  (a!0 -> STOP | a!0 -> b!1 -> STOP) = (a!0 -> b!1 -> STOP): %s\n"
    (ok (Equiv.choice_absorption ~depth:5 (Denote.config ~sampler Defs.empty) q p))

(* ---------------------------------------------------------------------- *)
(* E9: the refusals extension repairs the §4 defect                        *)
(* ---------------------------------------------------------------------- *)

let e9_failures_extension () =
  section
    "E9 (extension): stable failures — the 'more realistic model of \
non-determinism' of §4";
  let sampler = Sampler.nat_bound 2 in
  List.iter
    (fun (name, defs, p) ->
      let cfg = Step.config ~sampler defs in
      result
        "  %-18s trace model: STOP|P = P;  failures model distinguishes: %b\n"
        name
        (Failures.distinguishes_stop_choice cfg ~depth:3 p))
    [
      ("copier", Paper.Copier.defs, Paper.Copier.copier);
      ("receiver", Paper.Protocol.defs, Paper.Protocol.receiver);
      ("a!0 -> STOP", Defs.empty, Process.send "a" (Expr.int 0) Process.Stop);
    ];
  (* deadlock becomes expressible: the crossed handshake *)
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
  let cfg = Step.config ~sampler defs in
  (match Failures.can_deadlock cfg ~depth:3 net with
  | Some s ->
    result "  crossed handshake: failures model reports deadlock after %s\n"
      (Trace.to_string s)
  | None -> result "  crossed handshake: FAILED to report the deadlock\n");
  (match
     Failures.can_deadlock ~choice:`Internal cfg ~depth:3
       (Process.Choice (Process.Stop, Process.ref_ "l"))
   with
  | Some [] ->
    result "  STOP | l: immediate deadlock reported (internal reading)\n"
  | _ -> result "  STOP | l: FAILED\n");
  match
    Failures.can_deadlock
      (Step.config ~sampler Paper.Protocol.defs)
      ~depth:3 Paper.Protocol.protocol
  with
  | None -> result "  protocol: no reachable deadlock (depth 3)\n"
  | Some s ->
    result "  protocol: unexpected deadlock after %s\n" (Trace.to_string s)

(* ---------------------------------------------------------------------- *)
(* E10: mutation kill matrix                                               *)
(* ---------------------------------------------------------------------- *)

(* Can the tooling detect a single-point fault injected into the
   protocol?  Three detectors, in the order a user would run them:
   bounded model checking of the end-to-end spec, the proof checker
   (does the paper's proof still go through?), and — for the faults
   partial correctness provably cannot see (§4) — the refusals
   extension's deadlock detection. *)
let e10_mutations () =
  section "E10: mutation kill matrix (protocol, single-point faults)";
  let module P = Paper.Protocol in
  let spec = P.protocol_spec in
  let totals = Hashtbl.create 8 in
  let bump key =
    Hashtbl.replace totals key (1 + Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  let classify (mutant, defs') =
    let cfg = Step.config ~sampler:(Sampler.nat_bound 2) ~hide_fuel:8 defs' in
    let killed_by_sat =
      match Sat.check ~depth:5 cfg (Process.ref_ "protocol") spec with
      | Sat.Fails _ -> true
      | Sat.Holds _ -> false
      | exception _ -> true (* e.g. the mutant became unproductive *)
    in
    let killed_by_proof =
      not
        (Result.is_ok
           (Tactic.prove_and_check ~tables:P.tables (Sequent.context defs')
              (Sequent.Holds (Process.ref_ "protocol", spec))))
    in
    let killed_by_refusals =
      match Failures.can_deadlock cfg ~depth:3 (Process.ref_ "protocol") with
      | Some _ -> true
      | None -> false
      | exception _ -> true
    in
    let verdict =
      if killed_by_sat then "killed by sat-check"
      else if killed_by_proof then "killed by proof failure"
      else if killed_by_refusals then "killed only by refusals (§4!)"
      else "SURVIVED"
    in
    bump (mutant.Mutate.operator, verdict);
    (mutant.Mutate.description, verdict)
  in
  let all_mutants =
    List.concat_map
      (fun name -> Mutate.mutate_def P.defs name)
      [ "sender"; "q"; "receiver" ]
  in
  let classified = List.map classify all_mutants in
  result "  %d mutants over sender, q, receiver\n" (List.length classified);
  let op_name = function
    | `Value -> "value"
    | `Channel -> "channel"
    | `Branch -> "branch"
    | `Truncate -> "truncate"
  in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort compare
  |> List.iter (fun ((op, verdict), n) ->
         result "  %-10s %-32s %d\n" (op_name op) verdict n);
  List.iter
    (fun (d, v) ->
      if v = "SURVIVED" then result "  survivor: %s\n" d)
    classified

(* ---------------------------------------------------------------------- *)
(* E11: compositional proof vs state-space growth                          *)
(* ---------------------------------------------------------------------- *)

(* The deepest point of the paper: the parallelism rule proves a network
   from per-component invariants, so proof size grows with the number of
   components while the state space grows with their product.  Measured
   on the n-stage copier chain. *)
let e11_compositionality ?(sizes = [ 1; 2; 3; 4; 6; 8; 12 ]) () =
  section "E11: compositional proofs vs state explosion (n-stage chain)";
  result "  %4s %10s %12s %14s %14s %10s\n" "n" "LTS states" "proof rules"
    "sat-check(ms)" "proof(ms)" "status";
  List.iter
    (fun n ->
      let defs, chain = Paper.Copier.chain_defs n in
      let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
      let stage_spec i =
        Assertion.Prefix
          ( Term.Chan (Chan_expr.indexed "c" (Expr.int i)),
            Term.Chan (Chan_expr.indexed "c" (Expr.int (i - 1))) )
      in
      let tables =
        Tactic.tables
          ~invariants:
            (List.init n (fun i ->
                 (Paper.Copier.stage_name (i + 1), stage_spec (i + 1))))
          ()
      in
      let states =
        match chain with
        | Process.Hide (_, network) ->
          Lts.num_states (Lts.explore ~max_states:100000 cfg network)
        | _ -> 0
      in
      let t0 = Unix.gettimeofday () in
      let sat_ok =
        if n <= 6 then
          match Sat.check ~depth:6 cfg chain (Paper.Copier.chain_spec n) with
          | Sat.Holds _ -> true
          | Sat.Fails _ -> false
        else true (* beyond n=6 bounded checking is already impractical *)
      in
      let sat_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t1 = Unix.gettimeofday () in
      let proof =
        Tactic.prove_and_check ~tables (Sequent.context defs)
          (Sequent.Holds (chain, Paper.Copier.chain_spec n))
      in
      let proof_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
      match proof with
      | Ok (p, _) ->
        result "  %4d %10d %12d %14.1f %14.1f %10s\n" n states
          (Proof.size p)
          (if n <= 6 then sat_ms else Float.nan)
          proof_ms
          (ok sat_ok)
      | Error m -> result "  %4d PROOF FAILED: %s\n" n m)
    sizes

(* ---------------------------------------------------------------------- *)
(* A1/A2: ablations of design choices                                      *)
(* ---------------------------------------------------------------------- *)

(* A1: what does the prover's syntactic phase buy?  Disable it and
   every obligation falls through to bounded testing. *)
let a1_prover_ablation () =
  section "A1 (ablation): obligation prover with/without the syntactic phase";
  let run name defs tables p spec =
    List.iter
      (fun (mode, config) ->
        let t0 = Unix.gettimeofday () in
        match
          Tactic.prove_and_check ~config ~tables (Sequent.context defs)
            (Sequent.Holds (p, spec))
        with
        | Ok (_, report) ->
          result "  %-28s %-22s %6.1f ms, %d/%d obligations by testing\n" name
            mode
            ((Unix.gettimeofday () -. t0) *. 1000.0)
            (Check.tested_obligations report)
            (List.length report.Check.obligations)
        | Error m -> result "  %-28s %-22s FAILED: %s\n" name mode m)
      [
        ("with syntactic rules", Csp_assertion.Prover.default_config);
        ( "testing only",
          { Csp_assertion.Prover.default_config with syntactic_phase = false }
        );
      ]
  in
  run "copier/wire<=input" Paper.Copier.defs Paper.Copier.tables
    Paper.Copier.copier Paper.Copier.copier_spec;
  run "sender/Table-1" Paper.Protocol.defs Paper.Protocol.tables
    Paper.Protocol.sender Paper.Protocol.sender_spec

(* A2: prefix closures as tries vs. as plain sorted trace lists. *)
module Naive = struct
  type t = Csp_trace.Trace.t list (* sorted, deduplicated, prefix-closed *)

  let of_closure c = List.sort_uniq Trace.compare (Closure.to_traces c)
  let union a b = List.sort_uniq Trace.compare (a @ b)
  let mem s (t : t) = List.exists (Trace.equal s) t

  let hide in_c (t : t) =
    List.sort_uniq Trace.compare (List.map (Trace.hide in_c) t)
end

let a2_closure_ablation () =
  section "A2 (ablation): trie-based closures vs sorted trace lists";
  let cfg = Step.config ~sampler:(Sampler.nat_bound 3) Paper.Copier.defs in
  let trie = Step.traces cfg ~depth:8 Paper.Copier.copier in
  let listed = Naive.of_closure trie in
  result "  %d traces at depth 8\n" (Closure.cardinal trie);
  let time name f =
    let t0 = Unix.gettimeofday () in
    let iters = 200 in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    result "  %-34s %8.1f us/op\n" name
      ((Unix.gettimeofday () -. t0) *. 1_000_000.0 /. float_of_int iters)
  in
  let in_wire c = Channel.base c = "wire" in
  let probe = List.nth listed (List.length listed / 2) in
  time "trie union" (fun () -> Closure.union trie trie);
  time "list union" (fun () -> Naive.union listed listed);
  time "trie mem" (fun () -> Closure.mem probe trie);
  time "list mem" (fun () -> Naive.mem probe listed);
  time "trie hide" (fun () -> Closure.hide in_wire trie);
  time "list hide" (fun () -> Naive.hide in_wire listed)

(* A leg's "snapshot" is the counters its own measurement moved
   ([Obs.delta_snapshot] around it), never the process's cumulative
   registry — which would carry every earlier leg's keys. *)
let counters_json deltas =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n) deltas)
  ^ "}"

(* Wall-clock of the best of [repeats] runs, in ms.  With [cold], the
   closure kernel's global caches are cleared before every run, so
   sharing within one run is measured but reuse across runs is not. *)
let time_ms ?(repeats = 2) ?(cold = false) f =
  let best = ref infinity in
  for _ = 1 to repeats do
    if cold then Closure.clear_caches ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1000.0

(* ---------------------------------------------------------------------- *)
(* P11: parallel LTS exploration — scaling over domain counts              *)
(* ---------------------------------------------------------------------- *)

type p11_row = {
  p11_workload : string;
  p11_domains : int;
  p11_ms : float;
  p11_states : int;
  p11_transitions : int;
  p11_speedup : float;  (* vs the 1-domain run of the same workload *)
  p11_identical : bool;  (* DOT output byte-identical to sequential *)
}

type p11_warm = {
  warm_workload : string;
  warm_cold_ms : float;
  warm_warm_ms : float;
  warm_hits : int;
  warm_misses : int;
}

let write_p11_json path ~host_domains ~underpowered ~warm ~counters rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"p11_parallel\",\n  \"host_domains\": %d,\n  \
     \"underpowered_host\": %b,\n  \"results\": [\n"
    host_domains underpowered;
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"workload\": \"%s\", \"domains\": %d, \"ms\": %.3f, \
         \"states\": %d, \"transitions\": %d, \"speedup_vs_seq\": %.2f, \
         \"identical_to_seq\": %b }%s\n"
        r.p11_workload r.p11_domains r.p11_ms r.p11_states r.p11_transitions
        r.p11_speedup r.p11_identical
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"warm_config\": { \"workload\": \"%s\", \"cold_ms\": %.3f, \
     \"warm_ms\": %.3f, \"trans_hits\": %d, \"trans_misses\": %d },\n"
    warm.warm_workload warm.warm_cold_ms warm.warm_warm_ms warm.warm_hits
    warm.warm_misses;
  Printf.fprintf oc "  \"snapshot\": %s\n}\n" (counters_json counters);
  close_out oc

let p11_parallel ?(smoke = false) () =
  section "P11: parallel LTS exploration (work-stealing frontier)";
  let host = Domain.recommended_domain_count () in
  (* Cold legs run on fresh configurations (per-config caches empty):
     successor derivation is the work being stolen, and a warm
     trans_cache would reduce every run to table lookups.  The warm
     leg below measures exactly that effect, deliberately. *)
  let workloads =
    let chain n =
      ( Printf.sprintf "copier-chain-%d" n,
        fun () ->
          let defs, net = Paper.Copier.chain_defs n in
          (Step.config ~sampler:(Sampler.nat_bound 2) defs, net) )
    and philosophers n =
      ( Printf.sprintf "philosophers-%d" n,
        fun () ->
          let ph = Paper.Philosophers.make ~n ~left_handed_last:true () in
          ( Step.config ~sampler:(Sampler.nat_bound n) ph.Paper.Philosophers.defs,
            ph.Paper.Philosophers.network ) )
    and token_ring n =
      ( Printf.sprintf "token-ring-%d" n,
        fun () ->
          let m = Models.Token_ring.make ~n in
          ( Step.config ~sampler:(Sampler.nat_bound 2)
              m.Models.Token_ring.defs,
            m.Models.Token_ring.network ) )
    in
    if smoke then [ chain 4; philosophers 3; token_ring 4 ]
    else [ chain 8; philosophers 4; token_ring 10 ]
  in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let max_benched = List.fold_left max 1 domain_counts in
  let underpowered = host < max_benched in
  result "  host_domains: %d (benching up to %d domains)%s\n" host max_benched
    (if underpowered then
       " — UNDERPOWERED HOST: speedups are bounded by 1.0, read them as \
        overhead measurements"
     else "");
  let max_states = 50_000 in
  let rows = ref [] in
  let warm, counters =
    Obs.delta_snapshot @@ fun () ->
    (* Sequential references, one per workload: the byte-identity
       oracle and the speedup baseline. *)
    let references =
      List.map
        (fun (label, mk) ->
          let cfg, net = mk () in
          (label, Lts.to_dot (Lts.explore ~max_states cfg net)))
        workloads
    in
    let seq_ms : (string, float) Hashtbl.t = Hashtbl.create 8 in
    result "  %-20s %8s %10s %8s %8s %10s %10s\n" "workload" "domains" "ms"
      "states" "trans" "speedup" "identical";
    (* One pool per domain count, shared across every workload leg: pool
       construction (domain spawn) is paid once, not once per cell, so
       the timings measure exploration, not setup. *)
    List.iter
      (fun domains ->
        Pool.with_pool ~domains (fun pool ->
            List.iter
              (fun (label, mk) ->
                let ref_dot = List.assoc label references in
                let run () =
                  let cfg, net = mk () in
                  Lts.explore ~max_states ~pool cfg net
                in
                (* warm-up, then best-of-2 on cold configurations *)
                let lts = run () in
                let ms =
                  let best = ref infinity in
                  for _ = 1 to 2 do
                    let t0 = Unix.gettimeofday () in
                    ignore (Sys.opaque_identity (run ()));
                    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
                    if dt < !best then best := dt
                  done;
                  !best
                in
                if domains = 1 then Hashtbl.replace seq_ms label ms;
                let identical = String.equal (Lts.to_dot lts) ref_dot in
                let speedup =
                  match Hashtbl.find_opt seq_ms label with
                  | Some s when ms > 0.0 -> s /. ms
                  | _ -> 1.0
                in
                result "  %-20s %8d %10.1f %8d %8d %9.2fx %10b\n" label domains
                  ms (Lts.num_states lts) (Lts.num_transitions lts) speedup
                  identical;
                rows :=
                  {
                    p11_workload = label;
                    p11_domains = domains;
                    p11_ms = ms;
                    p11_states = Lts.num_states lts;
                    p11_transitions = Lts.num_transitions lts;
                    p11_speedup = speedup;
                    p11_identical = identical;
                  }
                  :: !rows)
              workloads))
      domain_counts;
    (* Warm-config leg: the per-config transition cache pays off only
       when one configuration serves several explorations (repeated
       [cspc graph] queries, refinement checks against the same spec).
       Explore twice on the same configuration and report the second
       run's time and the cache delta — hits > 0 is also the regression
       guard for the cache keying (see test_step). *)
    let warm =
      let label, mk = List.hd workloads in
      let cfg, net = mk () in
      let time f =
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        (Unix.gettimeofday () -. t0) *. 1000.0
      in
      let cold_ms = time (fun () -> Lts.explore ~max_states cfg net) in
      let before = Step.stats () in
      let warm_ms = time (fun () -> Lts.explore ~max_states cfg net) in
      let after = Step.stats () in
      {
        warm_workload = label;
        warm_cold_ms = cold_ms;
        warm_warm_ms = warm_ms;
        warm_hits = after.Step.trans_hits - before.Step.trans_hits;
        warm_misses = after.Step.trans_misses - before.Step.trans_misses;
      }
    in
    result
      "  warm-config (%s): cold %.1f ms, warm %.1f ms — trans-cache %d hits, \
       %d misses on the warm run\n"
      warm.warm_workload warm.warm_cold_ms warm.warm_warm_ms warm.warm_hits
      warm.warm_misses;
    warm
  in
  write_p11_json "BENCH_parallel.json" ~host_domains:host ~underpowered ~warm
    ~counters (List.rev !rows);
  result "  wrote BENCH_parallel.json\n"

(* ---------------------------------------------------------------------- *)
(* P12: observability overhead — the disabled path must be free            *)
(* ---------------------------------------------------------------------- *)

(* Two measurements, written to BENCH_obs.json:

   - micro: the per-call cost of a dormant [Obs.span] and a live
     [Obs.Counter.incr] (one atomic load / one atomic RMW), measured
     directly;
   - macro: representative workloads (LTS exploration, the denotational
     fixpoint, a bounded sat check) timed with telemetry off and on.
     The off-mode run IS the shipping configuration, so its estimated
     instrumentation cost — span sites crossed × dormant span cost,
     relative to the run time — is the "overhead vs the uninstrumented
     baseline" number the roadmap's ≤2% budget constrains.  The
     enabled-mode column prices the clock reads and event records a
     profiled run pays. *)

type p12_row = {
  p12_name : string;
  p12_disabled_ms : float;
  p12_enabled_ms : float;
  p12_events : int; (* span events one enabled run records *)
  p12_disabled_overhead_pct : float; (* estimated, vs uninstrumented *)
  p12_enabled_overhead_pct : float; (* measured, enabled vs disabled *)
}

let time_ns_per_op ?(iters = 1_000_000) f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let write_p12_json path ~span_ns ~counter_ns rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"p12_obs_overhead\",\n  \
     \"span_disabled_ns_per_call\": %.2f,\n  \
     \"counter_incr_ns_per_call\": %.2f,\n  \"results\": [\n"
    span_ns counter_ns;
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"disabled_ms\": %.3f, \"enabled_ms\": \
         %.3f, \"span_events\": %d, \"disabled_overhead_pct\": %.4f, \
         \"enabled_overhead_pct\": %.2f }%s\n"
        r.p12_name r.p12_disabled_ms r.p12_enabled_ms r.p12_events
        r.p12_disabled_overhead_pct r.p12_enabled_overhead_pct
        (if i = last then "" else ","))
    rows;
  let worst =
    List.fold_left (fun m r -> Float.max m r.p12_disabled_overhead_pct) 0.0 rows
  in
  Printf.fprintf oc
    "  ],\n  \"max_disabled_overhead_pct\": %.4f,\n  \
     \"budget_pct\": 2.0,\n  \"within_budget\": %b\n}\n"
    worst (worst <= 2.0);
  close_out oc;
  worst

let p12_obs_overhead ?(smoke = false) () =
  section "P12: observability overhead (dormant instruments vs profiled runs)";
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  (* micro: dormant span vs live counter *)
  let probe_counter = Obs.Counter.make "bench.p12.probe" in
  let baseline_ns = time_ns_per_op (fun () -> Sys.opaque_identity 0) in
  let span_ns =
    time_ns_per_op (fun () -> Obs.span ~cat:"bench" "noop" (fun () -> 0))
    -. baseline_ns
  in
  let counter_ns =
    time_ns_per_op (fun () -> Obs.Counter.incr probe_counter) -. baseline_ns
  in
  result "  dormant span:     %6.2f ns/call (one atomic load)\n" span_ns;
  result "  counter incr:     %6.2f ns/call (one atomic RMW)\n" counter_ns;
  (* macro workloads: telemetry off (shipping mode) vs on (profiling) *)
  let sampler = Sampler.nat_bound 2 in
  let chain_n = if smoke then 3 else 6 in
  let defs, chain = Paper.Copier.chain_defs chain_n in
  let network = match chain with Process.Hide (_, net) -> net | p -> p in
  let workloads =
    [
      ( Printf.sprintf "chain%d-explore" chain_n,
        fun () ->
          ignore
            (Sys.opaque_identity
               (Lts.explore ~max_states:100_000
                  (Step.config ~sampler defs)
                  network)) );
      ( "protocol-denote",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Denote.denote
                  (Denote.config ~sampler Paper.Protocol.defs)
                  ~depth:(if smoke then 3 else 4)
                  Paper.Protocol.network)) );
      ( Printf.sprintf "chain%d-sat" chain_n,
        fun () ->
          ignore
            (Sys.opaque_identity
               (Sat.check ~depth:6
                  (Step.config ~sampler defs)
                  chain
                  (Paper.Copier.chain_spec chain_n))) );
    ]
  in
  result "  %-18s %12s %12s %10s %12s %12s\n" "workload" "off(ms)" "on(ms)"
    "events" "off-ovh(%)" "on-ovh(%)";
  let rows =
    List.map
      (fun (label, run) ->
        Obs.set_enabled false;
        let disabled_ms = time_ms ~repeats:3 ~cold:true run in
        Obs.set_enabled true;
        Obs.clear_events ();
        Closure.clear_caches ();
        run ();
        let events = Obs.event_count () in
        let enabled_ms = time_ms ~repeats:3 ~cold:true run in
        Obs.set_enabled false;
        Obs.clear_events ();
        (* what the dormant instruments cost the off-mode run: every
           span site crossed still pays one atomic load *)
        let disabled_overhead_pct =
          float_of_int events *. span_ns /. (disabled_ms *. 1e6) *. 100.0
        in
        let enabled_overhead_pct =
          (enabled_ms -. disabled_ms) /. disabled_ms *. 100.0
        in
        result "  %-18s %12.1f %12.1f %10d %12.4f %12.2f\n" label disabled_ms
          enabled_ms events disabled_overhead_pct enabled_overhead_pct;
        {
          p12_name = label;
          p12_disabled_ms = disabled_ms;
          p12_enabled_ms = enabled_ms;
          p12_events = events;
          p12_disabled_overhead_pct = disabled_overhead_pct;
          p12_enabled_overhead_pct = enabled_overhead_pct;
        })
      workloads
  in
  let worst = write_p12_json "BENCH_obs.json" ~span_ns ~counter_ns rows in
  Obs.set_enabled was_enabled;
  result "  wrote BENCH_obs.json (max disabled-mode overhead %.4f%%, budget \
          2%%: %s)\n"
    worst
    (ok (worst <= 2.0))

(* ---------------------------------------------------------------------- *)
(* P13: compiled successor engine vs interpreted exploration               *)
(* ---------------------------------------------------------------------- *)

(* The SPIN-style comparison: one [Compiled.compile] pass flattens the
   reachable state space into CSR successor tables, then every explore
   is array walks over a dense visited set.  The interpreted side runs
   on a fresh configuration per timed run (cold per-config caches —
   the cost one [cspc graph] invocation pays); the compiled side
   amortises its one compile over repeated explores, which is the
   design point, so compile time is reported as its own column. *)

type p13_row = {
  p13_workload : string;
  p13_states : int;
  p13_transitions : int;
  p13_interp_ms : float;
  p13_compile_ms : float;
  p13_compiled_ms : float;
  p13_speedup : float; (* interpreted / compiled explore *)
  p13_interp_sps : float; (* states per second, interpreted *)
  p13_compiled_sps : float; (* states per second, compiled *)
  p13_fallbacks : int;
  p13_identical : bool; (* DOT byte-identical to interpreted *)
}

let write_p13_json path ~counters rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"p13_compiled\",\n  \"results\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"workload\": \"%s\", \"states\": %d, \"transitions\": %d, \
         \"interpreted_ms\": %.3f, \"compile_ms\": %.3f, \
         \"compiled_explore_ms\": %.3f, \"speedup\": %.2f, \
         \"states_per_sec_interpreted\": %.0f, \"states_per_sec_compiled\": \
         %.0f, \"fallbacks\": %d, \"identical_to_interpreted\": %b }%s\n"
        r.p13_workload r.p13_states r.p13_transitions r.p13_interp_ms
        r.p13_compile_ms r.p13_compiled_ms r.p13_speedup r.p13_interp_sps
        r.p13_compiled_sps r.p13_fallbacks r.p13_identical
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"snapshot\": %s\n}\n" (counters_json counters);
  close_out oc

let p13_compiled ?(smoke = false) () =
  section "P13: compiled successor engine (flat tables) vs interpreter";
  let workloads =
    let chain n =
      ( Printf.sprintf "copier-chain-%d" n,
        fun () ->
          let defs, net = Paper.Copier.chain_defs n in
          (Step.config ~sampler:(Sampler.nat_bound 2) defs, net) )
    and philosophers n =
      ( Printf.sprintf "philosophers-%d" n,
        fun () ->
          let ph = Paper.Philosophers.make ~n ~left_handed_last:true () in
          ( Step.config ~sampler:(Sampler.nat_bound n) ph.Paper.Philosophers.defs,
            ph.Paper.Philosophers.network ) )
    in
    if smoke then [ chain 4; philosophers 3 ]
    else [ chain 6; chain 8; philosophers 4 ]
  in
  let max_states = 100_000 in
  let repeats = if smoke then 2 else 3 in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let rows = ref [] in
  result "  %-18s %8s %8s %10s %10s %10s %8s %12s %12s\n" "workload" "states"
    "trans" "interp(ms)" "compile" "explore" "speedup" "interp-st/s"
    "compiled-st/s";
  let (), counters =
    Obs.delta_snapshot @@ fun () ->
    List.iter
      (fun (label, mk) ->
        let reference =
          let cfg, net = mk () in
          Lts.explore ~max_states cfg net
        in
        let ref_dot = Lts.to_dot reference in
        (* interpreted: fresh configuration per run, like one CLI call *)
        let interp_ms =
          best_of (fun () ->
              let cfg, net = mk () in
              Lts.explore ~max_states cfg net)
        in
        (* compiled: one compile amortised over the explores *)
        let cfg, net = mk () in
        let compiled = Compiled.compile cfg net in
        let compiled_ms =
          best_of (fun () -> Lts.explore ~max_states ~compiled cfg net)
        in
        let lts = Lts.explore ~max_states ~compiled cfg net in
        let identical = String.equal (Lts.to_dot lts) ref_dot in
        let states = Lts.num_states lts in
        let sps ms =
          if ms > 0.0 then float_of_int states /. (ms /. 1000.0) else 0.0
        in
        let speedup = if compiled_ms > 0.0 then interp_ms /. compiled_ms else 1.0 in
        result "  %-18s %8d %8d %10.1f %10.1f %10.2f %7.1fx %12.0f %12.0f\n"
          label states (Lts.num_transitions lts) interp_ms
          (Compiled.compile_ms compiled)
          compiled_ms speedup (sps interp_ms) (sps compiled_ms);
        rows :=
          {
            p13_workload = label;
            p13_states = states;
            p13_transitions = Lts.num_transitions lts;
            p13_interp_ms = interp_ms;
            p13_compile_ms = Compiled.compile_ms compiled;
            p13_compiled_ms = compiled_ms;
            p13_speedup = speedup;
            p13_interp_sps = sps interp_ms;
            p13_compiled_sps = sps compiled_ms;
            p13_fallbacks = Compiled.fallbacks compiled;
            p13_identical = identical;
          }
          :: !rows)
      workloads
  in
  write_p13_json "BENCH_compiled.json" ~counters (List.rev !rows);
  result "  wrote BENCH_compiled.json\n"

(* ---------------------------------------------------------------------- *)
(* P14: coverage-guided fuzzing vs blind generation                        *)
(* ---------------------------------------------------------------------- *)

(* The AFL-style claim, measured: at an equal case budget and the same
   seed, the feedback loop (credit coverage-gaining scenario shapes,
   perturb on stagnation) must reach more distinct telemetry features
   than drawing every scenario from the fixed default distribution.
   Both campaigns are fully deterministic, so the curves in
   BENCH_fuzz.json are reproducible bit-for-bit from the seed. *)

type p14_row = {
  p14_mode : string; (* "guided" or "blind" *)
  p14_cases : int;
  p14_elapsed : float;
  p14_execs_per_sec : float;
  p14_distinct : int;
  p14_corpus : int;
  p14_minimised : int;
  p14_curve : (int * int) list;
}

let write_p14_json path ~seed ~counters rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"p14_fuzz_coverage\",\n  \"seed\": %d,\n  \"results\": [\n" seed;
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      let curve =
        String.concat ", "
          (List.map (fun (c, d) -> Printf.sprintf "[%d, %d]" c d) r.p14_curve)
      in
      Printf.fprintf oc
        "    { \"mode\": \"%s\", \"cases\": %d, \"elapsed_s\": %.3f, \
         \"execs_per_sec\": %.1f, \"distinct_features\": %d, \
         \"corpus\": %d, \"minimised\": %d, \"curve\": [%s] }%s\n"
        r.p14_mode r.p14_cases r.p14_elapsed r.p14_execs_per_sec
        r.p14_distinct r.p14_corpus r.p14_minimised curve
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"snapshot\": %s\n}\n" (counters_json counters);
  close_out oc

let p14_fuzz_coverage ?(smoke = false) () =
  section "P14: coverage-guided fuzzing vs blind generation (equal budget)";
  let module Fuzz = Csp_testkit.Fuzz in
  let seed = 2026 in
  let cases = if smoke then 100 else 300 in
  let cfg = { Fuzz.default_config with Fuzz.seed; max_cases = cases } in
  let campaign ~guided =
    let r, cov = Fuzz.run_coverage ~guided cfg in
    {
      p14_mode = (if guided then "guided" else "blind");
      p14_cases = r.Fuzz.cases;
      p14_elapsed = r.Fuzz.elapsed;
      p14_execs_per_sec =
        (if r.Fuzz.elapsed > 0. then
           float_of_int r.Fuzz.cases /. r.Fuzz.elapsed
         else 0.);
      p14_distinct = cov.Fuzz.distinct;
      p14_corpus = List.length cov.Fuzz.corpus;
      p14_minimised = List.length cov.Fuzz.minimised;
      p14_curve = cov.Fuzz.curve;
    }
  in
  (* blind first so the guided run cannot inherit any advantage from
     process-global registry state (the per-case diff is delta-based,
     but symmetry costs nothing) *)
  let (blind, guided), counters =
    Obs.delta_snapshot @@ fun () ->
    let blind = campaign ~guided:false in
    let guided = campaign ~guided:true in
    (blind, guided)
  in
  result "  %-8s %6s %9s %11s %10s %8s %10s\n" "mode" "cases" "time(s)"
    "execs/sec" "features" "corpus" "minimised";
  List.iter
    (fun r ->
      result "  %-8s %6d %9.2f %11.1f %10d %8d %10d\n" r.p14_mode r.p14_cases
        r.p14_elapsed r.p14_execs_per_sec r.p14_distinct r.p14_corpus
        r.p14_minimised)
    [ guided; blind ];
  result "  guided/blind feature ratio: %.2fx%s\n"
    (if blind.p14_distinct > 0 then
       float_of_int guided.p14_distinct /. float_of_int blind.p14_distinct
     else 0.)
    (if guided.p14_distinct > blind.p14_distinct then "" else "  (NO GAIN)");
  write_p14_json "BENCH_fuzz.json" ~seed ~counters [ guided; blind ];
  result "  wrote BENCH_fuzz.json\n"

(* ---------------------------------------------------------------------- *)
(* P15: the verification service — replayed traffic, cold vs warm start    *)
(* ---------------------------------------------------------------------- *)

(* [cspc serve] exists to amortise engine warm-up across requests, so
   the two numbers that justify it are sustained throughput on a mixed
   request stream (the same stream `cspc client --bench` and the CI
   smoke leg replay) and the first-request latency of a server started
   [--warm] from a snapshot versus one starting cold.  The probe
   request is a compiled-engine graph exploration — the most
   compile-heavy item in the stream — so cold-vs-warm isolates exactly
   the work the snapshot replays. *)

module Server = Csp_server.Server
module Workload = Csp_server.Workload
module Wjson = Csp_persist.Json

let p15_start_server cfg =
  let t =
    match Server.create cfg with Ok t -> t | Error m -> failwith m
  in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~ready:(fun () -> Atomic.set ready true) t cfg)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  d

let p15_request socket payload =
  match Workload.connect socket with
  | Error m -> failwith ("p15: connect: " ^ m)
  | Ok conn ->
    let r = Workload.request conn (Wjson.Obj payload) in
    Workload.close conn;
    (match r with
    | Ok resp when Wjson.mem_bool "ok" resp = Some true -> resp
    | Ok resp -> failwith ("p15: request refused: " ^ Wjson.to_string resp)
    | Error m -> failwith ("p15: request: " ^ m))

let p15_stop_server socket d =
  (match Workload.connect socket with
  | Ok conn ->
    ignore (Workload.request conn (Wjson.Obj [ ("op", Wjson.str "shutdown") ]));
    Workload.close conn
  | Error _ -> ());
  Domain.join d

let p15_time_first socket probe =
  match Workload.time_first ~socket probe with
  | Ok (ms, resp) when Wjson.mem_bool "ok" resp = Some true -> ms
  | Ok (_, resp) -> failwith ("p15: probe refused: " ^ Wjson.to_string resp)
  | Error m -> failwith ("p15: probe: " ^ m)

let write_p15_json path ~jobs ~connections ~repeat ~distinct ~cold_ms ~warm_ms
    ~counters (s : Workload.summary) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"p15_serve\",\n  \"jobs\": %d,\n  \"connections\": \
     %d,\n  \"repeat\": %d,\n  \"distinct_items\": %d,\n  \"requests\": \
     %d,\n  \"errors\": %d,\n  \"wall_s\": %.3f,\n  \"req_per_s\": %.1f,\n  \
     \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n  \"cold_first_ms\": %.3f,\n  \
     \"warm_first_ms\": %.3f,\n  \"warm_faster_than_cold\": %b,\n  \
     \"snapshot\": %s\n}\n"
    jobs connections repeat distinct s.Workload.requests s.Workload.errors
    s.Workload.wall_s s.Workload.req_per_s s.Workload.p50_ms s.Workload.p99_ms
    cold_ms warm_ms (warm_ms < cold_ms)
    (counters_json counters);
  close_out oc

let p15_serve ?(smoke = false) () =
  section "P15: cspc serve — replayed traffic, cold vs warm first request";
  let tmp = Filename.get_temp_dir_name () in
  let socket =
    Filename.concat tmp (Printf.sprintf "cspc-p15-%d.sock" (Unix.getpid ()))
  in
  let snapshot =
    Filename.concat tmp (Printf.sprintf "cspc-p15-%d.snap" (Unix.getpid ()))
  in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ socket; snapshot ];
  let jobs = 2 and connections = 2 in
  let repeat = if smoke then 1 else 3 in
  let items = Workload.mixed ~stress:(not smoke) ~sources:[] () in
  let probe =
    let is_graph (it : Workload.item) =
      let n = String.length it.label in
      n >= 6 && String.sub it.label (n - 6) 6 = ":graph"
    in
    (List.find is_graph items).Workload.request
  in
  (* cold: a fresh server's first request pays parse + Engine.compile *)
  let (cold_ms, warm_ms, summary), counters =
    Obs.delta_snapshot @@ fun () ->
    let d = p15_start_server (Server.config ~jobs socket) in
    let cold_ms = p15_time_first socket probe in
    let summary =
      match Workload.replay ~connections ~repeat ~socket items with
      | Ok (_, s) -> s
      | Error m -> failwith ("p15: replay: " ^ m)
    in
    ignore
      (p15_request socket
         [ ("op", Wjson.str "save"); ("path", Wjson.str snapshot) ]);
    p15_stop_server socket d;
    (* warm: [--warm] replays the snapshot before the socket opens, so
       the first request runs against hot caches *)
    let d2 = p15_start_server (Server.config ~jobs ~warm:snapshot socket) in
    let warm_ms = p15_time_first socket probe in
    p15_stop_server socket d2;
    Sys.remove snapshot;
    (cold_ms, warm_ms, summary)
  in
  result "  workload: %d distinct items x%d over %d connections, jobs=%d\n"
    (List.length items) repeat connections jobs;
  result "  %8d requests  %d errors  %8.1f req/s  p50 %6.2f ms  p99 %6.2f ms\n"
    summary.Workload.requests summary.Workload.errors
    summary.Workload.req_per_s summary.Workload.p50_ms summary.Workload.p99_ms;
  result "  first request: cold %.1f ms, warm %.1f ms — warm faster: %s\n"
    cold_ms warm_ms
    (ok (warm_ms < cold_ms));
  write_p15_json "BENCH_serve.json" ~jobs ~connections ~repeat
    ~distinct:(List.length items) ~cold_ms ~warm_ms ~counters summary;
  result "  wrote BENCH_serve.json\n"

(* ---------------------------------------------------------------------- *)
(* P16: counter abstraction — flat quotient vs superlinear concrete        *)
(* ---------------------------------------------------------------------- *)

(* The whole point of lib/abstraction: the concrete state space of a
   replica family grows with n (exactly 2^n for the workers pool)
   while the counter-abstract quotient saturates at the cutoff.  Each
   row explores both sides of one (family, n) pair and re-checks the
   soundness inclusion — every erased concrete trace must be a trace
   of the abstract LTS — so the emitted JSON doubles as a CI gate:
   any [sound_vs_concrete: false], or a ring row at n ≥ 8 whose
   abstract side is not strictly smaller than the concrete one, is a
   bug.  A final record times [check_family] certifying the ring for
   every n ≤ 32 in one run. *)

type p16_row = {
  p16_family : string;
  p16_n : int;
  p16_concrete_states : int;
  p16_concrete_complete : bool;
  p16_concrete_ms : float;
  p16_abstract_states : int;
  p16_collapses : int;
  p16_abstract_ms : float;
  p16_sound : bool;
}

let write_p16_json path rows ~check_model ~check_formula ~check_classes
    ~check_certified ~check_ms ~counters =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"p16_abstraction\",\n  \"results\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"family\": \"%s\", \"n\": %d, \"concrete_states\": %d, \
         \"concrete_complete\": %b, \"concrete_ms\": %.3f, \
         \"abstract_states\": %d, \"omega_collapses\": %d, \
         \"abstract_ms\": %.3f, \"abstract_lt_concrete\": %b, \
         \"sound_vs_concrete\": %b }%s\n"
        r.p16_family r.p16_n r.p16_concrete_states r.p16_concrete_complete
        r.p16_concrete_ms r.p16_abstract_states r.p16_collapses
        r.p16_abstract_ms
        (r.p16_abstract_states < r.p16_concrete_states)
        r.p16_sound
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"family_check\": { \"model\": \"%s\", \"formula\": \"%s\", \
     \"classes\": %d, \"certified\": %b, \"ms\": %.3f },\n  \"snapshot\": \
     %s\n}\n"
    check_model check_formula check_classes check_certified check_ms
    (counters_json counters);
  close_out oc

let p16_abstraction ?(smoke = false) () =
  section "P16: counter abstraction — abstract quotient vs concrete product";
  let (rows, check_formula, check_classes, check_certified, check_ms), counters =
    Obs.delta_snapshot @@ fun () ->
    let time_ms f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      ((Unix.gettimeofday () -. t0) *. 1000., r)
    in
    let concrete name ~n =
      match name with
      | "token-ring" ->
        let m = Models.Token_ring.make ~n in
        (m.Models.Token_ring.defs, m.Models.Token_ring.network)
      | "leader" ->
        let m = Models.Leader.make ~n in
        (m.Models.Leader.defs, m.Models.Leader.network)
      | "workers" ->
        let m = Models.Workers.make ~n in
        (m.Models.Workers.defs, m.Models.Workers.network)
      | other -> failwith ("p16: no concrete instance for " ^ other)
    in
    let cases =
      if smoke then
        [ ("token-ring", [ 2; 4; 8 ]); ("leader", [ 2; 3 ]);
          ("workers", [ 2; 4; 8 ]) ]
      else
        [ ("token-ring", [ 2; 4; 8; 16 ]); ("leader", [ 2; 4; 6 ]);
          ("workers", [ 2; 4; 8; 16 ]) ]
    in
    let sound_depth = 3 in
    let rows =
      List.concat_map
        (fun (name, sizes) ->
          let fam =
            match Abstraction.Family.find name with
            | Some f -> f
            | None -> failwith ("p16: no family preset " ^ name)
          in
          List.map
            (fun n ->
              let defs, network = concrete name ~n in
              let concrete_ms, lts =
                time_ms (fun () ->
                    let eng = Engine.create ~nat_bound:2 defs in
                    let compiled = Engine.compile ~budget:200_000 eng network in
                    Lts.explore ~max_states:200_000 ~compiled
                      (Engine.step_config eng) network)
              in
              let abstract_ms, r =
                time_ms (fun () ->
                    Abstraction.Counter.explore
                      fam.Abstraction.Family.fam ~n)
              in
              (* the inclusion that makes the quotient a sound verdict
                 carrier: α(concrete traces) ⊆ traces(abstract) *)
              let cfg =
                Step.config ~sampler:(Sampler.nat_bound 2) defs
              in
              let traces =
                Closure.to_traces (Step.traces cfg ~depth:sound_depth network)
              in
              let sound =
                List.for_all
                  (fun tr ->
                    Abstraction.Counter.accepts r.Abstraction.Counter.lts
                      (Abstraction.Family.abstract_trace fam tr))
                  traces
              in
              {
                p16_family = name;
                p16_n = n;
                p16_concrete_states = Lts.num_states lts;
                p16_concrete_complete = lts.Lts.complete;
                p16_concrete_ms = concrete_ms;
                p16_abstract_states = r.Abstraction.Counter.quotient_states;
                p16_collapses = r.Abstraction.Counter.omega_collapses;
                p16_abstract_ms = abstract_ms;
                p16_sound = sound;
              })
            sizes)
        cases
    in
    result "  %-12s %4s %10s %10s %9s %12s %8s\n" "family" "n" "concrete"
      "abstract" "collapse" "sound" "abs(ms)";
    List.iter
      (fun r ->
        result "  %-12s %4d %9d%s %10d %9d %12s %8.2f\n" r.p16_family r.p16_n
          r.p16_concrete_states
          (if r.p16_concrete_complete then "" else "+")
          r.p16_abstract_states r.p16_collapses (ok r.p16_sound)
          r.p16_abstract_ms)
      rows;
    (* one run certifying the ring for every n up to 32 *)
    let fam =
      match Abstraction.Family.find "token-ring" with
      | Some f -> f
      | None -> failwith "p16: no token-ring preset"
    in
    let check_formula = "n<=32" in
    let formula =
      match Abstraction.Formula.of_string check_formula with
      | Ok f -> f
      | Error m -> failwith ("p16: " ^ m)
    in
    let check_ms, outcome =
      time_ms (fun () ->
          Abstraction.Family.check_family ~depth:(if smoke then 6 else 8) fam
            ~formula)
    in
    let check_classes, check_certified =
      match outcome with
      | Ok o ->
        (List.length o.Abstraction.Family.classes,
         o.Abstraction.Family.certified)
      | Error m -> failwith ("p16: family check: " ^ m)
    in
    result "  ring for all %s: %d class(es), certified %s in %.1f ms\n"
      check_formula check_classes (ok check_certified) check_ms;
    (rows, check_formula, check_classes, check_certified, check_ms)
  in
  write_p16_json "BENCH_abstraction.json" rows ~check_model:"token-ring"
    ~check_formula ~check_classes ~check_certified ~check_ms ~counters;
  result "  wrote BENCH_abstraction.json\n"

(* ---------------------------------------------------------------------- *)
(* Part 2: Bechamel timing suites (P1–P6)                                  *)
(* ---------------------------------------------------------------------- *)

open Bechamel
open Toolkit

let make_tests () =
  let sampler = Sampler.nat_bound 2 in
  (* P1: closure operations *)
  let closure_of_copier depth =
    Step.traces (Step.config ~sampler Paper.Copier.defs) ~depth Paper.Copier.copier
  in
  let c5 = closure_of_copier 5 and c7 = closure_of_copier 7 in
  let p1 =
    Test.make_grouped ~name:"P1-closure"
      [
        Test.make ~name:"union(d7)" (Staged.stage (fun () -> Closure.union c7 c7));
        Test.make ~name:"hide(d7)"
          (Staged.stage (fun () ->
               Closure.hide (fun c -> Channel.base c = "wire") c7));
        Test.make ~name:"par(d5)"
          (Staged.stage (fun () ->
               Closure.par
                 ~in_x:(fun _ -> true)
                 ~in_y:(fun c -> Channel.base c = "wire")
                 c5 c5));
        Test.make ~name:"to_traces(d7)" (Staged.stage (fun () -> Closure.to_traces c7));
      ]
  in
  (* P2: denotational fixpoint, depth sweep *)
  let p2 =
    Test.make_indexed ~name:"P2-denote-copier" ~args:[ 3; 5; 7 ] (fun depth ->
        Staged.stage (fun () ->
            Denote.denote
              (Denote.config ~sampler Paper.Copier.defs)
              ~depth Paper.Copier.copier))
  in
  (* P3: operational enumeration, depth sweep on the protocol network *)
  let p3 =
    Test.make_indexed ~name:"P3-step-protocol" ~args:[ 3; 4; 5 ] (fun depth ->
        Staged.stage (fun () ->
            Step.traces
              (Step.config ~sampler Paper.Protocol.defs)
              ~depth Paper.Protocol.network))
  in
  (* P4: bounded sat-checking *)
  let p4 =
    Test.make_grouped ~name:"P4-satcheck"
      [
        Test.make ~name:"copier(d6)"
          (Staged.stage (fun () ->
               Sat.check ~depth:6
                 (Step.config ~sampler Paper.Copier.defs)
                 Paper.Copier.copier Paper.Copier.copier_spec));
        Test.make ~name:"protocol(d4)"
          (Staged.stage (fun () ->
               Sat.check ~depth:4
                 (Step.config ~sampler ~hide_fuel:8 Paper.Protocol.defs)
                 Paper.Protocol.protocol Paper.Protocol.protocol_spec));
      ]
  in
  (* P5: proof construction + checking *)
  let chain_test n =
    let defs, chain = Paper.Copier.chain_defs n in
    let stage_spec i =
      Assertion.Prefix
        ( Term.Chan (Chan_expr.indexed "c" (Expr.int i)),
          Term.Chan (Chan_expr.indexed "c" (Expr.int (i - 1))) )
    in
    let tables =
      Tactic.tables
        ~invariants:
          (List.init n (fun i ->
               (Paper.Copier.stage_name (i + 1), stage_spec (i + 1))))
        ()
    in
    let ctx = Sequent.context defs in
    fun () ->
      match
        Tactic.prove_and_check ~tables ctx
          (Sequent.Holds (chain, Paper.Copier.chain_spec n))
      with
      | Ok _ -> ()
      | Error m -> failwith m
  in
  let p5 =
    Test.make_grouped ~name:"P5-prove"
      [
        Test.make ~name:"copier"
          (Staged.stage (fun () ->
               Tactic.prove_and_check ~tables:Paper.Copier.tables
                 (Sequent.context Paper.Copier.defs)
                 (Sequent.Holds (Paper.Copier.copier, Paper.Copier.copier_spec))));
        Test.make ~name:"table1"
          (Staged.stage (fun () ->
               Tactic.prove_and_check ~tables:Paper.Protocol.tables
                 (Sequent.context Paper.Protocol.defs)
                 (Sequent.Holds (Paper.Protocol.sender, Paper.Protocol.sender_spec))));
        Test.make ~name:"chain4" (Staged.stage (chain_test 4));
        Test.make ~name:"chain8" (Staged.stage (chain_test 8));
      ]
  in
  (* P6: simulator throughput (1000 steps per run) *)
  let p6 =
    Test.make_grouped ~name:"P6-simulate"
      [
        Test.make ~name:"protocol-1000steps"
          (Staged.stage (fun () ->
               Runner.run
                 ~scheduler:(Scheduler.uniform ~seed:1)
                 ~max_steps:1000
                 (Step.config ~sampler Paper.Protocol.defs)
                 Paper.Protocol.protocol));
        Test.make ~name:"multiplier-1000steps"
          (Staged.stage (fun () ->
               let m = Paper.Multiplier.default in
               Runner.run
                 ~scheduler:(Scheduler.uniform ~seed:1)
                 ~max_steps:1000
                 (Step.config ~sampler m.Paper.Multiplier.defs)
                 m.Paper.Multiplier.multiplier));
      ]
  in
  let p7 =
    Test.make_grouped ~name:"P7-failures"
      [
        Test.make ~name:"receiver(d3)"
          (Staged.stage (fun () ->
               Failures.failures
                 (Step.config ~sampler Paper.Protocol.defs)
                 ~depth:3 Paper.Protocol.receiver));
        Test.make ~name:"lts-protocol"
          (Staged.stage (fun () ->
               Lts.explore ~max_states:500
                 (Step.config ~sampler Paper.Protocol.defs)
                 Paper.Protocol.protocol));
      ]
  in
  [ p1; p2; p3; p4; p5; p6; p7 ]

let run_timings () =
  section "P1-P7: timing (Bechamel, monotonic clock; ns per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, v) ->
             let est =
               match Analyze.OLS.estimates v with
               | Some [ e ] -> Printf.sprintf "%14.1f ns/run" e
               | _ -> "  (no estimate)"
             in
             result "  %-36s %s\n" name est))
    (make_tests ())

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "smoke" ->
    (* tiny sizes for the @bench-smoke alias: exercises the E11 driver
       and every P11–P16 leg with its JSON emitter in seconds *)
    e11_compositionality ~sizes:[ 1; 2; 3 ] ();
    p11_parallel ~smoke:true ();
    p12_obs_overhead ~smoke:true ();
    p13_compiled ~smoke:true ();
    p14_fuzz_coverage ~smoke:true ();
    p15_serve ~smoke:true ();
    p16_abstraction ~smoke:true ();
    print_newline ()
  | "p11" ->
    p11_parallel ();
    print_newline ()
  | "p12" | "obs" ->
    p12_obs_overhead ();
    print_newline ()
  | "p13" | "compiled" ->
    p13_compiled ();
    print_newline ()
  | "p14" | "fuzz" ->
    p14_fuzz_coverage ();
    print_newline ()
  | "p15" | "serve" ->
    p15_serve ();
    print_newline ()
  | "p16" | "abstraction" ->
    p16_abstraction ();
    print_newline ()
  | _ ->
    let quick = mode = "quick" in
    e1_copier ();
    e2_protocol ();
    e3_multiplier ();
    e4_model_theorems ();
    e5_op_vs_deno ();
    e6_soundness ();
    e7_partiality ();
    e8_nondet_defect ();
    e9_failures_extension ();
    e10_mutations ();
    e11_compositionality ();
    if not quick then begin
      a1_prover_ablation ();
      a2_closure_ablation ();
      p11_parallel ();
      p12_obs_overhead ();
      p13_compiled ();
      p14_fuzz_coverage ();
      p15_serve ();
      p16_abstraction ();
      run_timings ()
    end;
    print_newline ()
