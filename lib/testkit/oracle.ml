module Value = Csp_trace.Value
module Channel = Csp_trace.Channel
module Trace = Csp_trace.Trace
module History = Csp_trace.History
module Expr = Csp_lang.Expr
module Chan_set = Csp_lang.Chan_set
module Process = Csp_lang.Process
module Defs = Csp_lang.Defs
module Closure = Csp_semantics.Closure
module Closure_ref = Csp_semantics.Closure_ref
module Sampler = Csp_semantics.Sampler
module Step = Csp_semantics.Step
module Denote = Csp_semantics.Denote
module Equiv = Csp_semantics.Equiv
module Failures = Csp_semantics.Failures
module Lts = Csp_semantics.Lts
module Bisim = Csp_semantics.Bisim
module Term = Csp_assertion.Term
module Assertion = Csp_assertion.Assertion
module Sat = Csp_assertion.Sat
module Prover = Csp_assertion.Prover
module Sequent = Csp_proof.Sequent
module Tactic = Csp_proof.Tactic
module Obs = Csp_obs.Obs

type verdict = Pass | Fail of string
type t = { name : string; doc : string; check : Scenario.t -> verdict }

(* One engine per scenario: every oracle query below (operational
   traces, denotations, failures, LTS exploration, bisimulation) runs
   off the same configuration pair and shares its caches. *)
let depth = 4

let engine defs =
  Csp_semantics.Engine.create ~depth ~nat_bound:2 defs

let step_config defs = Csp_semantics.Engine.step_config (engine defs)
let denote_config defs = Csp_semantics.Engine.denote_config (engine defs)
let failf fmt = Format.kasprintf (fun m -> Fail m) fmt

(* A cancelled serve job unwinds through here: [Coop.Cancelled] is
   not a verdict. *)
let protect check s =
  try check s with
  | Csp_parallel.Coop.Cancelled as e -> raise e
  | e -> Fail ("uncaught exception: " ^ Printexc.to_string e)

(* Shortcut composition: run the checks in order, stop at the first
   failure. *)
let rec sequence = function
  | [] -> Pass
  | check :: rest -> (
    match check () with Pass -> sequence rest | Fail _ as f -> f)

(* The processes a scenario puts under test: [main] plus every
   definition (array definitions instantiated at both ends of their
   parameter domain). *)
let subjects (s : Scenario.t) =
  (s.Scenario.main, Scenario.process s)
  :: List.concat_map
       (fun n ->
         if String.equal n s.Scenario.main then []
         else
           match Defs.lookup s.Scenario.defs n with
           | Some { Defs.param = Some _; _ } ->
             [
               (n ^ "[0]", Process.Ref (n, Some (Expr.int 0)));
               (n ^ "[1]", Process.Ref (n, Some (Expr.int 1)));
             ]
           | _ -> [ (n, Process.ref_ n) ])
       (Defs.names s.Scenario.defs)

(* ---- oracle 1: hash-consed kernel vs reference trie ------------------ *)

(* Each subject's bounded trace closure is mirrored into the unshared
   reference representation, and every operation of the memoised kernel
   is replayed against its executable specification. *)

let agree what c r =
  if Closure_ref.equal (Closure_ref.of_closure c) r then Pass
  else failf "closure kernel: %s disagrees with Closure_ref" what

let closure_kernel_check (s : Scenario.t) =
  let cfg = step_config s.Scenario.defs in
  let pairs =
    List.map
      (fun (label, p) ->
        let c = Step.traces cfg ~depth p in
        (label, c, Closure_ref.of_closure c))
      (subjects s)
  in
  let per_subject (label, c, r) () =
    let in_a ch = String.equal (Channel.base ch) "a" in
    sequence
      [
        (fun () ->
          if
            List.sort Trace.compare (Closure.to_traces c)
            = List.sort Trace.compare (Closure_ref.to_traces r)
          then Pass
          else failf "%s: to_traces differ" label);
        (fun () ->
          if Closure.cardinal c = Closure_ref.cardinal r then Pass
          else
            failf "%s: cardinal %d (kernel) vs %d (ref)" label
              (Closure.cardinal c) (Closure_ref.cardinal r));
        (fun () ->
          if Closure.depth c = Closure_ref.depth r then Pass
          else
            failf "%s: depth %d (kernel) vs %d (ref)" label (Closure.depth c)
              (Closure_ref.depth r));
        (fun () ->
          let rec truncations k =
            if k > depth then Pass
            else
              match
                agree
                  (Printf.sprintf "%s: truncate %d" label k)
                  (Closure.truncate k c)
                  (Closure_ref.truncate k r)
              with
              | Pass -> truncations (k + 1)
              | Fail _ as f -> f
          in
          truncations 0);
        (fun () ->
          agree (label ^ ": hide {a}") (Closure.hide in_a c)
            (Closure_ref.hide in_a r));
        (fun () ->
          let count = Closure.fold_traces (fun _ n -> n + 1) c 0 in
          if count = Closure.cardinal c then Pass
          else failf "%s: fold_traces visits %d of %d" label count
              (Closure.cardinal c));
        (fun () ->
          let members = Closure.to_traces c in
          if
            List.for_all
              (fun t -> Closure.mem t c && Closure_ref.mem t r)
              members
          then
            agree (label ^ ": of_traces rebuild")
              (Closure.of_traces members)
              (Closure_ref.of_traces members)
          else failf "%s: a member trace fails mem" label);
      ]
  in
  let cross (la, ca, ra) (lb, cb, rb) () =
    let tag op = Printf.sprintf "%s %s %s" la op lb in
    sequence
      [
        (fun () -> agree (tag "union") (Closure.union ca cb)
            (Closure_ref.union ra rb));
        (fun () -> agree (tag "inter") (Closure.inter ca cb)
            (Closure_ref.inter ra rb));
        (fun () ->
          if Closure.subset ca cb = Closure_ref.subset ra rb then Pass
          else failf "%s: subset disagrees" (tag "subset"));
        (fun () ->
          (* hash-consing canonicity: pointer equality ⇔ set equality,
             and ids are in bijection with sets *)
          let canonical = Closure.equal ca cb
          and semantic = Closure_ref.equal ra rb in
          if canonical <> semantic then
            failf "%s: Closure.equal %b but Closure_ref.equal %b" la
              canonical semantic
          else if (Closure.id ca = Closure.id cb) <> canonical then
            failf "%s: id bijection broken" la
          else Pass);
        (fun () ->
          match Closure.first_difference ca cb with
          | None ->
            if Closure_ref.equal ra rb then Pass
            else failf "%s: first_difference None on unequal closures" la
          | Some w ->
            if Closure.mem w ca <> Closure.mem w cb then Pass
            else failf "%s: witness %s is in both or neither" la
                (Trace.to_string w));
      ]
  in
  let head = List.hd pairs in
  let pairwise = List.map (fun p -> cross head p) (List.tl pairs) in
  let union_all () =
    let cs = List.map (fun (_, c, _) -> c) pairs
    and rs = List.map (fun (_, _, r) -> r) pairs in
    agree "union_all" (Closure.union_all cs) (Closure_ref.union_all rs)
  in
  let par () =
    match pairs with
    | (_, ca, ra) :: (_, cb, rb) :: _ ->
      let in_x ch =
        List.exists (fun e -> Channel.equal e.Csp_trace.Event.chan ch)
          (Closure.events ca)
      and in_y ch =
        List.exists (fun e -> Channel.equal e.Csp_trace.Event.chan ch)
          (Closure.events cb)
      in
      agree "par" (Closure.par ~in_x ~in_y ca cb)
        (Closure_ref.par ~in_x ~in_y ra rb)
    | _ -> Pass
  in
  let interleave () =
    let _, c, _ = head in
    let small = Closure.truncate 2 c in
    let events =
      match Closure.events small with e :: _ -> [ e ] | [] -> []
    in
    agree "interleave"
      (Closure.interleave ~events ~extra:1 small)
      (Closure_ref.interleave ~events ~extra:1
         (Closure_ref.of_closure small))
  in
  sequence
    (List.map per_subject pairs
    @ pairwise
    @ [ union_all; par; interleave ])

(* ---- oracle 2: operational vs denotational --------------------------- *)

let op_vs_deno_check (s : Scenario.t) =
  let eng = engine s.Scenario.defs in
  let scfg = Csp_semantics.Engine.step_config eng
  and dcfg = Csp_semantics.Engine.denote_config eng in
  sequence
    (List.map
       (fun (label, p) () ->
         let o = Step.traces scfg ~depth p
         and d = Denote.denote dcfg ~depth p in
         if Closure.equal o d then Pass
         else
           let witness =
             match Closure.first_difference o d with
             | Some w ->
               Printf.sprintf "%s (%s only)" (Trace.to_string w)
                 (if Closure.mem w o then "operational" else "denotational")
             | None -> "no witness (first_difference is broken too)"
           in
           failf "%s: operational and denotational traces differ on %s"
             label witness)
       (subjects s))

(* ---- oracle 3: trace / failures / bisimulation coherence ------------- *)

let refinement_check (s : Scenario.t) =
  let eng = engine s.Scenario.defs in
  let cfg = Csp_semantics.Engine.step_config eng in
  let dcfg = Csp_semantics.Engine.denote_config eng in
  let p = Scenario.process s in
  let alt =
    match
      List.filter
        (fun (label, _) -> not (String.equal label s.Scenario.main))
        (subjects s)
    with
    | (_, q) :: _ -> q
    | [] -> Process.Stop
  in
  let q = Process.Choice (p, alt) in
  let tp = Step.traces cfg ~depth p
  and talt = Step.traces cfg ~depth alt
  and tq = Step.traces cfg ~depth q in
  let fp = Failures.failures ~choice:`Internal cfg ~depth p
  and fq = Failures.failures ~choice:`Internal cfg ~depth q in
  sequence
    [
      (fun () ->
        if Closure.equal tq (Closure.union tp talt) then Pass
        else Fail "traces(P|Q) is not traces(P) ∪ traces(Q)");
      (fun () ->
        if Closure.subset tp tq then Pass
        else Fail "traces(P) ⊄ traces(P|Q)");
      (fun () ->
        match Equiv.trace_refines ~depth cfg ~impl:p ~spec:q with
        | Ok () -> Pass
        | Error w ->
          failf "P does not trace-refine P|Q: witness %s" (Trace.to_string w));
      (fun () ->
        if Failures.refines fp fp then Pass
        else Fail "failures refinement is not reflexive");
      (fun () ->
        if Failures.refines fp fq then Pass
        else Fail "P does not failures-refine P|Q under the internal reading");
      (fun () ->
        (* failures refinement must imply trace refinement *)
        if not (Failures.refines fq fp) then Pass
        else
          match Equiv.trace_refines ~depth cfg ~impl:q ~spec:p with
          | Ok () -> Pass
          | Error w ->
            failf
              "P|Q failures-refines P but not trace-refines it: witness %s"
              (Trace.to_string w));
      (fun () ->
        (* strong bisimilarity is reflexive and implies trace equality;
           only meaningful when the bounded exploration completes *)
        let lp = Lts.explore cfg p and lq = Lts.explore cfg q in
        if not (lp.Lts.complete && lq.Lts.complete) then Pass
        else if not (Bisim.equivalent cfg p p) then
          Fail "P is not strongly bisimilar to itself"
        else if Bisim.equivalent cfg p q && not (Closure.equal tp tq) then
          Fail "P ~ P|Q by bisimulation but their trace sets differ"
        else Pass);
      (fun () ->
        if Equiv.stop_choice_identity ~depth dcfg p then Pass
        else Fail "denotationally STOP | P ≠ P (§4 identity broken)");
      (fun () ->
        let distinguished =
          Failures.distinguishes_stop_choice cfg ~depth p
        and immediate_deadlock =
          Failures.can_deadlock ~choice:`Internal cfg ~depth p = Some []
        in
        if distinguished = not immediate_deadlock then Pass
        else
          failf
            "failures model: distinguishes_stop_choice=%b but immediate \
             deadlock=%b"
            distinguished immediate_deadlock);
    ]

(* ---- oracle 4: prover soundness vs bounded enumeration ---------------- *)

(* Deterministic candidate specifications over the channels the
   scenario can touch: the templates of the paper's own proofs
   ([c ≤ d] prefix claims and [#c ≤ #d + k] counting claims). *)
let candidate_assertions (s : Scenario.t) =
  let chans =
    List.sort_uniq String.compare
      (Defs.channel_bases s.Scenario.defs (Scenario.process s))
  in
  let chans = List.filteri (fun i _ -> i < 3) chans in
  let prefix_claims =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun d ->
            if String.equal c d then None
            else Some (Assertion.prefix_le (Term.chan c) (Term.chan d)))
          chans)
      chans
  in
  let count_claims =
    match chans with
    | c :: d :: _ ->
      List.map
        (fun k ->
          Assertion.Cmp
            ( Assertion.Le,
              Term.Len (Term.chan c),
              Term.Add (Term.Len (Term.chan d), Term.int k) ))
        [ 0; 1 ]
    | _ -> []
  in
  let all = (Assertion.True :: prefix_claims) @ count_claims in
  List.filteri (fun i _ -> i < 8) all

(* a cheaper prover budget than the default: the oracle runs on
   hundreds of scenarios per fuzz pass *)
let prover_config =
  {
    Prover.default_config with
    Prover.max_cases = 2000;
    Prover.random_trials = 50;
  }

let prover_sound_check (s : Scenario.t) =
  let cfg = step_config s.Scenario.defs in
  let p = Scenario.process s in
  let ctx = Sequent.context s.Scenario.defs in
  let check_candidate r () =
    let outcome = Sat.check ~depth cfg p r in
    sequence
      [
        (fun () ->
          (* a Sat refutation must be a genuine trace of P on which R
             evaluates false *)
          match outcome with
          | Sat.Holds _ -> Pass
          | Sat.Fails { trace } ->
            if not (Step.accepts_trace cfg p trace) then
              failf "Sat counterexample %s is not a trace of %s"
                (Trace.to_string trace) s.Scenario.main
            else (
              let tctx = Term.ctx ~hist:(History.of_trace trace) () in
              match Assertion.eval tctx r with
              | false -> Pass
              | true ->
                failf "Sat counterexample %s actually satisfies %s"
                  (Trace.to_string trace)
                  (Assertion.to_string r)
              | exception Term.Eval_error _ -> Pass));
        (fun () ->
          (* anything the proof system certifies must survive bounded
             enumeration *)
          let tables =
            Tactic.tables ~invariants:[ (s.Scenario.main, r) ] ()
          in
          match
            Tactic.prove_and_check ~tables ~config:prover_config ctx
              (Sequent.Holds (p, r))
          with
          | Error _ -> Pass (* the tactic may fail; only success binds *)
          | Ok _ -> (
            match outcome with
            | Sat.Holds _ -> Pass
            | Sat.Fails { trace } ->
              failf "PROVED %s sat %s, but trace %s refutes it"
                s.Scenario.main
                (Assertion.to_string r)
                (Trace.to_string trace)));
      ]
  in
  sequence (List.map check_candidate (candidate_assertions s))

(* ---- oracle 5: choreography projection soundness ---------------------- *)

(* A deterministic choreography is derived from each scenario (the
   scenario text seeds the walk, so replaying a corpus entry replays
   the same choreography).  The projected network must be
   deadlock-free with traces exactly the global interaction
   sequence's — the deadlock-freedom-by-construction claim of the
   choreography literature, checked against the interpreted AND the
   compiled engine. *)

let choreo_seed (s : Scenario.t) =
  let text = Scenario.to_csp s in
  let h = ref 5381 in
  String.iter (fun c -> h := (((!h lsl 5) + !h) + Char.code c) land 0x3fffffff) text;
  !h

let choreo_refine_check (s : Scenario.t) =
  let seed = choreo_seed s in
  let roles = 2 + (seed mod 2) in
  let length = 2 + (seed / 7 mod 3) in
  let c = Csp.Models.Choreo.generate ~roles ~length ~seed in
  let defs = c.Csp.Models.Choreo.defs in
  let network = c.Csp.Models.Choreo.network in
  let global = c.Csp.Models.Choreo.global in
  let cfg = step_config defs in
  sequence
    [
      (fun () ->
        if
          Closure.equal
            (Step.traces cfg ~depth network)
            (Step.traces cfg ~depth global)
        then Pass
        else
          failf "choreography (roles=%d length=%d seed=%d): projected \
                 network and global traces differ"
            roles length seed);
      (fun () ->
        match Equiv.trace_refines ~depth cfg ~impl:network ~spec:global with
        | Ok () -> Pass
        | Error w ->
          failf "projection unsound: network trace %s not global"
            (Trace.to_string w));
      (fun () ->
        match Equiv.trace_refines ~depth cfg ~impl:global ~spec:network with
        | Ok () -> Pass
        | Error w ->
          failf "projection incomplete: global trace %s not in network"
            (Trace.to_string w));
      (fun () ->
        let lts = Lts.explore cfg network in
        if not lts.Lts.complete then
          failf "choreography network exploration truncated"
        else
          match Lts.deadlock_states lts with
          | [] -> Pass
          | d ->
            failf "deadlock-free-by-construction violated: %d deadlock \
                   state(s)"
              (List.length d));
      (fun () ->
        let seq = Lts.explore cfg network in
        let compiled = Csp_semantics.Compiled.compile cfg network in
        let com = Lts.explore ~compiled cfg network in
        if String.equal (Lts.to_dot com) (Lts.to_dot seq) then Pass
        else failf "compiled and interpreted exploration differ on the \
                    choreography network");
    ]

(* ---- oracle 6: abstraction soundness ----------------------------------- *)

module Chanabs = Csp.Abstraction.Chanabs
module Counter = Csp.Abstraction.Counter
module Family = Csp.Abstraction.Family
module Formula = Csp.Abstraction.Formula

(* enumeration bound for the transformers, matching the engine's
   [nat_bound 2]: the transformed process must offer at least the
   values the concrete sampler can produce *)
let abs_bound = 2

(* Leg 1/2 — channel abstractions on the scenario itself: erasing or
   value-projecting a channel must over-approximate, i.e. the image of
   every bounded concrete trace is a trace of the transformed process.
   Transformer failures (unguarded erasure, inexact projection) only
   skip the leg: soundness is claimed for the Ok/exact fragment. *)
let transformer_sound_check (s : Scenario.t) =
  let defs = s.Scenario.defs in
  let p = Scenario.process s in
  let cfg = step_config defs in
  let traces = Closure.to_traces (Step.traces cfg ~depth p) in
  match List.sort_uniq String.compare (Defs.channel_bases defs p) with
  | [] -> Pass
  | base :: _ ->
    sequence
      [
        (fun () ->
          match
            Chanabs.ignore_bases ~bases:[ base ] ~bound:abs_bound defs p
          with
          | Error _ -> Pass
          | Ok (defs', p') ->
            let cfg' = step_config defs' in
            (match
               List.find_opt
                 (fun tr ->
                   not
                     (Step.accepts_trace cfg' p'
                        (Chanabs.erase_trace ~bases:[ base ] tr)))
                 traces
             with
            | None -> Pass
            | Some tr ->
              failf
                "ignore %s: erased concrete trace %s escapes the abstraction"
                base (Trace.to_string tr)));
        (fun () ->
          let f = Chanabs.cap_value 1 in
          match
            Chanabs.project ~base ~f
              ~dom:[ Value.Int 0; Value.Int 1 ]
              ~bound:abs_bound defs p
          with
          | Error _ -> Pass
          | Ok { Chanabs.defs = defs'; proc = p'; exact } ->
            if not exact then Pass
            else
              let cfg' = step_config defs' in
              (match
                 List.find_opt
                   (fun tr ->
                     not
                       (Step.accepts_trace cfg' p'
                          (Chanabs.map_trace ~base ~f tr)))
                   traces
               with
              | None -> Pass
              | Some tr ->
                failf
                  "project %s through cap 1: mapped concrete trace %s \
                   escapes the exact projection"
                  base (Trace.to_string tr)));
      ]

(* Leg 3/4 — counter-abstract families against their concrete models.
   The scenario seed picks the (family, n) pair, so a fuzz campaign
   covers the whole grid; the check is deliberately NOT memoised
   across cases — coverage features are per-case Obs counter deltas,
   and a process-global cache would make them depend on scheduling
   order.  The instances are small enough (≤ 20 abstract states) that
   recomputing is cheap. *)
let concrete_instance (fam : Family.t) ~n =
  match fam.Family.fam.Counter.name with
  | "token-ring" ->
    let m = Csp.Models.Token_ring.make ~n in
    (m.Csp.Models.Token_ring.defs, m.Csp.Models.Token_ring.network)
  | "leader" ->
    let m = Csp.Models.Leader.make ~n in
    (m.Csp.Models.Leader.defs, m.Csp.Models.Leader.network)
  | "workers" ->
    let m = Csp.Models.Workers.make ~n in
    (m.Csp.Models.Workers.defs, m.Csp.Models.Workers.network)
  | other -> invalid_arg ("no concrete instance for family " ^ other)

let family_sound_at (fam : Family.t) ~n =
  let name = fam.Family.fam.Counter.name in
      let defs, network = concrete_instance fam ~n in
      let cfg = step_config defs in
      let traces = Closure.to_traces (Step.traces cfg ~depth network) in
      let accepts =
        Counter.accepts (Counter.explore fam.Family.fam ~n).Counter.graph
      in
      match
        List.find_opt
          (fun tr -> not (accepts (Family.abstract_trace fam tr)))
          traces
      with
      | Some tr ->
        failf "family %s n=%d: erased concrete trace %s escapes the \
               abstract LTS"
          name n (Trace.to_string tr)
      | None -> (
        (* a certified family verdict must transfer to the instance:
           every erased concrete trace satisfies the invariants *)
        let formula =
          match
            Formula.of_string (Printf.sprintf "%s<=%d" fam.Family.param n)
          with
          | Ok f -> f
          | Error m -> invalid_arg m
        in
        match Family.check_family ~depth fam ~formula with
        | Error m -> failf "family %s: check_family: %s" name m
        | Ok o ->
          if not o.Family.certified then
            failf
              "family %s: %s<=%d not certified though the invariants hold \
               concretely"
              name fam.Family.param n
          else
            let violation =
              List.find_map
                (fun tr ->
                  let etr = Family.abstract_trace fam tr in
                  let tctx = Term.ctx ~hist:(History.of_trace etr) () in
                  List.find_map
                    (fun (iname, a) ->
                      match Assertion.eval tctx a with
                      | true -> None
                      | false -> Some (tr, iname)
                      | exception Term.Eval_error _ -> None)
                    fam.Family.invariants)
                traces
            in
            (match violation with
            | None -> Pass
            | Some (tr, iname) ->
              failf
                "family %s n=%d: certified %s, but concrete trace %s \
                 violates it after erasure"
                name n iname (Trace.to_string tr)))

let abstract_sound_check (s : Scenario.t) =
  let seed = choreo_seed s in
  let fam =
    match seed mod 3 with
    | 0 -> Family.token_ring
    | 1 -> Family.leader
    | _ -> Family.workers
  in
  let n = 2 + (seed / 3 mod 3) in
  sequence
    [ (fun () -> transformer_sound_check s); (fun () -> family_sound_at fam ~n) ]

(* ---- registry --------------------------------------------------------- *)

(* Every oracle invocation — fuzzing, corpus replay, direct calls from
   tests — counts itself, so a fuzz campaign's coverage is visible in
   [Obs.snapshot] as [oracle.<name>.cases]/[.pass]/[.fail] rather than
   only in a per-run report.  The verdict is computed inside a span so
   traces show where a campaign's wall-clock goes, per oracle. *)
let make name doc check =
  let cases = Obs.Counter.make ("oracle." ^ name ^ ".cases")
  and passed = Obs.Counter.make ("oracle." ^ name ^ ".pass")
  and failed = Obs.Counter.make ("oracle." ^ name ^ ".fail") in
  let counted s =
    Obs.Counter.incr cases;
    match Obs.span ~cat:"fuzz" ("oracle:" ^ name) (fun () -> protect check s) with
    | Pass ->
      Obs.Counter.incr passed;
      Pass
    | Fail _ as f ->
      Obs.Counter.incr failed;
      f
  in
  { name; doc; check = counted }

let cases_run o = Obs.Counter.get (Obs.Counter.make ("oracle." ^ o.name ^ ".cases"))

let closure_kernel =
  make "closure-kernel"
    "hash-consed Closure operations agree with the Closure_ref \
     executable specification"
    closure_kernel_check

let op_vs_deno =
  make "op-vs-deno"
    "Step.traces and Denote.denote compute the same prefix closure up \
     to the depth bound"
    op_vs_deno_check

let refinement =
  make "refinement"
    "trace, failures and bisimulation views cohere (choice is union, \
     failures refinement implies trace refinement, §4 identities)"
    refinement_check

let prover_sound =
  make "prover-sound"
    "anything the proof system certifies is never refuted by bounded \
     trace enumeration, and Sat counterexamples are genuine"
    prover_sound_check

let choreo_refine =
  make "choreo-refine"
    "a choreography derived from the scenario projects to a \
     deadlock-free network trace-equivalent to its global process, \
     interpreted and compiled alike"
    choreo_refine_check

let abstract_sound =
  make "abstract-sound"
    "channel and counter abstractions over-approximate: the erased or \
     value-projected image of every bounded concrete trace is a trace \
     of the abstract process/LTS, and family-certified invariants hold \
     on concrete instances"
    abstract_sound_check

let all =
  [
    closure_kernel;
    op_vs_deno;
    refinement;
    prover_sound;
    choreo_refine;
    abstract_sound;
  ]
let find name = List.find_opt (fun o -> String.equal o.name name) all
let names () = List.map (fun o -> o.name) all
