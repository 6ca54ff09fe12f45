(** Public facade: one module to open for the whole library.

    The paper's formal apparatus lives in the underlying libraries
    ([csp_trace], [csp_lang], [csp_semantics], [csp_assertion],
    [csp_proof], [csp_sim]); this module re-exports each component
    under one roof, together with the paper's worked examples
    ({!Paper}). *)

(* Trace substrate (§1, §3.1) *)
module Value = Csp_trace.Value
module Channel = Csp_trace.Channel
module Event = Csp_trace.Event
module Trace = Csp_trace.Trace
module History = Csp_trace.History
module Seq_ops = Csp_trace.Seq_ops

(* Process language (§1.1, §1.2) *)
module Vset = Csp_lang.Vset
module Expr = Csp_lang.Expr
module Chan_expr = Csp_lang.Chan_expr
module Chan_set = Csp_lang.Chan_set
module Valuation = Csp_lang.Valuation
module Process = Csp_lang.Process
module Defs = Csp_lang.Defs
module Mutate = Csp_lang.Mutate

(* Process IR *)
module Proc = Csp_lang.Proc

(* Semantics (§3) *)
module Closure = Csp_semantics.Closure
module Closure_ref = Csp_semantics.Closure_ref
module Sampler = Csp_semantics.Sampler
module Engine = Csp_semantics.Engine
module Step = Csp_semantics.Step
module Denote = Csp_semantics.Denote
module Equiv = Csp_semantics.Equiv
module Failures = Csp_semantics.Failures
module Lts = Csp_semantics.Lts
module Dot = Csp_semantics.Dot
module Bisim = Csp_semantics.Bisim
module Compiled = Csp_semantics.Compiled

(* Assertions (§2) *)
module Afun = Csp_assertion.Afun
module Term = Csp_assertion.Term
module Assertion = Csp_assertion.Assertion
module Sat = Csp_assertion.Sat
module Prover = Csp_assertion.Prover

(* Proof system (§2.1) *)
module Sequent = Csp_proof.Sequent
module Proof = Csp_proof.Proof
module Check = Csp_proof.Check
module Tactic = Csp_proof.Tactic
module Infer = Csp_proof.Infer
module Cert = Csp_proof.Cert

(* Parameterised-family verification (counter abstraction, channel
   abstractions, assumption formulae) *)
module Abstraction = Csp_abstraction

(* Parallel execution substrate *)
module Pool = Csp_parallel.Pool

(* Observability *)
module Obs = Csp_obs.Obs

(* Execution *)
module Scheduler = Csp_sim.Scheduler
module Runner = Csp_sim.Runner
module Stats = Csp_sim.Stats

(* The paper's systems, and the protocol library grown around them *)
module Paper = Paper
module Models = Models
