(** Discharge of semantic proof obligations.

    The inference rules of §2.1 generate side conditions such as
    [⊢ R_<>] (emptiness, output, input) and [R ⇒ S] (consequence) —
    formulas of the assertion logic that must hold for {e all} channel
    histories and variable values.  The logic is undecidable, so the
    prover layers three strategies and reports which one succeeded:

    + {b evaluation} — the goal is ground: evaluate it (exact);
    + {b syntactic rules} — reflexivity, ⟨⟩-least, cons-monotonicity,
      hypothesis matching, transitivity through a hypothesis,
      ∧/⇒/∀ decomposition, and unfolding of a sequence function applied
      to a cons by its defining equations ({!Afun.clause}), a clause's
      guards decided by constants and the enclosing ∀ ranges (exact);
    + {b bounded testing} — enumerate histories over a finite message
      alphabet up to a length bound, then random longer ones; a failure
      refutes the goal definitively; survival yields [Unknown] with the
      number of cases tested.

    The proof checker accepts obligations with verdict [Proved] or
    [Unknown] (reporting the evidence level) and rejects [Refuted]. *)

type goal = { hyps : Assertion.t list; concl : Assertion.t }

type verdict =
  | Proved of string
      (** the string names the strategy, e.g. ["prefix reflexivity"] *)
  | Refuted of {
      rho : Csp_lang.Valuation.t;
      hist : Csp_trace.History.t;
    }
  | Unknown of { cases : int }

type config = {
  funs : Afun.env;
  alphabet : Csp_trace.Value.t list;
      (** messages used when enumerating candidate histories *)
  max_len : int;      (** exhaustive history length bound *)
  max_cases : int;    (** cap on the exhaustive product *)
  random_trials : int;
  random_len : int;
  nat_bound : int;
  seed : int;
  syntactic_phase : bool;
      (** disable to fall straight through to testing — used by the
          ablation benchmarks to measure what the exact rules buy *)
}

val default_config : config
(** alphabet [{0, 1, ACK, NACK}], [max_len = 3], [max_cases = 20000],
    [random_trials = 200], [random_len = 8], [nat_bound = 16],
    [seed = 42]. *)

val goal : ?hyps:Assertion.t list -> Assertion.t -> goal
val prove : ?config:config -> goal -> verdict
val verdict_ok : verdict -> bool
(** [true] for [Proved] and [Unknown] — i.e. not refuted. *)

val pp_verdict : Format.formatter -> verdict -> unit
