(** Named sequence functions usable in assertions.

    §2.2 introduces a function [f] from wire histories to message
    sequences that cancels all [ACK]s and all consecutive pairs
    [⟨x, NACK⟩]; the protocol's correctness is stated through it.  An
    environment maps names to such functions so assertions can apply
    them with {!Term.App}.

    Besides its evaluator, a function carries its defining equations as
    data, so the prover can reason about an application without running
    it (Table 1's "def f" steps). *)

type guard =
  | Any                       (** any value *)
  | In of Csp_lang.Vset.t     (** a value of the set *)

type clause = {
  guards : guard list;
      (** one guard per matched head: the clause applies to
          [h1^…^hk^s] when each [hi] meets the [i]-th guard *)
  emit : int list;
      (** positions (0-based) of the heads the right-hand side re-emits,
          in order *)
  pass : int list;
      (** positions of the heads passed back to the function in front of
          the tail [s] *)
}
(** One defining equation
    [g(h1^…^hk^s) = e1^…^em^g(p1^…^pn^s)], where [e] are the heads at
    [emit] and [p] those at [pass].  Each clause holds on its own
    whenever its guards do, so any clause whose guards are met may be
    used; a clause with fewer [pass] than [guards] strictly shortens
    the argument. *)

type t = {
  name : string;
  doc : string;
  apply : Csp_trace.Value.t list -> Csp_trace.Value.t list;
      (** the evaluator *)
  equations : clause list;
      (** defining equations that agree with [apply]; [[]] when the
          function is opaque to the prover *)
}

type env

val empty_env : env
val register : t -> env -> env
val find : env -> string -> t option

val protocol_cancel : t
(** The paper's [f]:
    [f(⟨⟩) = ⟨⟩], [f(⟨x⟩) = ⟨⟩], [f(x^ACK^s) = x^f(s)],
    [f(x^NACK^s) = f(s)].  The paper only applies [f] to alternating
    wire histories; this implementation extends it to a total function
    by skipping unacknowledged data and stray signals, so it never
    emits [ACK] or [NACK].  Its clauses:
    - [f(a^s) = f(s)] for [a ∈ {ACK, NACK}];
    - [f(x^ACK^s) = x^f(s)] and [f(x^NACK^s) = f(s)] for [x ∈ NAT];
    - [f(x^y^s) = f(y^s)] for [x, y ∈ NAT]. *)

val identity : t
(** Clause: [id(x^s) = x^id(s)]. *)

val evens : t
(** Elements at odd 1-based positions dropped — i.e. the subsequence of
    2nd, 4th, … elements.  Useful for request/reply channels in tests
    and examples.  Clause: [evens(x^y^s) = y^evens(s)]. *)

val odds : t
(** The subsequence of 1st, 3rd, … elements.
    Clause: [odds(x^y^s) = x^odds(s)]. *)

val default_env : env
(** [f], [id], [odds], [evens]. *)

val to_list : env -> t list
(** The registered functions, in name order. *)
