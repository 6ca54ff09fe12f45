(** Denotational semantics (§3.2): a process denotes a prefix closure.

    Recursive definitions are interpreted as least fixpoints computed
    through the paper's chain of approximations

    {v a₀ = ⟦STOP⟧,   aᵢ₊₁ = ⟦P⟧[aᵢ/p],   ⟦p ≜ P⟧ = ⋃ᵢ aᵢ v}

    Every result is truncated at a requested trace depth, which makes
    the union finite: for well-guarded definitions, [iterations ≥ depth]
    approximations determine all traces of length ≤ [depth] exactly.

    The chain is iterated with *early convergence*: each level records
    the approximation of every definition it demands, and iteration
    stops as soon as a level reproduces the previous one — detected in
    O(1) per definition, since hash-consed closures compare by pointer.
    Guarded bodies add one event per guard and level, so chains
    typically stabilise well before the worst-case
    [depth + hide_extra + 1] rounds.

    Hiding needs look-ahead: to know the visible traces of [chan L; P]
    up to depth [d] one must explore [P] beyond depth [d].  The
    [hide_extra] budget says how much deeper; it is the one genuine
    approximation in this model (a retransmission protocol can perform
    arbitrarily many hidden events per visible one). *)

module Eval_tbl : Hashtbl.S with type key = int * int * int

type config = {
  defs : Csp_lang.Defs.t;
  sampler : Sampler.t;
  hide_extra : int;
  ref_memo : (string * string option * int * int, Closure.t) Hashtbl.t;
      (** [(name, arg, depth, env generation) → approximation]: process
          references hit cache across the chain and across repeated
          denotations under the same config. *)
  eval_memo : Closure.t Eval_tbl.t;
      (** [(env generation, depth, node id) → evaluation]: hash-consed
          ({!Csp_lang.Proc}) states recurring across approximation
          levels and sampled input values evaluate once per level. *)
  mutable generation : int;
      (** Fresh generation per environment level; keys both memos. *)
}

val config :
  ?sampler:Sampler.t -> ?hide_extra:int -> Csp_lang.Defs.t -> config
(** Defaults: {!Sampler.default}, [hide_extra = 8]. *)

val denote : ?iterations:int -> config -> depth:int -> Csp_lang.Process.t -> Closure.t
(** Traces of length ≤ [depth].  By default the approximation chain
    stops at convergence (bounded by [depth + hide_extra + 1] rounds,
    exact for well-guarded definitions whose hiding does not occur
    inside recursive bodies).  An explicit [iterations] runs exactly
    that many rounds with no convergence check — the reference
    behaviour the regression tests compare against. *)

val approximations :
  config -> depth:int -> n:int -> Csp_lang.Process.t -> Closure.t list
(** The chain [⟦P⟧ under a₀, …, ⟦P⟧ under aₙ] — an ascending chain of
    closures whose union {!denote} computes.  Levels past convergence
    are shared physically rather than recomputed. *)

type stats = { eval_hits : int; eval_misses : int }

val stats : unit -> stats
(** Global [eval_memo] counters since program start, summed over every
    configuration. *)
