(** Counter abstraction: one bounded abstract LTS for a whole replica
    family.

    A {!family} is a parameterised network of identical sequential
    replicas (plus an optional distinguished context process, e.g. the
    token-holding station), described by {e index-erased} templates:
    channels carry base names only, so replicas are interchangeable.
    The abstraction quotients the interned-IR product state by the
    {b multiset of replica local states}: an abstract state records,
    for each distinct local state (a hash-consed {!Csp_lang.Proc}
    node), how many replicas currently occupy it — with counts capped
    at a cutoff [c], above which they collapse to ω ("more than c").
    Token ring, leader election or dining philosophers at {e any} n
    then map into one abstract state space whose size is independent
    of n.

    Transitions: a replica (or the context) may take any local step.
    Steps on channels listed in [sync_bases] are pairwise rendezvous —
    an output offer and an input offer of the same event from two
    distinct participants (two different local states, one local state
    occupied at least twice, or the context and a replica) fire
    together; every other channel is a solo step.  Decrementing ω is
    resolved nondeterministically to ω or to the exact cutoff, and
    incrementing past the cutoff saturates to ω — both choices keep
    the abstraction an {e over-approximation}: writing [α] for the
    event map that forgets indices (the family's own erasure), every
    α-image of a trace of the concrete instance is a trace of the
    abstract LTS, for every n.  The converse may fail; the
    [abstract-sound] oracle checks the inclusion against small
    concrete instances.

    The quotient runs on the state-vector walk
    ({!Csp_semantics.Walk}), the loop every concrete state space runs
    on.  An abstract state is a vector: the context's local state, then
    one count per local state the templates reach, ω written as
    [cutoff + 1].  The result is the walk's {!Csp_semantics.Dot.graph},
    rendered by [Dot.render]; the [legend] maps local-state numbers,
    assigned in discovery order, back to process terms. *)

type family = {
  name : string;
  context : Csp_lang.Process.t option;
      (** distinguished n-independent participant, if any *)
  replicas : (string * Csp_lang.Process.t * (int -> int)) list;
      (** (class label, index-erased sequential template,
          replica count as a function of the family parameter n) *)
  defs : Csp_lang.Defs.t;
      (** definitions closing the templates; must be index-erased,
          closed and sequential (no [Par]/[Hide]) *)
  sync_bases : string list;
      (** channels communicated pairwise between participants;
          everything else is a solo step *)
  cutoff : int;  (** counter cap [c ≥ 1]; counts above collapse to ω *)
}

type result = {
  graph : Csp_semantics.Dot.graph;
      (** the quotient: abstract states in BFS discovery order, all
          moves visible *)
  legend : (int * Csp_lang.Process.t) list;
      (** local-state number → process term, in discovery order *)
  omega_collapses : int;
      (** count increments that saturated at the cutoff *)
}

val explore :
  ?max_states:int ->
  ?bound:int ->
  ?unfold_fuel:int ->
  family ->
  n:int ->
  result
(** Breadth-first exploration of the abstract state space at family
    parameter [n] (defaults: [max_states = 4000], value-enumeration
    [bound = 2], [unfold_fuel = 64]).  Deterministic: state numbering
    and the legend follow BFS discovery order.  The initial state is
    always explored, whatever [max_states].  Telemetry:
    [abstraction.quotient_states] (states explored) and
    [abstraction.collapses].
    @raise Invalid_argument if a template is not sequential or the
    templates reach more than 4096 local states.
    @raise Csp_semantics.Step.Unproductive on unguarded templates. *)

val initial_signature : family -> n:int -> string
(** Canonical rendering of the abstract initial state at [n] (within
    one process: it names local states by intern id).  Because
    abstract successors are a function of the abstract state alone,
    equal signatures imply identical abstract LTSs — the basis for
    discharging one obligation per assignment class. *)

val accepts : Csp_semantics.Dot.graph -> Csp_trace.Trace.t -> bool
(** NFA-style membership: is the trace a visible behaviour of the
    (explored part of the) graph?  Hidden transitions are followed
    silently.  Conservative on truncated explorations: a trace leaving
    the explored region through a truncated state is accepted.
    [accepts g] indexes [g]'s rows once; apply it to many traces. *)

val visible_traces : Csp_semantics.Dot.graph -> depth:int -> Csp_trace.Trace.t list
(** Every visible trace of length ≤ [depth], deduplicated and sorted;
    prefix-closed by construction.  Hidden transitions do not consume
    depth. *)
