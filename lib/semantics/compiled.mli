(** Compiled successor engine: a network's automaton over state
    vectors.

    Every other pipeline {e interprets} the interned Proc IR per
    transition: each successor query is a hashtable probe of
    [Step.config.trans_cache] keyed by node id.  A {!t} holds the
    reachable state space in flat form — the analogue of SPIN
    generating a dedicated [pan] verifier from a model, one automaton
    per process and one global state vector.

    One walk, two derivations: the vector table, the packed rows, the
    event table and the exploration loop are {!Walk}'s, which also
    runs the counter quotient ([Csp_abstraction.Counter]).  This
    module is the network derivation:

    - the root's {e skeleton} is the [Par] and [Hide] nodes reached by
      unfolding its references; every other operand term below them is
      a {e leaf} (a reference to a sub-network stays one leaf), and a
      root with no skeleton is a single leaf;
    - a state is a vector of leaf term ids, one per leaf.  Leaf terms
      are interned once per automaton; state ids are dense [int]s in
      BFS discovery order (so they coincide with {!Lts.explore}'s state
      numbering).  When the root is a reference to a network, it is
      its own state 0, whose row is its body's;
    - a missing row is derived from its vector: each leaf's row and its
      partners' synchronisations come from a walk memo
      ({!Step.leaf_row}, {!Step.leaf_sync}), once per leaf term, and are
      combined level by level in exactly the interpreter's order (left
      moves, then right moves with their partners; exact duplicates
      dropped at each [Par]; [Hide] relabelling).  Terms for states are
      built only when asked for ({!node}, {!process}, {!transitions_i}).

    {!compile} is the walk's first run over an empty automaton,
    recording no transitions; every later walk replays the tables
    ({!Lts.explore}'s [?compiled] argument), byte-identical to the
    interpreter (state numbering, transition order, truncation, DOT).
    Everything runs on the calling domain.

    {b Fallback contract}: states beyond the compile [budget] (or
    reached only under a larger [max_states] than the compile saw) get
    their rows from their vectors the first time a later walk,
    {!out_degree} or {!transitions_i} reaches them; the
    [compiled.fallbacks] counter counts such rows.

    A [t] is mutable (lazy materialisation) and must not be shared
    between domains. *)

type t

val compile : ?budget:int -> Step.config -> Csp_lang.Process.t -> t
(** The building walk: the exploration loop over an empty automaton
    with [max_states = budget] (default [200_000]), so the first
    [budget] states in discovery order (at least the root) get rows
    and every target of those rows gets an id (rows beyond are
    materialised lazily on demand).  Raises what the interpreter
    raises on the root's row ({!Step.Unproductive} with the same
    name).  Telemetry: [compiled.compiles], [compiled.states],
    [compiled.leaves], [compiled.leaf_terms], [compiled.compile_ms]
    and a ["compile"] span. *)

val root : t -> Csp_lang.Proc.t
(** The interned root the automaton was compiled from. *)

val config : t -> Step.config
(** The configuration rows are derived with. *)

val n_states : t -> int
(** States assigned a dense id so far (grows on fallback). *)

val n_rows : t -> int
(** States whose successor row is materialised. *)

val n_transitions : t -> int
(** Packed transitions across all materialised rows. *)

val n_events : t -> int
(** Distinct events in the event table. *)

val fallbacks : t -> int
(** Rows materialised lazily after {!compile} returned. *)

val leaves : t -> int
(** Positions in a state vector: the leaves of the root's skeleton. *)

val leaf_terms : t -> int
(** Distinct leaf terms interned so far. *)

(** {1 States by id} *)

val state_of : t -> Csp_lang.Proc.t -> int option
(** The id of an interned term's state, if the automaton has assigned
    it one. *)

val node : t -> int -> Csp_lang.Proc.t
(** State id -> interned term, built from its vector. *)

val process : t -> int -> Csp_lang.Process.t
(** State id -> plain term, built from its vector without interning a
    node ([Proc.to_process (node t s)], structurally). *)

val out_degree : t -> int -> int
(** The length of state [s]'s row, materialising the row if needed.
    Call it before {!label}, {!event_id} or {!target} on [s]. *)

val label : t -> int -> int -> Csp_trace.Event.t * Step.visibility
(** [label t s i]: the event and visibility of [s]'s [i]th move. *)

val event_id : t -> int -> int -> int
(** [event_id t s i]: the id of [s]'s [i]th move's event. *)

val event : t -> int -> Csp_trace.Event.t
(** The event of an event id. *)

val target : t -> int -> int -> int
(** [target t s i]: the state [s]'s [i]th move leads to. *)

val transitions_i :
  t ->
  Csp_lang.Proc.t ->
  (Csp_trace.Event.t * Step.visibility * Csp_lang.Proc.t) list
(** Successors from the flat row when the state is in the automaton
    (materialising it if needed); identical to
    [Step.transitions_i (config t)] — which it delegates to verbatim
    for states outside the automaton. *)

(** {1 Raw exploration}

    {!Lts.explore} with [?compiled] is the public entry point for a
    transition system; [cspc graph] renders the raw result directly
    with {!Dot.render}, building no transition list, state array or
    [Proc] term.  The raw result exists so this module does not
    depend on [Lts]. *)

type raw = Walk.raw = { graph : Dot.graph; state : int -> int }

val explore_raw : ?max_states:int -> t -> raw
(** {!Walk.explore_raw} over the automaton (default [max_states]
    2000); [state] maps a state number to the id {!node} and
    {!process} take.  Missing rows are appended as fallbacks.  Records
    an ["explore-compiled"] span (cat [explore]). *)
