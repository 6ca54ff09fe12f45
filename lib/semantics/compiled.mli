(** Compiled successor engine: flat transition tables over dense ids.

    Every other pipeline *interprets* the interned Proc IR per
    transition: each successor query is a hashtable probe of
    [Step.config.trans_cache] keyed by node id.  A {!t} holds the
    reachable state space in flat form — the analogue of SPIN
    generating a dedicated [pan] verifier from a model — as a
    CSR-style representation:

    - dense [int] state ids assigned in BFS discovery order (so they
      coincide with {!Lts.explore}'s state numbering);
    - per-state successor rows packed into growable int arrays:
      [row_off]/[row_len] index a shared pool of
      [(event_id, target_id)] pairs plus a visibility byte;
    - an event table mapping dense event ids back to events.

    There is one exploration loop ({!explore_raw}'s): a FIFO walk with
    a dense visited array that appends each missing row as it reaches
    it.  {!compile} is that walk's first run over an empty automaton,
    recording no transitions; every later walk replays the tables
    ({!Lts.explore}'s [?compiled] argument), byte-identical to the
    interpreter (state numbering, transition order, truncation, DOT)
    at any domain count.  On a multi-domain pool a walk derives its
    missing rows through a speculative {!Frontier} session, opened at
    the first missing row — so a replay of complete tables starts no
    speculation.

    {b Fallback contract}: states beyond the compile [budget] (or
    reached only under a larger [max_states] than the compile saw) get
    their rows from the interpreter ({!Step.transitions_i}, or the
    frontier) the first time a later walk or {!transitions_i} reaches
    them; the [compiled.fallbacks] counter counts such rows.  Since
    rows are derived by the same [Step] functions the interpreter uses
    — sharing its [trans_cache] — one compile also warms the caches
    every later query through the same configuration reuses
    ([Sat.check_engine], [Infer], [Runner]).

    A [t] is mutable (lazy materialisation) and must not be shared
    between domains; a walk's [?pool] speculation reads interned nodes
    only and never touches the tables. *)

type t

val compile :
  ?budget:int ->
  ?pool:Csp_parallel.Pool.t ->
  Step.config ->
  Csp_lang.Process.t ->
  t
(** The building walk: the exploration loop over an empty automaton
    with [max_states = budget] (default [200_000]), so the first
    [budget] states in discovery order (at least the root) get rows
    and every target of those rows gets an id (rows beyond are
    materialised lazily on demand).  A multi-domain [pool] derives the rows through a
    {!Frontier} session; the tables are identical at any domain
    count.  Telemetry: [compiled.compiles], [compiled.states],
    [compiled.compile_ms] and a ["compile"] span. *)

val root : t -> Csp_lang.Proc.t
(** The interned root the automaton was compiled from. *)

val config : t -> Step.config
(** The configuration rows are derived with (and fall back to). *)

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

val compile_ms : t -> float
(** Wall-clock of the building walk, in milliseconds. *)

val transitions_i :
  t ->
  Csp_lang.Proc.t ->
  (Csp_trace.Event.t * Step.visibility * Csp_lang.Proc.t) list
(** Successors from the flat row when the state is in the automaton
    (materialising it if needed); identical to
    [Step.transitions_i (config t)] — which it delegates to verbatim
    for states outside the automaton. *)

(** {1 Raw exploration}

    {!Lts.explore} with [?compiled] is the public entry point; the raw
    result exists so this module does not depend on [Lts]. *)

type raw = {
  raw_initial : int;
  raw_states : Csp_lang.Proc.t array;  (** indexed by state number *)
  raw_transitions : (int * Csp_trace.Event.t * bool * int) list;
      (** (source, event, visible, target), in discovery order *)
  raw_complete : bool;
  raw_truncated : bool array;
}

val explore_raw : ?max_states:int -> ?pool:Csp_parallel.Pool.t -> t -> raw
(** The exploration loop, recording: FIFO in BFS discovery order,
    dense visited array, the interpreter's truncation bookkeeping.
    Missing rows are appended as fallbacks — through a {!Frontier}
    session on a multi-domain [pool], opened only if a row is
    missing — so the result is identical at any domain count. *)
