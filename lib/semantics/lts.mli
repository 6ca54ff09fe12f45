(** Explicit labelled transition systems.

    Bounded exploration of a process's state space, with states
    canonicalised by hash-consing ({!Csp_lang.Proc}): state numbering
    is by BFS discovery order, a function of the process and the
    configuration alone.  Useful for state-space
    statistics, reachability questions, and for drawing the paper's
    network diagrams as graphs (Graphviz DOT output, used by
    [cspc graph]).

    Exploration is a FIFO walk in BFS discovery order.  Production
    exploration runs {!Compiled}'s loop over flat successor tables; on
    a multi-domain {!Csp_parallel.Pool.t} that loop derives missing
    rows through a work-stealing speculation fleet.  The
    interpreted loop stays as the sequential reference: the resulting
    system (state numbering, transition list, truncation and DOT
    output) is byte-identical on every path, whatever the domain
    count. *)

type state = int

type transition = {
  source : state;
  event : Csp_trace.Event.t;
  visible : bool;
  target : state;
}

type t = {
  initial : state;
  states : Csp_lang.Process.t array;  (** indexed by state number *)
  transitions : transition list;
  complete : bool;
      (** false when exploration stopped at the state bound with
          unexplored frontier states remaining *)
  n_transitions : int;
      (** [List.length transitions], computed once at construction *)
  truncated : bool array;
      (** per state: an outgoing transition was dropped because its
          target fell beyond the state bound.  Such states are not
          reported by {!deadlock_states} and are drawn dashed by
          {!to_dot}.  All-[false] when [complete]. *)
}

val make :
  ?truncated:bool array ->
  initial:state ->
  states:Csp_lang.Process.t array ->
  transitions:transition list ->
  complete:bool ->
  unit ->
  t
(** Smart constructor for derived systems (quotients, saturations,
    products): computes [n_transitions] and defaults [truncated] to
    all-[false]. *)

val explore :
  ?max_states:int ->
  ?pool:Csp_parallel.Pool.t ->
  ?compiled:Compiled.t ->
  Step.config ->
  Csp_lang.Process.t ->
  t
(** Breadth-first exploration (default bound: 2000 states).  States are
    identified up to syntactic equality of the process term, so a
    recursive definition that returns to its defining equation yields a
    finite cyclic graph.

    When [compiled] is an automaton for the same root process (see
    {!Compiled.compile}, {!Engine.compile}), the exploration replays
    its flat successor tables, appending rows beyond the compile budget
    as it reaches them (speculatively, when [pool] has several
    domains).  Otherwise a multi-domain [pool] builds a fresh automaton
    through that speculation and replays it, and no pool runs the
    interpreted reference loop.  Every path yields the same system
    (numbering, transitions, truncation, DOT).  The automaton must have
    been compiled with the same configuration; a [compiled] whose root
    is a different process is ignored. *)

val signature : t -> string
(** Canonical, numbering-independent form: sorted printed states,
    sorted printed transitions, initial state and completeness.  Equal
    signatures ⇔ same state set, same transition set, whatever the
    state numbering. *)

val num_states : t -> int

val num_transitions : t -> int
(** O(1): stored at construction. *)

val deadlock_states : t -> state list
(** States with no outgoing transitions at all — excluding states whose
    outgoing transitions were dropped at the state bound (those are
    unknowns, not deadlocks; see [truncated]). *)

val truncated_states : t -> state list
(** States with dropped outgoing transitions, in ascending order.
    Empty iff the exploration ran to completion. *)

val is_deterministic : t -> bool
(** No state has two distinct successors on the same visible event. *)

val reachable_channels : t -> Csp_trace.Channel.t list

val to_dot : ?name:string -> ?header:string -> t -> string
(** Graphviz source; hidden events are drawn dashed, deadlock states
    doubly circled, truncation-affected states dashed.  Output is
    deterministic: node numbers come from the BFS discovery order and
    edges are emitted sorted by (source, target, event, visibility).
    [header] (default empty) is emitted verbatim before the graph, so
    a caller can frame it with status lines without copying the DOT
    text. *)
