(** The one Graphviz writer.

    Every DOT text the verifier prints comes from {!write}, with one of
    two sinks.  {!render} writes through the identity into a buffer of
    its own and returns the text: {!Lts.to_dot} feeds it an explored
    system's transition list through {!of_transitions}, and [cspc
    graph]'s compiled path feeds it the rows of {!Walk}'s tables, read
    in place, without building a transition list.  A [cspc serve]
    [graph] reply writes through the JSON string escape straight into
    the connection's output buffer, so neither the DOT text nor its
    escaped copy is built on its own.

    The input is row-shaped, the walk's own layout: per state an offset
    and a length into three per-move pools (event id, target,
    visibility) over dense state numbers and dense event ids, plus the
    event table.  A move whose target is not below [n_states] was cut
    at the state bound: it is not drawn or counted, and its source is
    truncated.

    Output is deterministic: node numbers are the input's state numbers
    and the edges leave each source sorted by (target, event under
    {!Csp_trace.Event.compare}, visibility), whatever order its row
    lists them in. *)

type graph = {
  initial : int;
  n_states : int;
  complete : bool;
      (** false when exploration stopped at the state bound *)
  events : Csp_trace.Event.t array;
      (** the event table: id -> event; ids [\[0, n_events)] must name
          pairwise distinct events *)
  n_events : int;
  row_off : int array;
      (** per state ([0 .. n_states - 1]): its row's first slot in the
          pools; rows need not be adjacent or in state order *)
  row_len : int array;  (** per state: its row's length *)
  event : int array;  (** per slot: the event id *)
  tgt : int array;
      (** per slot: the target state, or a number not below [n_states]
          for a move cut at the state bound *)
  visible : Bytes.t;  (** per slot: ['\001'] visible, ['\000'] hidden *)
}

(** What [cspc graph]'s status line reports, derived from the same
    rows as the picture. *)
type facts = {
  states : int;
  transitions : int;  (** the moves that are not cut *)
  complete : bool;
  deterministic : bool;
      (** no state has two distinct successors on one visible event *)
  deadlocks : int;  (** states with an empty row *)
  truncated_states : int;  (** states with a cut move *)
}

val facts : graph -> facts

val truncated : graph -> int -> bool
(** [truncated g s]: state [s]'s row holds a move cut at the state
    bound. *)

val of_transitions :
  initial:int ->
  n_states:int ->
  complete:bool ->
  truncated:bool array ->
  n_edges:int ->
  ((int -> Csp_trace.Event.t -> bool -> int -> unit) -> unit) ->
  graph
(** [of_transitions ... ~n_edges iter] is the graph of the [n_edges]
    edges [iter add] passes to [add source event visible target], in
    any order, bucketed into rows by source; their events are interned
    into a table of distinct events.  Each state [truncated] marks gets
    one cut move.  No intermediate edge list is built. *)

val write :
  escape:(string -> string) ->
  ?name:string ->
  ?header:string ->
  ?status:(facts -> string) ->
  Buffer.t ->
  graph ->
  unit
(** Appends [escape] of the graph's text to the buffer.  [header]
    (default empty) is written first, then [status facts] when
    [status] is given (the facts are computed only then), then the
    digraph [name] (default ["lts"]; quoted unless it is an identifier
    [\[A-Za-z_\]\[A-Za-z0-9_\]*] and no DOT keyword, so it is always
    a valid DOT ID): the initial state bold, deadlock states doubly
    circled, truncated states dashed, hidden edges dashed.

    Each row is sorted on its own, and each edge is printed as three
    pieces: the row's [  nS -> n] prefix, the target's digits and the
    suffix of its (event, visibility), escaped once per call.  The
    graph is only read: its pools may be a walk's own tables.

    [escape] must act on each byte alone
    ([escape (a ^ b) = escape a ^ escape b]) and leave digits as they
    are: it is applied once per call to each literal piece of the
    text (the header, the status line, the attribute strings) and once
    per call to each edge suffix, while node numbers are written
    directly.  [Fun.id] gives the DOT text itself,
    [Csp_persist.Json.escape] the bytes of that text inside a JSON
    string.  Records a ["to_dot"] span (cat [export]). *)

val render :
  ?name:string -> ?header:string -> ?status:(facts -> string) -> graph -> string
(** {!write} through [Fun.id] into a buffer sized for the graph: the
    DOT text. *)
