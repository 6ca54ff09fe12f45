(** The one Graphviz writer.

    Every DOT text the verifier prints comes from {!write}, with one of
    two sinks.  {!render} writes through the identity into a buffer of
    its own and returns the text: {!Lts.to_dot} feeds it an explored
    system's transition list through {!of_transitions}, and [cspc
    graph]'s compiled path feeds it the edges {!Compiled}'s walk
    records, without building a transition list.  A [cspc serve]
    [graph] reply writes through the JSON string escape straight into
    the connection's output buffer, so neither the DOT text nor its
    escaped copy is built on its own.  The input is flat: per-edge int
    arrays over dense state numbers and dense event ids, plus the
    event table.

    Output is deterministic: node numbers are the input's state numbers
    and the edges leave each source sorted by (target, event under
    {!Csp_trace.Event.compare}, visibility), whatever order the input
    lists them in. *)

type graph = {
  initial : int;
  n_states : int;
  complete : bool;
      (** false when exploration stopped at the state bound *)
  truncated : bool array;
      (** per state ([n_states] long): an outgoing move was dropped at
          the state bound *)
  events : Csp_trace.Event.t array;
      (** the event table: id -> event; ids [\[0, n_events)] must name
          pairwise distinct events *)
  n_events : int;
  n_edges : int;
  src : int array;  (** per edge, in any order: the source state *)
  event : int array;  (** per edge: the event id *)
  tgt : int array;  (** per edge: the target state *)
  visible : Bytes.t;  (** per edge: ['\001'] visible, ['\000'] hidden *)
}

(** What [cspc graph]'s status line reports, derived from the same
    arrays as the picture. *)
type facts = {
  states : int;
  transitions : int;
  complete : bool;
  deterministic : bool;
      (** no state has two distinct successors on one visible event *)
  deadlocks : int;
      (** states with no outgoing edge that are not truncated *)
  truncated_states : int;
}

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
    any order; their events are interned into a table of distinct
    events.  No intermediate edge list is built. *)

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

    [escape] must act on each byte alone
    ([escape (a ^ b) = escape a ^ escape b]) and leave digits as they
    are: it is applied once per call to each literal piece of the
    text (the header, the status line, the attribute strings) and once
    per call to each event label, while node numbers are written
    directly.  [Fun.id] gives the DOT text itself,
    [Csp_persist.Json.escape] the bytes of that text inside a JSON
    string.  Records a ["to_dot"] span (cat [export]). *)

val render :
  ?name:string -> ?header:string -> ?status:(facts -> string) -> graph -> string
(** {!write} through [Fun.id] into a buffer sized for the graph: the
    DOT text. *)
