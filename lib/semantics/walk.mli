(** The state-vector walk: the one exploration loop every state space
    runs on.

    A state is a vector of [width] ints.  States get dense ids in the
    order the table first meets them and are found again through an
    open-addressing table over their vectors.  Successor rows are
    packed into one shared pool (CSR layout: [row_off]/[row_len] slice
    [pk_event]/[pk_target]/[pk_visible]); [row_off.(s) = -1] marks a
    row not derived yet.  All arrays are amortised-doubling growable.

    The walk knows nothing of what a position holds.  A client
    supplies the row {e derivation}: the moves of a state, read off its
    vector.  {!Compiled} derives a network's rows from its leaves'
    rows; the counter quotient ([Csp_abstraction.Counter]) derives its
    rows from local states' offers over vectors of replica counts.

    A [t] is mutable and must not be shared between domains. *)

type move = int * bool * int list
(** One move of a row: its event key ({!event_key}), whether it is
    visible, and the positions it changes, as [value * width +
    position] codes ([value >= 0]) in ascending position.  A position
    may be listed with its current value. *)

type t = private {
  width : int;
  count : Csp_obs.Obs.Counter.t option;  (** ticked once per new state *)
  weights : int array;
  mutable vecs : int array;
      (** state [s] is [vecs.(s*width .. s*width+width-1)] *)
  mutable sums : int array;
  mutable n_states : int;
  mutable first_slotted : int;
  mutable slots : int array;
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;  (** per move: its id in [events] *)
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;  (** per move: ['\001'] visible *)
  mutable pk_len : int;
  mutable keys : Csp_trace.Event.t array;  (** event key -> event *)
  mutable n_keys : int;
  key_of : int Csp_trace.Event.Tbl.t;
  mutable row_event : int array;
  mutable events : Csp_trace.Event.t array;
      (** the events rows hold, numbered as rows first hold them *)
  mutable n_events : int;
}

val create : ?count:Csp_obs.Obs.Counter.t -> int -> t
(** An empty table over vectors of the given width. *)

val add_root : t -> int array -> slotted:bool -> unit
(** Make the vector state 0.  An unslotted root is not found by its
    vector: the same vector met later gets an id of its own. *)

val find : t -> int array -> int
(** The id of a vector's state, or [-1]. *)

val event_key : t -> Csp_trace.Event.t -> int
(** The key of an event a derivation names, interned on first use. *)

val append_row : t -> int -> move list -> unit
(** [append_row t s moves] packs state [s]'s row from its moves, listed
    last first, giving new targets fresh ids. *)

val walk :
  t ->
  max_states:int ->
  derive:(int -> move list) ->
  edge:(int -> int -> int -> unit) ->
  int * int array * bool * int list
(** The exploration loop: a FIFO walk from state 0 in BFS discovery
    order that numbers states [0, 1, ...] as it first meets them and
    appends the row [derive s] (moves last first) of every state [s] it
    reaches without one.  [edge i k j] sees each recorded transition:
    source and target numbers and the packed slot [k], in row order.
    The root is always numbered; a target not numbered yet when
    [max_states] states are is dropped, and its source is truncated.
    Returns the number of states, the numbered state ids in order,
    whether nothing was dropped, and the truncated sources.  Every
    16th row is a {!Csp_parallel.Coop.yield} point: under a serve
    slice the walk may pause there, between rows. *)

type raw = {
  graph : Dot.graph;
      (** the recorded system: states in BFS discovery order, edges in
          discovery order, the walk's event table *)
  state : int -> int;  (** state number -> the table's state id *)
}

val explore_raw : t -> max_states:int -> derive:(int -> move list) -> raw
(** {!walk}, recording its edges into flat arrays. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a len fill]: a copy of [a] at least [len] long and at least
    twice as long, padded with [fill]. *)
