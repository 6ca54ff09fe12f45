(** Operational semantics: small-step transitions by communication.

    A configuration supplies the definition environment, a sampler for
    infinite input sets, and fuel bounds.  [unfold_fuel] bounds chains
    of name unfoldings between communications (it only runs out on
    unguarded recursion); [hide_fuel] bounds runs of consecutive hidden
    events considered during trace enumeration and visible derivatives.

    States are hash-consed ({!Csp_lang.Proc}): the [_i]-suffixed
    functions work directly on interned nodes, and the plain-AST
    entry points intern on the way in and project back on the way out.

    Two kinds of cache, by lifetime:
    - the configuration's [unfold_cache] and [trans_cache] live as long
      as the configuration, so repeated queries on a shared state space
      (trace enumeration, LTS exploration, refinement checking) derive
      each distinct state once;
    - a {!memo} lives for one walk of [Compiled]'s exploration loop
      (the building walk, or a later one that appends rows).  That walk
      keys each network state by a vector of leaf terms and combines
      their moves itself (the paper's §3 law
      [P ‖_{X,Y} Q = (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))]: a network's moves
      are a function of its operands' moves).  The memo serves it each
      leaf term's row and each leaf's synchronisation continuations
      ({!leaf_row}, {!leaf_sync}), which the automaton keeps, so every
      leaf term is derived once; inside a leaf term that is itself a
      network, the memo keeps each [Par] operand's row and partner
      synchronisations the same way.
    A memo entry records the unfold fuel its derivation needed and is
    reused only where the current fuel covers that need, so a memoised
    derivation returns the same row, and raises {!Unproductive} on the
    same inputs with the same name, as an unmemoised one.  Outside a
    walk ({!transitions_i}, [Lts.explore]'s interpreter) nothing is
    memoised below the whole-state row: that path is the independent
    reference the compiled engine is tested against. *)

type visibility = Visible | Hidden

val vis_equal : visibility -> visibility -> bool
(** Explicit variant equality (no polymorphic compare). *)

module Unfold_tbl : Hashtbl.S with type key = string * Csp_lang.Expr.t option
module Trans_tbl : Hashtbl.S with type key = int

type config = {
  defs : Csp_lang.Defs.t;
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  unfold_cache : Csp_lang.Proc.t Unfold_tbl.t;
      (** (name, argument) → interned unfolding, filled on demand *)
  trans_cache :
    (Csp_trace.Event.t * visibility * Csp_lang.Proc.t) list Trans_tbl.t;
      (** node id → full-fuel transitions, filled on demand *)
}
(** Both caches live as long as the configuration; walk memos
    ({!memo}) are never stored in it. *)

val config :
  ?sampler:Sampler.t ->
  ?unfold_fuel:int ->
  ?hide_fuel:int ->
  Csp_lang.Defs.t ->
  config
(** Defaults: {!Sampler.default}, [unfold_fuel = 64], [hide_fuel = 16].
    Creates fresh (empty) caches. *)

exception Unproductive of string
(** Raised when [unfold_fuel] runs out: the definitions contain an
    unguarded recursion (cf. {!Csp_lang.Defs.well_guarded}). *)

(** {1 On interned states} *)

val unfold_i :
  config -> string -> Csp_lang.Expr.t option -> Csp_lang.Proc.t
(** One reference unfolding, interned and cached in [unfold_cache].
    @raise Csp_lang.Defs.Undefined on unknown names. *)

val transitions_i :
  config -> Csp_lang.Proc.t ->
  (Csp_trace.Event.t * visibility * Csp_lang.Proc.t) list
(** All single-communication transitions, memoised per state in
    [trans_cache].  Events on channels declared local by an enclosing
    [chan L] are [Hidden]; input events enumerate sampler-chosen
    values. *)

(** {1 Walk memos} *)

type memo
(** The operand-row and synchronisation memo of one exploration walk. *)

val memo : unit -> memo
(** A fresh, empty memo.  Create one per walk and drop it when the walk
    ends: it holds every operand row the walk derived. *)

val leaf_row :
  config -> memo -> fuel:int -> Csp_lang.Proc.t ->
  (Csp_trace.Event.t * visibility * Csp_lang.Proc.t) list
(** The moves of a [Par] operand at unfold fuel [fuel], through the
    memo: exactly what the interpreter derives for that operand inside
    a [Par] node reached with [fuel] left, raising {!Unproductive}
    with the same name.  [Compiled]'s walk calls it on each leaf of a
    state vector. *)

val leaf_sync :
  config -> memo -> fuel:int -> Csp_trace.Event.t -> Csp_lang.Proc.t ->
  Csp_lang.Proc.t list
(** The continuations of a [Par] operand that engages in the visible
    event as the passive partner (inputs accept any declared value),
    at unfold fuel [fuel], through the memo. *)

val flush_memo : memo -> unit
(** Add the memo's hit/miss counts to the global statistics and reset
    them.  Call once the walk ends. *)

val tau_reachable_i : config -> Csp_lang.Proc.t -> Csp_lang.Proc.t list
(** The states reachable by at most [hide_fuel] hidden events (including
    the state itself). *)

val after_i :
  config -> Csp_lang.Proc.t -> Csp_trace.Event.t -> Csp_lang.Proc.t list

val accepts_trace_i : config -> Csp_lang.Proc.t -> Csp_trace.Trace.t -> bool
val is_deadlocked_i : config -> Csp_lang.Proc.t -> bool
val traces_i : config -> depth:int -> Csp_lang.Proc.t -> Closure.t

(** {1 On the plain AST} — intern, compute, project back *)

val transitions :
  config -> Csp_lang.Process.t ->
  (Csp_trace.Event.t * visibility * Csp_lang.Process.t) list
(** All single-communication transitions.  Events on channels declared
    local by an enclosing [chan L] are [Hidden]; input events enumerate
    sampler-chosen values. *)

val after : config -> Csp_lang.Process.t -> Csp_trace.Event.t ->
  Csp_lang.Process.t list
(** Visible-event derivative: the states reachable by (≤ [hide_fuel]
    hidden events followed by) the given visible event. *)

val accepts_trace : config -> Csp_lang.Process.t -> Csp_trace.Trace.t -> bool
(** Is the trace a possible (visible) behaviour of the process? *)

val is_deadlocked : config -> Csp_lang.Process.t -> bool
(** No transitions at all, visible or hidden.  [STOP] is deadlocked; so
    are blocked parallel compositions. *)

val traces : config -> depth:int -> Csp_lang.Process.t -> Closure.t
(** All visible traces of length ≤ [depth], enumerated from
    transitions (each visible event resets the hidden-run budget to
    [hide_fuel]). *)

(** {1 Statistics} *)

type stats = {
  unfold_hits : int;
  unfold_misses : int;
  trans_hits : int;
  trans_misses : int;
  op_hits : int;  (** operand rows answered by a walk memo *)
  op_misses : int;  (** operand rows a memoised walk derived *)
  sync_hits : int;  (** partner synchronisations answered by a memo *)
  sync_misses : int;  (** partner synchronisations a memoised walk derived *)
}

val stats : unit -> stats
(** Global cache counters since program start, summed over every
    configuration.  Walk memos add theirs when flushed
    ({!flush_memo}). *)
