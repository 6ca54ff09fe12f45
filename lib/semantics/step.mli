(** Operational semantics: small-step transitions by communication.

    A configuration supplies the definition environment, a sampler for
    infinite input sets, and fuel bounds.  [unfold_fuel] bounds chains
    of name unfoldings between communications (it only runs out on
    unguarded recursion); [hide_fuel] bounds runs of consecutive hidden
    events considered during trace enumeration and visible derivatives.

    States are hash-consed ({!Csp_lang.Proc}): the [_i]-suffixed
    functions work directly on interned nodes, and the plain-AST
    entry points intern on the way in and project back on the way out.
    Both the reference-unfolding and the transition relation are cached
    in the configuration, so repeated queries on a shared state space
    (trace enumeration, LTS exploration, refinement checking) derive
    each distinct state once. *)

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

val tau_reachable_i : config -> Csp_lang.Proc.t -> Csp_lang.Proc.t list
(** The states reachable by at most [hide_fuel] hidden events (including
    the state itself). *)

val after_i :
  config -> Csp_lang.Proc.t -> Csp_trace.Event.t -> Csp_lang.Proc.t list

val accepts_trace_i : config -> Csp_lang.Proc.t -> Csp_trace.Trace.t -> bool
val is_deadlocked_i : config -> Csp_lang.Proc.t -> bool
val traces_i : config -> depth:int -> Csp_lang.Proc.t -> Closure.t

(** {1 Domain-local cache views} — for parallel exploration

    The per-config caches are plain hashtables and must not be written
    concurrently.  A {!view} lets a worker domain derive transitions
    during a parallel phase without touching them: lookups consult the
    shared tables first (read-only — safe while no domain writes), then
    a private local table; fresh derivations are recorded locally.  At
    the fork-join barrier, while the workers are quiescent, the
    coordinator calls {!merge_view} on each view to fold the local
    discoveries into the shared tables — cache hits survive the
    barrier, and later layers or sequential queries reuse them. *)

type view
(** A domain-local overlay over one configuration's caches. *)

val view : config -> view
(** A fresh, empty view of [config]'s caches.  Create one per worker
    domain per parallel phase (views are not themselves thread-safe). *)

val transitions_view :
  view -> Csp_lang.Proc.t ->
  (Csp_trace.Event.t * visibility * Csp_lang.Proc.t) list
(** Like {!transitions_i}, but misses populate the view's local table
    instead of the shared [trans_cache]. *)

val merge_view : view -> unit
(** Fold the view's local discoveries into the shared caches and flush
    its hit/miss counts into the global statistics, then reset the view
    to empty.  Must only be called while no other domain is reading or
    writing the underlying configuration's caches. *)

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
}

val stats : unit -> stats
(** Global cache counters since program start, summed over every
    configuration. *)
