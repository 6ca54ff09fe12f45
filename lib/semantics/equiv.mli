(** Cross-checks between the two semantics, and the model identities of
    the paper's conclusion (§4). *)

val operational_vs_denotational :
  ?depth:int ->
  Step.config ->
  Denote.config ->
  Csp_lang.Process.t ->
  (unit, Csp_trace.Trace.t) result
(** Compare the visible trace sets produced by {!Step.traces} and
    {!Denote.denote} up to [depth] (default 5); [Error s] returns a
    shortest disagreeing trace.  Exact for hiding-free processes; with
    hiding, agreement additionally depends on compatible fuel budgets. *)

val trace_refines :
  ?depth:int ->
  Step.config ->
  impl:Csp_lang.Process.t ->
  spec:Csp_lang.Process.t ->
  (unit, Csp_trace.Trace.t) result
(** Trace refinement up to the depth (default 5): every visible trace of
    [impl] of length at most [depth] is a trace of [spec].  [Error s]
    is the shortest trace of the implementation the specification does
    not allow, least in [Event.compare] order among the shortest.

    The check is FDR's (Roscoe, 1997) over the implementation's prefix
    closure: {!Step.traces} builds it as a hash-consed DAG, and a
    breadth-first search walks pairs of a DAG node and the set of
    specification states the trace to it leads to.  A child edge [e]
    maps the set through {!Step.after_i} (memoised per set and event
    within the call); an empty image is a violation, and a pair
    already queued is not queued again.  Taking each level in the
    order its pairs were found, and each node's children in
    [Event.compare] order, makes the first violation found the least
    of the shortest.  The cost is (DAG nodes × spec sets) pairs, not
    the number of traces: window-2's [system] at depth 16 has 174 761
    traces in a DAG of 53 nodes, and the search queues 57 pairs.  The
    counter [refine.pairs] adds the pairs of each call.

    The specification side steps by {!Step.after_i}, so its inputs are
    not limited to sampled values.  Every state of a reached set is
    stepped, so an unguarded specification branch raises
    {!Step.Unproductive} wherever the search reaches it.
    @raise Step.Unproductive on an unguarded definition either side
    reaches. *)

val stop_choice_identity :
  ?depth:int -> Denote.config -> Csp_lang.Process.t -> bool
(** §4, second defect: in the prefix-closure model
    [STOP | P] is identically equal to [P].  Returns whether the two
    denotations are equal at the given depth (they always are — that is
    the point). *)

val choice_absorption :
  ?depth:int -> Denote.config -> Csp_lang.Process.t -> Csp_lang.Process.t
  -> bool
(** The generalisation: [Q | P = P] whenever ⟦Q⟧ ⊆ ⟦P⟧, so a branch
    that may deadlock after any number of steps of behaviour common
    with [P] is invisible in the model. *)
