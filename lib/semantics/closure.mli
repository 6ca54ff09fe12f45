(** Prefix closures, represented as hash-consed tries.

    A prefix closure (§3.1) is a set of traces containing the empty
    trace and closed under prefixes.  A trie whose every node counts as
    a member is exactly such a set, so prefix-closedness holds by
    construction.  All values of this type are finite approximations:
    the closure of a non-trivial process is truncated at some depth by
    the functions that build it.

    Children lists are kept sorted by event and duplicate-free, and
    every node is interned in a global (domain-safe) unique table, so
    structurally equal closures are physically equal: {!equal} is
    pointer equality, {!cardinal} and {!depth} are cached per node, and
    the set operations are memoised in compute tables keyed on node
    ids.  Structure is shared across the approximation chains of the
    denotational semantics and across the bounded checker's sweeps. *)

type t

val empty : t
(** [{⟨⟩}] — the denotation of STOP, and the paper's approximation a₀. *)

val prefix : Csp_trace.Event.t -> t -> t
(** [(a → P)] = [{⟨⟩} ∪ {a^s | s ∈ P}]. *)

val union : t -> t -> t
val union_all : t list -> t
(** Balanced pairwise reduction of [union] (avoids the O(n·m) left-fold
    on wide fan-outs such as sampled [Input] branches). *)

val inter : t -> t -> t

val mem : Csp_trace.Trace.t -> t -> bool
val add : Csp_trace.Trace.t -> t -> t
(** Adds the trace and, implicitly, all its prefixes. *)

val of_traces : Csp_trace.Trace.t list -> t
val to_traces : t -> Csp_trace.Trace.t list
(** All member traces, shortest first within each branch. *)

val fold_traces : (Csp_trace.Trace.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_traces f t init] folds [f] over every member trace in
    {!to_traces} order without materialising the trace list. *)

val maximal_traces : t -> Csp_trace.Trace.t list
(** Only the traces that are not proper prefixes of another member. *)

val cardinal : t -> int
(** Number of member traces (= number of trie nodes).  O(1): cached. *)

val depth : t -> int
(** Length of the longest member trace.  O(1): cached. *)

val truncate : int -> t -> t
(** Keep only traces of length ≤ n.  Returns the argument itself (no
    copy) when it is already within the bound. *)

val hide : (Csp_trace.Channel.t -> bool) -> t -> t
(** [P\C]: the image of the closure under [s ↦ s\C]; prefix-closed. *)

val restrict : (Csp_trace.Channel.t -> bool) -> t -> t
(** Image under keeping only matching channels (used to state the
    paper's projection property of parallel composition). *)

val interleave : events:Csp_trace.Event.t list -> extra:int -> t -> t
(** Bounded version of the paper's [P ⇑ C]: every member trace
    interleaved with arbitrary sequences (of length ≤ [extra]) over the
    finite alphabet sample [events]. *)

val par :
  in_x:(Csp_trace.Channel.t -> bool) ->
  in_y:(Csp_trace.Channel.t -> bool) ->
  t ->
  t ->
  t
(** Alphabetised parallel composition by synchronised merge: events on
    channels in both alphabets require both operands to advance; events
    in only one alphabet advance that operand alone.  Agrees with the
    paper's [(P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))] on the common alphabet (tested
    property). *)

val equal : t -> t -> bool
(** Physical equality — O(1), exact thanks to hash-consing. *)

val subset : t -> t -> bool
val first_difference : t -> t -> Csp_trace.Trace.t option
(** A shortest trace in exactly one of the two closures, if any;
    computed by a synchronous walk of the shared trie structure. *)

val events : t -> Csp_trace.Event.t list
(** All events occurring anywhere in the closure, deduplicated
    (returned in [Event.compare] order). *)

val children : t -> (Csp_trace.Event.t * t) list
(** The trie edges out of the root: one [(e, t')] per event [e] that
    begins a member trace, with [t'] the closure of what may follow
    [e], in [Event.compare] order and duplicate-free.  O(1): the node's
    own list, which no operation mutates.  Shared subtrees are
    physically equal, so a walk keyed on {!id} visits the hash-consed
    DAG, not the trace tree. *)

val id : t -> int
(** The unique node id: equal ids ⇔ equal closures.  Never reused. *)

val hash : t -> int
(** Hash consistent with {!equal} (derived from {!id}); O(1). *)

type stats = {
  nodes : int;
  memo_hits : int;
  memo_misses : int;
  lock_waits : int;
      (** contended shard/memo-mutex acquisitions (only ever non-zero
          under multi-domain execution) *)
}

val stats : unit -> stats
(** Global counters: nodes interned, compute-table hits/misses and
    lock contention — exported as the [closure.*] snapshot keys.  No
    table is scanned, so a snapshot stays cheap as the tables grow.
    The compute tables share one mutex, taken on every domain. *)

val clear_caches : unit -> unit
(** Drop the compute tables.  The unique table keeps every node, so
    ids and physical equality are unaffected.  Only affects
    performance, never results. *)

val pp : Format.formatter -> t -> unit
(** Prints the maximal traces. *)
