(** Speculative derivation on the work-stealing pool.

    A frontier session lets pool workers race ahead of
    {!Compiled}'s exploration walk, deriving per-state transition
    lists into a sharded derived-map while the walk consumes them in
    its own BFS order.  Because the transition relation is a pure
    function of the interned state and the configuration, speculation
    order is unobservable: the walk's rows — and therefore state
    numbering, transition order, truncation and DOT output — are
    byte-identical to the sequential exploration at any domain count.

    Shared [Step] caches are frozen for the session (all domains,
    coordinator included, derive through private {!Step.view}s) and
    folded back at {!stop}.  While a session is open the pool must not
    run fork-join batches, and [Step.transitions_i] must not be called
    on the session's configuration. *)

type session

val start :
  pool:Csp_parallel.Pool.t -> ?cap:int -> Step.config -> session
(** Open a session: one driver per spawned pool worker starts stealing
    work.  [cap] (default: unbounded) soft-bounds the number of states
    speculation will claim — pass the exploration's state bound so
    speculation cannot run away on graphs much larger than the bound.
    On a 1-domain pool the session is inert: {!get} derives everything
    inline and the coordinator's view still batches cache updates. *)

val get :
  session ->
  Csp_lang.Proc.t ->
  (Csp_trace.Event.t * Step.visibility * Csp_lang.Proc.t) list
(** The state's transition list: the published speculative result if a
    worker got there first, otherwise derived inline (and the
    successors seeded to speculation — the first [get] of a session
    seeds it).  Either way the value is
    exactly [Step.transitions_i cfg p]. *)

val stop : session -> unit
(** End the session: stop the drivers, wait for quiescence, fold every
    domain's view back into the configuration's shared caches. *)
