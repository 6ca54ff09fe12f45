(** Preset replica families and whole-family verification.

    A {!t} packages a {!Counter.family} (the abstract side) with the
    erasure [α] relating concrete instances to it and the erased
    invariants worth proving.  {!check_family} then discharges
    [P sat R] for {e every} instance selected by an assumption
    formula in one run: satisfying parameter values are grouped into
    classes with equal abstract initial signatures — all values above
    the counter cutoff collapse into one class, so a formula like
    [n <= 32] (or even an unbounded [n >= 2]) costs a handful of
    abstract explorations — and each class representative's abstract
    traces are enumerated and checked.

    Soundness direction: the abstract LTS over-approximates the
    α-image of every concrete instance's traces, so [certified = true]
    transfers to all selected instances; a failing class may be a
    genuine violation or abstraction noise.  The [abstract-sound]
    oracle cross-checks both the inclusion and certified verdicts
    against bounded concrete enumeration at n ∈ {2,3,4}. *)

type t = {
  fam : Counter.family;
  param : string;  (** the family parameter, conventionally ["n"] *)
  min_param : int;  (** smallest meaningful instance (2 for rings) *)
  invariants : (string * Csp_assertion.Assertion.t) list;
      (** named invariants over the {e erased} channels *)
  abstract_event : Csp_trace.Event.t -> Csp_trace.Event.t option;
      (** α on events of a concrete instance: forget indices, map the
          value; [None] drops the event *)
  doc : string;
}

val token_ring : t
(** {!Csp.Models.Token_ring} erased: one context station holding the
    token, n−1 identical stations; [pass] is the rendezvous channel.
    Invariants: [#pass ≤ #work ≤ #pass + 1] (the token is unique). *)

val leader : t
(** {!Csp.Models.Leader} erased and value-projected through
    {!Chanabs.cap_value}[ 1]: identifiers collapse to {0, 1} with 1
    the abstract maximum.  Invariants: every announced leader is the
    abstract maximum, and [#leader ≤ #elect]. *)

val philosophers : t
(** The paper's §4 dining philosophers (symmetric variant,
    [left_handed_last:false]) erased: forks and philosophers as two
    replica classes.  No n-independent erased invariant is shipped;
    the family exists for state-space benchmarks and the soundness
    oracle — its concrete state space grows combinatorially in n
    while the abstract one stays flat. *)

val workers : t
(** {!Csp.Models.Workers} erased: n independent two-phase cyclers
    with nothing to synchronise ([sync_bases = []]).  The concrete
    interleaving has [2^n] states; the abstract quotient saturates at
    the cutoff.  Invariant: [#tock ≤ #tick]. *)

val presets : t list
val find : string -> t option
(** By name ([token-ring], [leader], [philosophers]) or common alias
    ([ring], [phils]). *)

val abstract_trace : t -> Csp_trace.Trace.t -> Csp_trace.Trace.t
(** α lifted to traces. *)

type class_outcome = {
  rep : int;  (** representative parameter value, the class minimum *)
  instances : int list;  (** enumerated satisfying values in the class *)
  unbounded_tail : bool;
      (** the class also contains every satisfying value above the
          enumeration bound *)
  abstract_states : int;
  truncated : bool;
      (** the abstract exploration stopped at [max_states]: traces
          beyond the bound went unchecked *)
  checked : (int, Csp_trace.Trace.t * string) result;
      (** [Ok traces_checked], or the offending abstract trace and the
          violated invariant *)
}

type outcome = {
  formula : Formula.t;
  param : string;
  depth : int;
  classes : class_outcome list;
  certified : bool;
      (** every class checked [Ok] on a complete abstract exploration *)
}

val check_family :
  ?depth:int ->
  ?max_states:int ->
  t ->
  formula:Formula.t ->
  (outcome, string) result
(** Verify every invariant of the family on every abstract trace of
    length ≤ [depth] (default 6), once per assignment class of the
    formula, exploring at most [max_states] (default 4000) abstract
    states per class; a truncated class is never certified.  [Error]
    when the formula mentions a parameter other than the family's,
    when no instance satisfies it, or when the family has no
    invariants.  Obs counters:
    [abstraction.family_checks], [abstraction.classes] (and the
    exploration's [abstraction.quotient_states] /
    [abstraction.collapses]). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable class-by-class report, as printed by
    [cspc prove --family]. *)
