(** Strong bisimulation on explored transition systems.

    Partition refinement (Kanellakis–Smolka) over an {!Lts.t}: computes
    the coarsest partition of states such that related states have
    transitions on the same (event, visibility) labels into related
    states.  Used to minimise state graphs before display, to compare
    two processes up to strong bisimilarity on their bounded
    exploration, and as an independent check that syntactically
    different definitions of the paper's processes have the same
    branching behaviour. *)

type partition
(** A partition of the states of an LTS into bisimulation classes. *)

val classes_of : Lts.t -> partition
(** The coarsest strong bisimulation partition.  Hidden and visible
    transitions are distinguished labels (this is bisimulation on the
    labelled graph, not weak bisimulation). *)

val num_classes : partition -> int

val quotient : Lts.t -> partition -> Lts.t
(** The minimised system: one state per class, transitions
    deduplicated; state [i] of the result carries a representative
    process of class [i]. *)

val minimise : Lts.t -> Lts.t
(** [quotient t (classes_of t)]. *)

val equivalent :
  ?max_states:int ->
  ?compiler:(Csp_lang.Process.t -> Compiled.t) ->
  Step.config ->
  Csp_lang.Process.t ->
  Csp_lang.Process.t ->
  bool
(** Are the two processes strongly bisimilar on their bounded
    exploration?  Computed by exploring the disjoint union and asking
    whether the two initial states fall into the same class.  (Both
    explorations must be complete for the answer to be meaningful; the
    function returns [false] when either is truncated.)  A
    [compiler] (typically [Engine.compile eng]) routes each side's
    exploration through its compiled successor automaton; the answer
    is unchanged, only the wall-clock. *)

val saturate : Lts.t -> Lts.t
(** τ-saturation: concealed transitions become silent moves.  The
    result has, for every weak step [s ⇒ e ⇒ s'] (concealed moves, one
    visible [e], concealed moves), a visible transition [s → e → s'],
    and a distinguished silent self-loop structure such that strong
    bisimulation on the saturated system coincides with weak
    (observation) equivalence on the original. *)

val weak_classes : Lts.t -> partition
(** The coarsest weak-bisimulation partition ([classes_of ∘ saturate]). *)

val weak_equivalent :
  ?max_states:int ->
  ?compiler:(Csp_lang.Process.t -> Compiled.t) ->
  Step.config ->
  Csp_lang.Process.t ->
  Csp_lang.Process.t ->
  bool
(** Observation equivalence on the bounded exploration: like
    {!equivalent} but abstracting from concealed communications — e.g.
    [chan a; (a!0 -> b!1 -> STOP)] is weakly, but not strongly,
    equivalent to [b!1 -> STOP]. *)
