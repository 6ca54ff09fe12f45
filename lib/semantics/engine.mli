(** One configuration for every semantic pipeline.

    Historically each pipeline carried its own knobs: {!Step.config}
    (defs, sampler, unfold/hide fuel), {!Denote.config} (defs, sampler,
    hide_extra), plus ad-hoc [depth]/[seed]/[nat_bound] parameters in
    the assertion checker, the invariant miner, the simulator and the
    CLI.  An engine bundles them once: build it from the definition
    environment, pass it everywhere, and the derived {!Step.config} and
    {!Denote.config} — with their unfold/transition/evaluation caches —
    are shared by every query made through it.

    The per-module [config] constructors remain for backward
    compatibility, but new code should create an engine and hand out
    its views. *)

type t = {
  defs : Csp_lang.Defs.t;
  depth : int;  (** default trace/assertion depth bound *)
  seed : int;  (** seed for randomised schedulers and walks *)
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  hide_extra : int;
  step : Step.config;  (** derived view: shares defs/sampler/fuels *)
  denote : Denote.config;  (** derived view: shares defs/sampler *)
  compiled : (int, Compiled.t) Hashtbl.t;
      (** compiled automata keyed by root node id; access through
          {!compile}, which fills it on demand.  Shared by the
          {!with_depth}/{!with_seed} copies; {!with_sampler} starts
          fresh (the transition relation changes) *)
}

val create :
  ?depth:int ->
  ?seed:int ->
  ?nat_bound:int ->
  ?sampler:Sampler.t ->
  ?unfold_fuel:int ->
  ?hide_fuel:int ->
  ?hide_extra:int ->
  Csp_lang.Defs.t ->
  t
(** Defaults: [depth = 6], [seed = 1], {!Sampler.default},
    [unfold_fuel = 64], [hide_fuel = 16], [hide_extra = 8].
    [nat_bound n] is shorthand for [~sampler:(Sampler.nat_bound n)]
    and wins over an explicit [sampler]. *)

val step_config : t -> Step.config
val denote_config : t -> Denote.config

val with_depth : t -> int -> t
(** Change the depth bound; the derived configurations (and their
    caches) are kept — depth is a per-query bound, not a semantic
    parameter. *)

val with_seed : t -> int -> t
(** Change the randomisation seed; caches are kept. *)

val with_sampler : t -> Sampler.t -> t
(** Change the sampler.  This changes the transition relation, so the
    derived configurations are rebuilt with fresh caches. *)

val compile : ?budget:int -> t -> Csp_lang.Process.t -> Compiled.t
(** The compiled successor automaton for [p] under this engine's
    step configuration, compiling on first request and cached per
    root afterwards — one compile serves every later
    {!Lts.explore}/[Runner]/[Sat] query through the same engine.
    [budget] bounds the states materialised eagerly (see
    {!Compiled.compile}); it only takes effect on the compiling
    call.  The compile runs on the calling domain.  Cache traffic
    is counted under the [engine.compile_hits] /
    [engine.compile_misses] snapshot keys. *)

val compiled_count : t -> int
(** Automata in this engine's compile cache (shared with its
    {!with_depth}/{!with_seed} copies). *)
