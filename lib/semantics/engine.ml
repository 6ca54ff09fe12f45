module Defs = Csp_lang.Defs
module Proc = Csp_lang.Proc
module Obs = Csp_obs.Obs

(* [csp_lang] predates (and must not depend on) the observability
   layer, so its interning statistics are bridged into the snapshot
   from here. *)
let () =
  Obs.register_source "intern" (fun () ->
      let s = Proc.stats () in
      [
        ("nodes", Obs.Int s.Proc.nodes);
        ("hits", Obs.Int s.Proc.hits);
        ("misses", Obs.Int s.Proc.misses);
        ("lock_waits", Obs.Int s.Proc.lock_waits);
      ])

type t = {
  defs : Defs.t;
  depth : int;
  seed : int;
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  hide_extra : int;
  step : Step.config;
  denote : Denote.config;
  compiled : (int, Compiled.t) Hashtbl.t;
}

let create ?(depth = 6) ?(seed = 1) ?nat_bound ?sampler
    ?(unfold_fuel = 64) ?(hide_fuel = 16) ?(hide_extra = 8) defs =
  let sampler =
    match nat_bound, sampler with
    | Some n, _ -> Sampler.nat_bound n
    | None, Some s -> s
    | None, None -> Sampler.default
  in
  {
    defs;
    depth;
    seed;
    sampler;
    unfold_fuel;
    hide_fuel;
    hide_extra;
    step = Step.config ~sampler ~unfold_fuel ~hide_fuel defs;
    denote = Denote.config ~sampler ~hide_extra defs;
    compiled = Hashtbl.create 4;
  }

let step_config t = t.step
let denote_config t = t.denote

(* Depth and seed are not baked into the derived configurations, so the
   caches survive the change; anything affecting the transition
   relation or the denotation (sampler, fuels, definitions) rebuilds
   both configurations — and hence their caches — from scratch. *)
let with_depth t depth = { t with depth }
let with_seed t seed = { t with seed }

(* One compile serves every later query through this engine (and its
   [with_depth]/[with_seed] copies, which share the table); it runs on
   the calling domain.  The cache
   is keyed by the interned root's id — the unique table keeps every
   node and never reuses an id, so a key names the same root for the
   life of the process.  The hit/miss counters let a long-lived
   host (the [cspc serve] cache-warm story) observe how often a
   request was answered from an already-compiled automaton. *)
let compile_hits = Obs.Counter.make "engine.compile_hits"
let compile_misses = Obs.Counter.make "engine.compile_misses"

let compile ?budget t p =
  let root = Proc.intern p in
  match Hashtbl.find_opt t.compiled (Proc.id root) with
  | Some c ->
    Obs.Counter.incr compile_hits;
    c
  | None ->
    Obs.Counter.incr compile_misses;
    let c = Compiled.compile ?budget t.step p in
    Hashtbl.add t.compiled (Proc.id root) c;
    c

let compiled_count t = Hashtbl.length t.compiled

let with_sampler t sampler =
  create ~depth:t.depth ~seed:t.seed ~sampler
    ~unfold_fuel:t.unfold_fuel ~hide_fuel:t.hide_fuel ~hide_extra:t.hide_extra
    t.defs
