module Value = Csp_trace.Value
module Event = Csp_trace.Event
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Chan_expr = Csp_lang.Chan_expr
module Expr = Csp_lang.Expr
module Defs = Csp_lang.Defs
module Valuation = Csp_lang.Valuation
module Obs = Csp_obs.Obs

(* Fixpoint iterations actually run, summed over every [denote] call —
   the convergence accelerator's effect is visible as this staying far
   below depth+1 per call. *)
let fixpoint_iters = Obs.Counter.make "denote.fixpoint_iters"
let denote_calls = Obs.Counter.make "denote.calls"

(* (environment generation, depth, node id) — sound because generations
   are never reused within a config (gen 0 is the constant bottom
   environment) and node ids are never reused globally. *)
module Eval_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal (g1, d1, i1) (g2, d2, i2) =
    Int.equal g1 g2 && Int.equal d1 d2 && Int.equal i1 i2

  let hash (g, d, i) = ((((g * 31) + d) * 31) + i) land max_int
end)

type config = {
  defs : Csp_lang.Defs.t;
  sampler : Sampler.t;
  hide_extra : int;
  ref_memo : (string * string option * int * int, Closure.t) Hashtbl.t;
      (* (name, arg, depth, env generation) → truncated approximation:
         recursive references hit cache across the chain *)
  eval_memo : Closure.t Eval_tbl.t;
      (* (env generation, depth, node id) → evaluation: hash-consed
         states shared across approximation levels and samples
         evaluate once per level *)
  mutable generation : int;
      (* generation counter: each environment level built by [next]
         gets a fresh generation, so memo keys are unambiguous *)
}

let config ?(sampler = Sampler.default) ?(hide_extra = 8) defs =
  {
    defs;
    sampler;
    hide_extra;
    ref_memo = Hashtbl.create 64;
    eval_memo = Eval_tbl.create 256;
    generation = 0;
  }

(* Cache counters, exported as the [denote.*] snapshot keys.  Atomic:
   sharded fuzzing evaluates denotations on several domains
   concurrently. *)
let eval_hits = Atomic.make 0
let eval_misses = Atomic.make 0

type stats = { eval_hits : int; eval_misses : int }

let stats () =
  { eval_hits = Atomic.get eval_hits; eval_misses = Atomic.get eval_misses }

let () =
  Obs.register_source "denote" (fun () ->
      let s = stats () in
      [
        ("eval_hits", Obs.Int s.eval_hits);
        ("eval_misses", Obs.Int s.eval_misses);
      ])

(* A semantic environment maps a (possibly subscripted) process name to
   its current approximation, already truncated at the environment
   depth.  [gen] identifies the approximation level for memoisation. *)
type senv = { gen : int; find : string -> Value.t option -> Closure.t }

let eval_chan c = Chan_expr.eval Valuation.empty c
let eval_expr e = Expr.eval Valuation.empty e

(* Evaluation on interned nodes, memoised per (generation, depth,
   node): the states produced by input substitution recur across
   approximation levels and across sampled values, and hash-consing
   makes the recurrence detectable in O(1). *)
let rec eval_i cfg (senv : senv) depth p =
  if depth <= 0 then Closure.empty
  else
    let key = (senv.gen, depth, Proc.id p) in
    match Eval_tbl.find_opt cfg.eval_memo key with
    | Some c ->
      Atomic.incr eval_hits;
      c
    | None ->
      Atomic.incr eval_misses;
      let c = eval_node cfg senv depth p in
      Eval_tbl.add cfg.eval_memo key c;
      c

and eval_node cfg (senv : senv) depth p =
  match Proc.node p with
  | Proc.Stop -> Closure.empty
  | Proc.Output (c, e, k) ->
    Closure.prefix
      (Event.make (eval_chan c) (eval_expr e))
      (eval_i cfg senv (depth - 1) k)
  | Proc.Input (c, x, m, k) ->
    let chan = eval_chan c in
    Closure.union_all
      (List.map
         (fun v ->
           Closure.prefix (Event.make chan v)
             (eval_i cfg senv (depth - 1) (Proc.subst_value x v k)))
         (Sampler.sample cfg.sampler m))
  | Proc.Choice (p1, p2) ->
    Closure.union (eval_i cfg senv depth p1) (eval_i cfg senv depth p2)
  | Proc.Par (xa, ya, p1, p2) ->
    Closure.truncate depth
      (Closure.par
         ~in_x:(Proc.Alphabet.mem xa) ~in_y:(Proc.Alphabet.mem ya)
         (eval_i cfg senv depth p1) (eval_i cfg senv depth p2))
  | Proc.Hide (l, p1) ->
    Closure.truncate depth
      (Closure.hide
         (Proc.Alphabet.mem l)
         (eval_i cfg senv (depth + cfg.hide_extra) p1))
  | Proc.Ref (n, arg) ->
    let argv = Option.map eval_expr arg in
    let key = (n, Option.map Value.to_string argv, depth, senv.gen) in
    (match Hashtbl.find_opt cfg.ref_memo key with
    | Some c -> c
    | None ->
      let c = Closure.truncate depth (senv.find n argv) in
      Hashtbl.add cfg.ref_memo key c;
      c)

let eval cfg senv depth p = eval_i cfg senv depth (Proc.intern p)

(* The per-level table: every (name, arg) demanded of this environment,
   with its approximation.  Comparing consecutive tables — physical
   equality per entry, thanks to hash-consing — detects that the chain
   has converged. *)
type level_table = (string * string option, Closure.t) Hashtbl.t

(* One step of the approximation chain, with memoisation per level so
   that the chain is computed in time linear in its length.  [record]
   accumulates every key ever demanded (with its argument value), so
   the caller can force subsequent levels on the same key set. *)
let next ?record cfg env_depth (prev : senv) : senv * level_table =
  let table : level_table = Hashtbl.create 16 in
  cfg.generation <- cfg.generation + 1;
  let gen = cfg.generation in
  let find name arg =
    let key = (name, Option.map Value.to_string arg) in
    (match record with
    | Some demanded ->
      if not (Hashtbl.mem demanded key) then Hashtbl.add demanded key arg
    | None -> ());
    match Hashtbl.find_opt table key with
    | Some c -> c
    | None ->
      let body = Defs.unfold cfg.defs name arg in
      let c = eval cfg prev env_depth body in
      Hashtbl.add table key c;
      c
  in
  ({ gen; find }, table)

let bottom : senv = { gen = 0; find = (fun _ _ -> Closure.empty) }

(* Force every approximation demanded so far at this level.  Computing
   a body may demand new names (added to [demanded] by [next]'s
   recording); loop until the set is closed, so consecutive level
   tables range over the same keys and their comparison is sound. *)
let force (env : senv) (demanded : (string * string option, Value.t option) Hashtbl.t)
    =
  let rec loop () =
    let before = Hashtbl.length demanded in
    let snapshot =
      Hashtbl.fold (fun (name, _) arg acc -> (name, arg) :: acc) demanded []
    in
    List.iter (fun (name, arg) -> ignore (env.find name arg)) snapshot;
    if Hashtbl.length demanded > before then loop ()
  in
  loop ()

let tables_agree (prev : level_table) (cur : level_table) =
  Hashtbl.length prev = Hashtbl.length cur
  && Hashtbl.fold
       (fun key c ok ->
         ok
         &&
         match Hashtbl.find_opt prev key with
         | Some c' -> Closure.equal c c'
         | None -> false)
       cur true

let denote ?iterations cfg ~depth p =
  Obs.Counter.incr denote_calls;
  Obs.span ~cat:"denote" "denote"
    ~args:(fun () -> [ ("depth", Obs.Int depth) ])
  @@ fun () ->
  let env_depth = depth + cfg.hide_extra in
  (* With an explicit [iterations] the chain is run for exactly that
     many rounds (the pre-convergence behaviour, kept as a reference);
     by default it stops as soon as a level reproduces the previous one
     — every later level is then identical, because evaluation is a
     deterministic function of the approximations it demands. *)
  let early_stop = iterations = None in
  let limit = match iterations with Some n -> n | None -> env_depth + 1 in
  let p = Proc.intern p in
  if limit <= 0 then eval_i cfg bottom depth p
  else begin
    let demanded = Hashtbl.create 16 in
    let rec go prev_env prev_table i =
      Obs.Counter.incr fixpoint_iters;
      let env, table = next ~record:demanded cfg env_depth prev_env in
      let r =
        Obs.span ~cat:"denote" "fixpoint-iter"
          ~args:(fun () -> [ ("iter", Obs.Int i) ])
          (fun () ->
            let r = eval_i cfg env depth p in
            force env demanded;
            r)
      in
      let converged =
        early_stop
        &&
        match prev_table with
        | Some prev -> tables_agree prev table
        | None -> Hashtbl.length table = 0 (* no recursion at all *)
      in
      if converged || i + 1 >= limit then r else go env (Some table) (i + 1)
    in
    go bottom None 0
  end

let approximations cfg ~depth ~n p =
  let env_depth = depth + cfg.hide_extra in
  let demanded = Hashtbl.create 16 in
  let p = Proc.intern p in
  let a0 = eval_i cfg bottom depth p in
  (* [state] is [`Growing (env, table option)] while the chain still
     moves, [`Stable a] once a level reproduced its predecessor — from
     then on every approximation is [a], no re-evaluation needed. *)
  let rec go state acc i =
    if i > n then List.rev acc
    else
      match state with
      | `Stable a -> go state (a :: acc) (i + 1)
      | `Growing (prev_env, prev_table) ->
        let env, table = next ~record:demanded cfg env_depth prev_env in
        let a = eval_i cfg env depth p in
        force env demanded;
        let stable =
          match prev_table with
          | Some prev -> tables_agree prev table
          | None -> false
        in
        let state =
          if stable then `Stable a else `Growing (env, Some table)
        in
        go state (a :: acc) (i + 1)
  in
  go (`Growing (bottom, None)) [ a0 ] 1
