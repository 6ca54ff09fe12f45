module Event = Csp_trace.Event
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Chan_expr = Csp_lang.Chan_expr
module Expr = Csp_lang.Expr
module Defs = Csp_lang.Defs
module Valuation = Csp_lang.Valuation
module Obs = Csp_obs.Obs

type visibility = Visible | Hidden

let vis_equal a b =
  match a, b with
  | Visible, Visible | Hidden, Hidden -> true
  | (Visible | Hidden), _ -> false

module Unfold_tbl = Hashtbl.Make (struct
  type t = string * Expr.t option

  let equal (n1, a1) (n2, a2) =
    String.equal n1 n2 && Option.equal Expr.equal a1 a2

  let hash (n, a) =
    ((Hashtbl.hash n * 31) + match a with None -> 0 | Some e -> Expr.hash e)
    land max_int
end)

module Trans_tbl = Hashtbl.Make (Int)

type config = {
  defs : Defs.t;
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  unfold_cache : Proc.t Unfold_tbl.t;
      (* (name, argument) → interned unfolding: a recursive network
         re-derives the same reference unfolding at every revisit, so
         unfold + intern happen once per (name, arg) per config *)
  trans_cache : (Event.t * visibility * Proc.t) list Trans_tbl.t;
      (* node id → full-fuel transition list; the relation depends on
         the state alone, so it is derived once per distinct state.
         Ids are never reused, so entries for collected nodes are dead
         weight, never wrong. *)
}

let config ?(sampler = Sampler.default) ?(unfold_fuel = 64) ?(hide_fuel = 16)
    defs =
  {
    defs;
    sampler;
    unfold_fuel;
    hide_fuel;
    unfold_cache = Unfold_tbl.create 64;
    trans_cache = Trans_tbl.create 256;
  }

exception Unproductive of string

(* Cache counters, exported as the [step.*] snapshot keys.  [Atomic]
   because derivations run on any domain ([fuzz --jobs], [serve]). *)
let unfold_hits = Atomic.make 0
let unfold_misses = Atomic.make 0
let trans_hits = Atomic.make 0
let trans_misses = Atomic.make 0
let op_hits = Atomic.make 0
let op_misses = Atomic.make 0
let sync_hits = Atomic.make 0
let sync_misses = Atomic.make 0

type stats = {
  unfold_hits : int;
  unfold_misses : int;
  trans_hits : int;
  trans_misses : int;
  op_hits : int;
  op_misses : int;
  sync_hits : int;
  sync_misses : int;
}

let stats () =
  {
    unfold_hits = Atomic.get unfold_hits;
    unfold_misses = Atomic.get unfold_misses;
    trans_hits = Atomic.get trans_hits;
    trans_misses = Atomic.get trans_misses;
    op_hits = Atomic.get op_hits;
    op_misses = Atomic.get op_misses;
    sync_hits = Atomic.get sync_hits;
    sync_misses = Atomic.get sync_misses;
  }

(* Expose the cache counters in [Obs.snapshot] (the CLI's `--stats` and
   `--stats-json` read the snapshot only). *)
let () =
  Obs.register_source "step" (fun () ->
      let s = stats () in
      [
        ("unfold_hits", Obs.Int s.unfold_hits);
        ("unfold_misses", Obs.Int s.unfold_misses);
        ("trans_hits", Obs.Int s.trans_hits);
        ("trans_misses", Obs.Int s.trans_misses);
        ("op_hits", Obs.Int s.op_hits);
        ("op_misses", Obs.Int s.op_misses);
        ("sync_hits", Obs.Int s.sync_hits);
        ("sync_misses", Obs.Int s.sync_misses);
      ])

let eval_chan c = Chan_expr.eval Valuation.empty c
let eval_expr e = Expr.eval Valuation.empty e

let unfold_i cfg n arg =
  match Unfold_tbl.find_opt cfg.unfold_cache (n, arg) with
  | Some q ->
    Atomic.incr unfold_hits;
    q
  | None ->
    Atomic.incr unfold_misses;
    let q = Proc.intern (Defs.unfold_ref cfg.defs Valuation.empty n arg) in
    Unfold_tbl.add cfg.unfold_cache (n, arg) q;
    q

(* ---- the walk memo ---------------------------------------------------- *)

(* By §3's law [P ||_{X,Y} Q = (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))] a network's
   moves are a function of its operands' moves, and one operand state
   sits in many network states.  A memo remembers, for one exploration
   walk, each [Par] operand's row and each partner's [sync_on]
   continuations, so a new network state re-derives only the operands
   that changed.

   A derivation's result does not depend on the fuel it starts with,
   only whether it runs out does.  Each entry therefore records the
   fuel its derivation needed — the deepest chain of reference
   unfoldings it went through, memo hits included — and is reused only
   where the current fuel covers that need.  Anywhere else the
   derivation runs again and raises [Unproductive] at the reference
   where the unmemoised derivation raises it. *)

module Sync_tbl = Hashtbl.Make (struct
  type t = int * Event.t

  let equal (i1, e1) (i2, e2) = Int.equal i1 i2 && Event.equal e1 e2
  let hash (i, e) = ((i * 31) + Event.hash e) land max_int
end)

type row = (Event.t * visibility * Proc.t) list

type memo = {
  ops : (row * int) Trans_tbl.t;  (* operand id -> row, fuel needed *)
  syncs : (Proc.t list * int) Sync_tbl.t;
      (* (partner id, event) -> continuations, fuel needed *)
  mutable low : int;
      (* the lowest fuel level the derivation being measured reached *)
  mutable m_op_hits : int;
  mutable m_op_misses : int;
  mutable m_sync_hits : int;
  mutable m_sync_misses : int;
}

let memo () =
  {
    ops = Trans_tbl.create 64;
    syncs = Sync_tbl.create 64;
    low = 0;
    m_op_hits = 0;
    m_op_misses = 0;
    m_sync_hits = 0;
    m_sync_misses = 0;
  }

let flush_count a n = if n > 0 then ignore (Atomic.fetch_and_add a n)

let flush_memo m =
  flush_count op_hits m.m_op_hits;
  flush_count op_misses m.m_op_misses;
  flush_count sync_hits m.m_sync_hits;
  flush_count sync_misses m.m_sync_misses;
  m.m_op_hits <- 0;
  m.m_op_misses <- 0;
  m.m_sync_hits <- 0;
  m.m_sync_misses <- 0

(* How a derivation unfolds references, and the walk's memo, if any:
   the interpreter has none. *)
type deriv = { unfold : string -> Expr.t option -> Proc.t; memo : memo option }

(* The derivation descends to fuel level [fuel]. *)
let reach d fuel =
  (match d.memo with Some m when fuel < m.low -> m.low <- fuel | _ -> ());
  fuel

(* A memo hit on an entry that needed [need]: the derivation reached
   [fuel - need]. *)
let covered m fuel need = if fuel - need < m.low then m.low <- fuel - need

(* [derive ()] and the fuel it needed. *)
let measure m fuel derive =
  let outer = m.low in
  m.low <- fuel;
  let r = derive () in
  let need = fuel - m.low in
  if outer < m.low then m.low <- outer;
  (r, need)

(* The derivation functions below take a [deriv], so the same code
   serves the interpreter (no memo) and a compile walk (the walk's
   memo). *)

(* Continuations of [p] after engaging in exactly the visible event [e].
   Unlike the transition enumeration below, inputs accept any value of
   their declared set — the passive side of a synchronisation must not
   be restricted to sampled values. *)
let rec sync_on d fuel (e : Event.t) p : Proc.t list =
  match Proc.node p with
  | Proc.Stop -> []
  | Proc.Output (c, ex, k) ->
    if
      Csp_trace.Channel.equal (eval_chan c) e.chan
      && Csp_trace.Value.equal (eval_expr ex) e.value
    then [ k ]
    else []
  | Proc.Input (c, x, m, k) ->
    if Csp_trace.Channel.equal (eval_chan c) e.chan && Csp_lang.Vset.mem m e.value
    then [ Proc.subst_value x e.value k ]
    else []
  | Proc.Choice (p1, p2) -> sync_on d fuel e p1 @ sync_on d fuel e p2
  | Proc.Par (xa, ya, p1, p2) ->
    let in_x = Proc.Alphabet.mem xa e.chan
    and in_y = Proc.Alphabet.mem ya e.chan in
    if in_x && in_y then
      List.concat_map
        (fun p1' ->
          List.map (fun p2' -> Proc.par xa ya p1' p2') (sync_op d fuel e p2))
        (sync_op d fuel e p1)
    else if in_x then
      List.map (fun p1' -> Proc.par xa ya p1' p2) (sync_op d fuel e p1)
    else if in_y then
      List.map (fun p2' -> Proc.par xa ya p1 p2') (sync_op d fuel e p2)
    else []
  | Proc.Hide (l, p1) ->
    (* events on concealed channels are not visible to the environment *)
    if Proc.Alphabet.mem l e.chan then []
    else List.map (fun p1' -> Proc.hide l p1') (sync_on d fuel e p1)
  | Proc.Ref (n, arg) ->
    if fuel <= 0 then raise (Unproductive n)
    else sync_on d (reach d (fuel - 1)) e (d.unfold n arg)

(* [sync_on] on an operand of a [Par], through the memo. *)
and sync_op d fuel e p =
  match d.memo with
  | None -> sync_on d fuel e p
  | Some m -> (
    let key = (Proc.id p, e) in
    match Sync_tbl.find_opt m.syncs key with
    | Some (ks, need) when need <= fuel ->
      m.m_sync_hits <- m.m_sync_hits + 1;
      covered m fuel need;
      ks
    | _ ->
      m.m_sync_misses <- m.m_sync_misses + 1;
      let ((ks, _) as entry) = measure m fuel (fun () -> sync_on d fuel e p) in
      Sync_tbl.replace m.syncs key entry;
      ks)

(* Merge transition lists, unioning nothing: duplicates are removed per
   parallel node; the closure union deduplicates the rest. *)
let rec transitions_fuel cfg d fuel p : row =
  match Proc.node p with
  | Proc.Stop -> []
  | Proc.Output (c, e, k) ->
    [ (Event.make (eval_chan c) (eval_expr e), Visible, k) ]
  | Proc.Input (c, x, m, k) ->
    let chan = eval_chan c in
    List.map
      (fun v -> (Event.make chan v, Visible, Proc.subst_value x v k))
      (Sampler.sample cfg.sampler m)
  | Proc.Choice (p1, p2) ->
    transitions_fuel cfg d fuel p1 @ transitions_fuel cfg d fuel p2
  | Proc.Par (xa, ya, p1, p2) ->
    let t1 = transitions_op cfg d fuel p1 in
    let t2 = transitions_op cfg d fuel p2 in
    let left =
      List.concat_map
        (fun ((e : Event.t), vis, p1') ->
          match vis with
          | Hidden -> [ (e, Hidden, Proc.par xa ya p1' p2) ]
          | Visible ->
            if Proc.Alphabet.mem ya e.chan then
              (* shared channel: both operands must engage in the event;
                 the partner accepts any value of its declared input set *)
              List.map
                (fun p2' -> (e, Visible, Proc.par xa ya p1' p2'))
                (sync_op d fuel e p2)
            else [ (e, Visible, Proc.par xa ya p1' p2) ])
        t1
    in
    let right =
      List.concat_map
        (fun ((e : Event.t), vis, p2') ->
          match vis with
          | Hidden -> [ (e, Hidden, Proc.par xa ya p1 p2') ]
          | Visible ->
            if Proc.Alphabet.mem xa e.chan then
              List.map
                (fun p1' -> (e, Visible, Proc.par xa ya p1' p2'))
                (sync_op d fuel e p1)
            else [ (e, Visible, Proc.par xa ya p1 p2') ])
        t2
    in
    (* Synchronisations reachable from both sides appear twice; remove
       exact duplicates.  Targets are compared by pointer first and
       visibility by explicit variant match — interning makes the
       whole triple comparison O(1). *)
    let triple_equal (e1, v1, q1) (e2, v2, q2) =
      Proc.equal q1 q2 && vis_equal v1 v2 && Event.equal e1 e2
    in
    List.rev
      (List.fold_left
         (fun acc t ->
           if List.exists (triple_equal t) acc then acc else t :: acc)
         [] (left @ right))
  | Proc.Hide (l, p1) ->
    List.map
      (fun ((e : Event.t), vis, p1') ->
        let vis = if Proc.Alphabet.mem l e.chan then Hidden else vis in
        (e, vis, Proc.hide l p1'))
      (transitions_fuel cfg d fuel p1)
  | Proc.Ref (n, arg) ->
    if fuel <= 0 then raise (Unproductive n)
    else transitions_fuel cfg d (reach d (fuel - 1)) (d.unfold n arg)

(* The row of an operand of a [Par], through the memo. *)
and transitions_op cfg d fuel p =
  match d.memo with
  | None -> transitions_fuel cfg d fuel p
  | Some m -> (
    match Trans_tbl.find_opt m.ops (Proc.id p) with
    | Some (ts, need) when need <= fuel ->
      m.m_op_hits <- m.m_op_hits + 1;
      covered m fuel need;
      ts
    | _ ->
      m.m_op_misses <- m.m_op_misses + 1;
      let ((ts, _) as entry) =
        measure m fuel (fun () -> transitions_fuel cfg d fuel p)
      in
      Trans_tbl.replace m.ops (Proc.id p) entry;
      ts)

(* Transitions always start from full fuel, so the state alone keys the
   row cache (fuel only varies inside one derivation, through
   references). *)
let transitions_i cfg p =
  match Trans_tbl.find_opt cfg.trans_cache (Proc.id p) with
  | Some ts ->
    Atomic.incr trans_hits;
    ts
  | None ->
    Atomic.incr trans_misses;
    let d = { unfold = unfold_i cfg; memo = None } in
    let ts = transitions_fuel cfg d cfg.unfold_fuel p in
    Trans_tbl.add cfg.trans_cache (Proc.id p) ts;
    ts

(* A state-vector leaf of [Compiled]'s walk is a [Par] operand whose
   parent is not a term: its row and its partners' synchronisations
   go through the memo exactly as [transitions_op] and [sync_op] take
   them from inside a [Par] node. *)
let leaf_deriv cfg m = { unfold = unfold_i cfg; memo = Some m }
let leaf_row cfg m ~fuel p = transitions_op cfg (leaf_deriv cfg m) fuel p
let leaf_sync cfg m ~fuel e p = sync_op (leaf_deriv cfg m) fuel e p

let tau_reachable_i cfg p =
  let rec go budget acc p =
    let acc = p :: acc in
    if budget <= 0 then acc
    else
      List.fold_left
        (fun acc (_, vis, p') ->
          match vis with Hidden -> go (budget - 1) acc p' | Visible -> acc)
        acc (transitions_i cfg p)
  in
  go cfg.hide_fuel [] p

let after_i cfg p e =
  (* [sync_on] rather than a filter over [transitions]: the derivative
     must accept any declared input value, not only sampled ones. *)
  let d = { unfold = unfold_i cfg; memo = None } in
  List.concat_map
    (fun q -> sync_on d cfg.unfold_fuel e q)
    (tau_reachable_i cfg p)

let rec accepts_trace_i cfg p = function
  | [] -> true
  | e :: rest ->
    List.exists (fun q -> accepts_trace_i cfg q rest) (after_i cfg p e)

let is_deadlocked_i cfg p =
  match transitions_i cfg p with [] -> true | _ :: _ -> false

module Traces_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) =
    Int.equal a1 a2 && Int.equal b1 b2 && Int.equal c1 c2

  let hash (a, b, c) = ((((a * 31) + b) * 31) + c) land max_int
end

module Traces_memo = Hashtbl.Make (Traces_key)

let traces_i cfg ~depth p =
  Obs.span ~cat:"step" "traces"
    ~args:(fun () -> [ ("depth", Obs.Int depth) ])
  @@ fun () ->
  (* Memoised on (node id, depth, hidden budget): recursive networks
     revisit the same state at many points of the exploration tree, and
     the closure of a state is independent of how it was reached.
     States are globally interned, so no per-call interning pass is
     needed and the transition relation is shared across calls through
     [cfg.trans_cache]. *)
  let memo = Traces_memo.create 256 in
  let rec go d hidden_budget p =
    if d <= 0 then Closure.empty
    else
      let key = (Proc.id p, d, hidden_budget) in
      match Traces_memo.find_opt memo key with
      | Some c -> c
      | None ->
        let c =
          List.fold_left
            (fun acc (e, vis, p') ->
              match vis with
              | Visible ->
                Closure.union acc
                  (Closure.prefix e (go (d - 1) cfg.hide_fuel p'))
              | Hidden ->
                if hidden_budget <= 0 then acc
                else Closure.union acc (go d (hidden_budget - 1) p'))
            Closure.empty (transitions_i cfg p)
        in
        Traces_memo.add memo key c;
        c
  in
  go depth cfg.hide_fuel p

(* Plain-AST entry points: intern, run on the IR, project back. *)

let transitions cfg p =
  List.map
    (fun (e, vis, q) -> (e, vis, Proc.to_process q))
    (transitions_i cfg (Proc.intern p))

let after cfg p e = List.map Proc.to_process (after_i cfg (Proc.intern p) e)
let accepts_trace cfg p s = accepts_trace_i cfg (Proc.intern p) s
let is_deadlocked cfg p = is_deadlocked_i cfg (Proc.intern p)
let traces cfg ~depth p = traces_i cfg ~depth (Proc.intern p)
