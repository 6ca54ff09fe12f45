module Channel = Csp_trace.Channel
module Event = Csp_trace.Event
module Trace = Csp_trace.Trace
module Expr = Csp_lang.Expr
module Vset = Csp_lang.Vset
module Chan_expr = Csp_lang.Chan_expr
module Valuation = Csp_lang.Valuation
module Process = Csp_lang.Process
module Defs = Csp_lang.Defs
module Proc = Csp_lang.Proc
module Step = Csp_semantics.Step
module Walk = Csp_semantics.Walk
module Dot = Csp_semantics.Dot
module Obs = Csp_obs.Obs

type family = {
  name : string;
  context : Process.t option;
  replicas : (string * Process.t * (int -> int)) list;
  defs : Defs.t;
  sync_bases : string list;
  cutoff : int;
}

type result = {
  graph : Dot.graph;
  legend : (int * Process.t) list;
  omega_collapses : int;
}

let c_states = Obs.Counter.make "abstraction.quotient_states"
let c_collapses = Obs.Counter.make "abstraction.collapses"

(* ---- local offers, with direction ------------------------------------- *)

type dir = Send | Recv

(* Communication capabilities of a sequential local process: unlike
   {!Step.transitions_i}, offers keep the send/receive distinction,
   which the pairwise rendezvous rule needs (two receives must not
   pair).  Templates are closed and index-erased, so channel and
   message expressions evaluate under the empty valuation. *)
let rec offers ~bound cfg fuel p =
  if fuel < 0 then raise (Step.Unproductive "Counter: unguarded family template");
  match Proc.node p with
  | Proc.Stop -> []
  | Proc.Output (ce, e, k) ->
    let c = Chan_expr.eval Valuation.empty ce in
    let v = Expr.eval Valuation.empty e in
    [ (Send, Event.make c v, k) ]
  | Proc.Input (ce, x, m, k) ->
    let c = Chan_expr.eval Valuation.empty ce in
    List.map
      (fun v -> (Recv, Event.make c v, Proc.subst_value x v k))
      (Vset.enumerate_bounded ~bound m)
  | Proc.Choice (a, b) -> offers ~bound cfg fuel a @ offers ~bound cfg fuel b
  | Proc.Ref (nm, arg) -> offers ~bound cfg (fuel - 1) (Step.unfold_i cfg nm arg)
  | Proc.Par _ | Proc.Hide _ ->
    invalid_arg "Counter: family templates must be sequential"

let max_locals = 4096

(* Every local state the roots reach by offers, numbered as first met:
   their terms and offers, continuations by number.  Counts are kept
   per local state, so their number is capped. *)
let universe ~bound ~unfold_fuel cfg roots =
  let index = Hashtbl.create 16 and locals = Hashtbl.create 16 in
  let rec visit p =
    match Hashtbl.find_opt index (Proc.id p) with
    | Some u -> u
    | None ->
      let u = Hashtbl.length index in
      if u >= max_locals then
        invalid_arg "Counter: family templates reach too many local states";
      Hashtbl.add index (Proc.id p) u;
      let os = offers ~bound cfg unfold_fuel p in
      Hashtbl.add locals u (p, List.map (fun (d, ev, k) -> (d, ev, visit k)) os);
      u
  in
  List.iter (fun p -> ignore (visit p)) roots;
  (Array.init (Hashtbl.length locals) (Hashtbl.find locals), visit)

(* ---- abstract states --------------------------------------------------- *)

(* The replica counts at [n], templates with equal terms merged, in
   declaration order and saturated at the cutoff (ω is [cutoff + 1]);
   and how many counts saturated. *)
let initial_counts (fam : family) ~n =
  let omega = fam.cutoff + 1 in
  List.fold_left
    (fun (counts, collapses) (_, tmpl, count_of) ->
      let r = count_of n in
      if r <= 0 then (counts, collapses)
      else
        let p = Proc.intern tmpl in
        let prev = Option.value (List.assq_opt p counts) ~default:0 in
        let c = min omega (prev + r) in
        ( (if prev = 0 then counts @ [ (p, c) ]
           else List.map (fun (q, c') -> (q, if q == p then c else c')) counts),
          if c = omega && prev < omega then collapses + 1 else collapses ))
    ([], 0) fam.replicas

let initial_signature fam ~n =
  String.concat " "
    (List.map
       (fun (p, c) -> Printf.sprintf "%d^%d" (Proc.id p) c)
       (fst (initial_counts fam ~n)))

(* ---- the quotient's walk ----------------------------------------------- *)

(* A state is a vector: position 0 holds the context's local state
   (-1 without one), position [1 + u] the count of local state [u]
   (ω is [cutoff + 1]).  Local states get legend numbers in
   discovery order: the context first, then the templates
   in declaration order, then each expansion's incremented replica
   states as its successors are generated (for a pair, [k2] before
   [k1]), then its new context states.  Successors are generated
   walking the occupied local states in legend order, so these numbers
   decide the BFS numbering. *)
let explore ?(max_states = 4000) ?(bound = 2) ?(unfold_fuel = 64)
    (fam : family) ~n =
  if fam.cutoff < 1 then invalid_arg "Counter.explore: cutoff must be >= 1";
  let cfg = Step.config ~unfold_fuel fam.defs in
  let ctx = Option.map Proc.intern fam.context in
  let counts, collapses = initial_counts fam ~n in
  let locals, index =
    universe ~bound ~unfold_fuel cfg (Option.to_list ctx @ List.map fst counts)
  in
  let n_locals = Array.length locals and omega = fam.cutoff + 1 in
  let width = 1 + n_locals in
  let w = Walk.create width in
  let sync ev = List.mem (Channel.base ev.Event.chan) fam.sync_bases in
  let offers =
    Array.map
      (fun (_, os) ->
        List.map (fun (d, ev, k) -> (d, Walk.event_key w ev, sync ev, k)) os)
      locals
  in
  let num = Array.make n_locals (-1) and by_num = Array.make n_locals 0 in
  let n_num = ref 0 in
  let number u =
    if num.(u) < 0 then begin
      num.(u) <- !n_num;
      by_num.(!n_num) <- u;
      incr n_num
    end
  in
  let v = Array.make width 0 in
  (match ctx with
  | Some c ->
    number (index c);
    v.(0) <- index c
  | None -> v.(0) <- -1);
  List.iter
    (fun (p, c) ->
      number (index p);
      v.(1 + index p) <- c)
    counts;
  Walk.add_root w v ~slotted:true;
  let collapses = ref collapses in
  let derive s =
    (* the successor being built: the source's vector, changed in place
       for each move and changed back *)
    let cur = Array.sub w.Walk.vecs (s * width) width in
    let with_value p c k =
      let old = cur.(p) in
      cur.(p) <- c;
      k ();
      cur.(p) <- old
    in
    let inc u k =
      match cur.(1 + u) with
      | c when c = omega -> k ()
      | c when c = fam.cutoff ->
        incr collapses;
        with_value (1 + u) omega k
      | c -> with_value (1 + u) (c + 1) k
    in
    (* ω − 1 is ω or exactly the cutoff: both successors are produced,
       so the abstraction stays an over-approximation whichever the
       concrete count was *)
    let dec u k =
      match cur.(1 + u) with
      | 0 -> ()
      | c when c = omega ->
        k ();
        with_value (1 + u) fam.cutoff k
      | c -> with_value (1 + u) (c - 1) k
    in
    (* two occupants of one local state: ω − 2 ∈ {ω, cutoff, cutoff − 1} *)
    let dec2 u k =
      match cur.(1 + u) with
      | c when c = omega ->
        k ();
        with_value (1 + u) fam.cutoff k;
        with_value (1 + u) (fam.cutoff - 1) k
      | c -> with_value (1 + u) (c - 2) k
    in
    let acc = ref [] in
    (* the move to [cur], listing the positions it may have changed *)
    let emit key ps =
      let ps = List.sort_uniq Int.compare ps in
      acc := (key, true, List.map (fun p -> (cur.(p) * width) + p) ps) :: !acc
    in
    let occupied =
      List.filter
        (fun u -> cur.(1 + u) > 0)
        (List.init !n_num (fun j -> by_num.(j)))
    in
    let ctx_offers = if cur.(0) < 0 then [] else offers.(cur.(0)) in
    (* each synchronised offer of [o1] with a partner in [o2] *)
    let partners dirs o1 o2 f =
      List.iter
        (fun (d1, key1, sy1, k1) ->
          if sy1 then
            List.iter
              (fun (d2, key2, sy2, k2) ->
                if sy2 && key1 = key2 && dirs d1 d2 then f key1 k1 k2)
              o2)
        o1
    in
    let solo key u k ps =
      dec u (fun () ->
          inc k (fun () ->
              number k;
              emit key ((1 + u) :: (1 + k) :: ps)))
    in
    let pair key k1 k2 ps =
      inc k1 (fun () ->
          inc k2 (fun () ->
              number k2;
              number k1;
              emit key ((1 + k1) :: (1 + k2) :: ps)))
    in
    (* solo context steps *)
    List.iter
      (fun (_, key, sy, k) ->
        if not sy then with_value 0 k (fun () -> emit key [ 0 ]))
      ctx_offers;
    (* solo replica steps *)
    List.iter
      (fun u ->
        List.iter
          (fun (_, key, sy, k) -> if not sy then solo key u k [])
          offers.(u))
      occupied;
    (* context ↔ replica rendezvous *)
    List.iter
      (fun oc ->
        List.iter
          (fun u ->
            partners ( <> ) [ oc ] offers.(u) (fun key kc kr ->
                with_value 0 kc (fun () -> solo key u kr [ 0 ])))
          occupied)
      ctx_offers;
    (* replica ↔ replica rendezvous, distinct local states *)
    let rec pairs = function
      | [] -> ()
      | u1 :: rest ->
        List.iter
          (fun u2 ->
            partners ( <> ) offers.(u1) offers.(u2) (fun key k1 k2 ->
                dec u1 (fun () ->
                    dec u2 (fun () -> pair key k1 k2 [ 1 + u1; 1 + u2 ]))))
          rest;
        pairs rest
    in
    pairs occupied;
    (* replica ↔ replica rendezvous within one local state (needs two
       occupants), sender first so each pairing is emitted once *)
    List.iter
      (fun u ->
        if cur.(1 + u) >= 2 then
          partners
            (fun d1 d2 -> d1 = Send && d2 = Recv)
            offers.(u) offers.(u)
            (fun key k1 k2 -> dec2 u (fun () -> pair key k1 k2 [ 1 + u ])))
      occupied;
    (* the new context states, in the order of their successors *)
    List.fold_right
      (fun (_, _, d) () ->
        match d with c :: _ when c mod width = 0 -> number (c / width) | _ -> ())
      !acc ();
    !acc
  in
  let g = (Walk.explore_raw w ~max_states ~derive).Walk.graph in
  Obs.Counter.add c_states g.Dot.n_states;
  Obs.Counter.add c_collapses !collapses;
  {
    graph = g;
    legend =
      List.init !n_num (fun j -> (j, Proc.to_process (fst locals.(by_num.(j)))));
    omega_collapses = !collapses;
  }

(* ---- trace queries over the quotient's rows ---------------------------- *)

(* The graph's subset automaton: its initial set, the visible events
   leaving a set, and the set one of them steps to.  Sets are sorted
   and closed under hidden edges; cut moves lead nowhere. *)
let subsets (g : Dot.graph) =
  (* per state, the pool slots of its moves that are not cut *)
  let out =
    Array.init g.Dot.n_states (fun s ->
        let off = g.Dot.row_off.(s) in
        List.filter
          (fun p -> g.Dot.tgt.(p) < g.Dot.n_states)
          (List.init g.Dot.row_len.(s) (fun i -> off + i)))
  in
  let visible p = Bytes.get g.Dot.visible p <> '\000' in
  let along set f =
    List.sort_uniq Int.compare
      (List.concat_map (fun s -> List.filter_map f out.(s)) set)
  in
  let rec closure set =
    let set' =
      List.sort_uniq Int.compare
        (set @ along set (fun p -> if visible p then None else Some g.Dot.tgt.(p)))
    in
    if List.compare_lengths set' set = 0 then set else closure set'
  in
  let events set = along set (fun p -> if visible p then Some g.Dot.event.(p) else None) in
  let step set e =
    closure
      (along set (fun p ->
           if visible p && g.Dot.event.(p) = e then Some g.Dot.tgt.(p) else None))
  in
  (closure [ g.Dot.initial ], events, step)

let accepts g =
  let init, events, step = subsets g in
  let truncated = Array.init g.Dot.n_states (Dot.truncated g) in
  let rec go set = function
    | [] -> true
    | _ :: _ when List.exists (fun s -> truncated.(s)) set ->
      (* the trace may continue through dropped transitions *)
      true
    | ev :: rest -> (
      match
        List.find_opt (fun e -> Event.equal g.Dot.events.(e) ev) (events set)
      with
      | Some e -> go (step set e) rest
      | None -> false)
  in
  go init

(* The subset automaton is deterministic: each trace is met once. *)
let visible_traces g ~depth =
  let init, events, step = subsets g in
  let rec go set rev_tr len acc =
    let acc = List.rev rev_tr :: acc in
    if len >= depth then acc
    else
      List.fold_left
        (fun acc e -> go (step set e) (g.Dot.events.(e) :: rev_tr) (len + 1) acc)
        acc (events set)
  in
  List.sort Trace.compare (go init [] 0 [])
