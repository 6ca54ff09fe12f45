module Event = Csp_trace.Event
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Alphabet = Proc.Alphabet
module Obs = Csp_obs.Obs

let compiles = Obs.Counter.make "compiled.compiles"
let states_compiled = Obs.Counter.make "compiled.states"
let fallback_rows = Obs.Counter.make "compiled.fallbacks"
let leaves_compiled = Obs.Counter.make "compiled.leaves"
let leaf_terms_compiled = Obs.Counter.make "compiled.leaf_terms"
let compile_ms_gauge = Obs.Gauge.make "compiled.compile_ms"
let compile_timer = Obs.Timer.make "compiled.compile"

module Int_tbl = Hashtbl.Make (Int)

(* The root's skeleton: the [Par] and [Hide] nodes reached from its
   body, with the operand terms below them numbered left to right as
   the positions of a state vector.  Every move of a network keeps
   its [Par]/[Hide] nodes and changes only operands, so one skeleton
   spells every reachable state. *)
type skel =
  | Leaf of int
  | Par of int * int * skel * skel  (* the alphabet slots of X and Y *)
  | Hide of int * skel

(* The network's automaton: a state-vector walk ({!Walk}) whose
   position [i] holds the id of the term at the skeleton's [i]th leaf.
   When the root is a reference to a network, state 0 is that
   reference: its slice holds the body's vector (its row is the
   body's) but is unslotted, so the body reached later gets an id of
   its own, as the interpreter's term does.  Leaf term ids and the
   walk's event keys are the automaton's own. *)
type t = {
  cfg : Step.config;
  root : Proc.t;
  skel : skel;
  width : int;
  root_ref : bool;
  root_fuel : int;  (* unfold fuel left at state 0's skeleton *)
  alphabets : Alphabet.t array;  (* the skeleton's, by slot *)
  mutable member : Bytes.t;
      (* [event key * slots + slot] -> '\001' not in the alphabet,
         '\002' in it, '\000' not asked yet *)
  mutable leaf_terms : Proc.t array;  (* leaf term id -> term *)
  mutable n_leaf_terms : int;
  leaf_of : int Int_tbl.t;  (* node id -> leaf term id *)
  mutable leaf_syncs : (int * int list) list array;
      (* leaf term id -> event key -> its continuations as a partner *)
  mutable pos_moves : Walk.move list option array;
      (* [leaf term id * width + position] -> its moves there *)
  w : Walk.t;
  mutable n_fallbacks : int;
}

let root t = t.root
let config t = t.cfg
let n_states t = t.w.Walk.n_states
let n_transitions t = t.w.Walk.pk_len
let n_events t = t.w.Walk.n_events
let fallbacks t = t.n_fallbacks
let leaves t = t.width
let leaf_terms t = t.n_leaf_terms

let n_rows t =
  let n = ref 0 in
  for s = 0 to n_states t - 1 do
    if t.w.Walk.row_off.(s) >= 0 then incr n
  done;
  !n

let intern_leaf t (q : Proc.t) =
  match Int_tbl.find_opt t.leaf_of (Proc.id q) with
  | Some l -> l
  | None ->
    let l = t.n_leaf_terms in
    if l >= Array.length t.leaf_terms then begin
      t.leaf_terms <- Walk.grow t.leaf_terms (l + 1) q;
      t.leaf_syncs <- Walk.grow t.leaf_syncs (l + 1) [];
      t.pos_moves <- Walk.grow t.pos_moves ((l + 1) * t.width) None
    end;
    t.leaf_terms.(l) <- q;
    Int_tbl.add t.leaf_of (Proc.id q) l;
    t.n_leaf_terms <- l + 1;
    Obs.Counter.incr leaf_terms_compiled;
    l

(* ---- terms on demand --------------------------------------------------- *)

(* State [s]'s term, built over its vector by [leaf], [par] and
   [hide]. *)
let build t s ~leaf ~par ~hide =
  let off = s * t.width in
  let rec go = function
    | Leaf i -> leaf t.leaf_terms.(t.w.Walk.vecs.(off + i))
    | Par (x, y, l, r) ->
      let l = go l in
      par t.alphabets.(x) t.alphabets.(y) l (go r)
    | Hide (h, k) -> hide t.alphabets.(h) (go k)
  in
  go t.skel

let node t s =
  if s = 0 && t.root_ref then t.root
  else build t s ~leaf:Fun.id ~par:Proc.par ~hide:Proc.hide

(* The plain term interns no node: a replay packaged as an [Lts.t]
   costs allocation only. *)
let process t s =
  if s = 0 && t.root_ref then Proc.to_process t.root
  else
    build t s ~leaf:Proc.to_process
      ~par:(fun xa ya p q ->
        Process.Par (Alphabet.set xa, Alphabet.set ya, p, q))
      ~hide:(fun l p -> Process.Hide (Alphabet.set l, p))

let state_of t (q : Proc.t) =
  if Proc.equal q t.root then Some 0
  else
    let v = Array.make t.width 0 in
    let rec split sk (q : Proc.t) =
      match sk, Proc.node q with
      | Leaf i, _ -> (
        match Int_tbl.find_opt t.leaf_of (Proc.id q) with
        | Some l ->
          v.(i) <- l;
          true
        | None -> false)
      | Par (x, y, l, r), Proc.Par (xa, ya, q1, q2) ->
        t.alphabets.(x) == xa && t.alphabets.(y) == ya && split l q1
        && split r q2
      | Hide (h, k), Proc.Hide (l, q1) -> t.alphabets.(h) == l && split k q1
      | (Par _ | Hide _), _ -> false
    in
    if split t.skel q then
      let s = Walk.find t.w v in
      if s >= 0 then Some s else None
    else None

(* ---- deriving a row from a vector ------------------------------------ *)

(* Is event key [eid]'s channel in the alphabet of slot [a]?  Asked
   once per event and slot. *)
let mem t a eid =
  let slots = Array.length t.alphabets in
  let k = (eid * slots) + a in
  if k >= Bytes.length t.member then begin
    let b = Bytes.make (max (k + 1) (2 * Bytes.length t.member)) '\000' in
    Bytes.blit t.member 0 b 0 (Bytes.length t.member);
    t.member <- b
  end;
  match Bytes.get t.member k with
  | '\001' -> false
  | '\002' -> true
  | _ ->
    let m = Alphabet.mem t.alphabets.(a) t.w.Walk.keys.(eid).Event.chan in
    Bytes.set t.member k (if m then '\002' else '\001');
    m

(* A leaf term's continuations as the partner in event [eid], in ids.
   This and [leaf_moves] derive through the walk's memo and keep what
   they derived.  Only state 0's row is derived below full fuel, and
   it is the first row any automaton derives, so an entry is never
   read at less fuel than it was derived with. *)
let leaf_sync t memo ~fuel eid l =
  match List.assq_opt eid t.leaf_syncs.(l) with
  | Some ks -> ks
  | None ->
    let ks =
      List.map (intern_leaf t)
        (Step.leaf_sync t.cfg memo ~fuel t.w.Walk.keys.(eid) t.leaf_terms.(l))
    in
    t.leaf_syncs.(l) <- (eid, ks) :: t.leaf_syncs.(l);
    ks

(* A move of a skeleton node, as [Step.transitions_fuel] derives it for
   the node's term: its event key and visibility, and the leaves it
   changes, as [id * width + position] codes in ascending position.  A
   leaf whose target is its current term is not listed, so two moves
   reach the same term exactly when their change lists are equal. *)
let same_move ((e1, v1, d1) : Walk.move) ((e2, v2, d2) : Walk.move) =
  Int.equal e1 e2 && Bool.equal v1 v2 && List.equal Int.equal d1 d2

let rec listed m = function
  | [] -> false
  | m' :: ms -> same_move m m' || listed m ms

(* The moves of leaf term [l] at position [i], last first. *)
let leaf_moves t memo ~fuel i l =
  let k = (l * t.width) + i in
  match t.pos_moves.(k) with
  | Some ms -> ms
  | None ->
    let ms =
      List.rev_map
        (fun (e, vis, q) ->
          let l' = intern_leaf t q in
          ( Walk.event_key t.w e,
            (match (vis : Step.visibility) with
            | Step.Visible -> true
            | Step.Hidden -> false),
            if l' = l then [] else [ (l' * t.width) + i ] ))
        (Step.leaf_row t.cfg memo ~fuel t.leaf_terms.(l))
    in
    t.pos_moves.(k) <- Some ms;
    ms

(* State [s]'s row, last move first: the interpreter's combination,
   level by level, of its leaves' rows and their partners'
   synchronisations.  Each level lists its moves in the interpreter's
   order (left moves, then right moves, partners in order) and keeps
   the first of exact duplicates.  The evaluation order is the
   interpreter's too, so the same [Unproductive] escapes when a leaf
   runs out of fuel. *)
let derive t memo s =
  let off = s * t.width in
  let vecs = t.w.Walk.vecs in
  let fuel = if s = 0 then t.root_fuel else t.cfg.Step.unfold_fuel in
  let rec syncs e = function
    | Leaf i ->
      let l = vecs.(off + i) in
      List.map
        (fun l' -> if l' = l then [] else [ (l' * t.width) + i ])
        (leaf_sync t memo ~fuel e l)
    | Par (x, y, l, r) -> (
      let in_x = mem t x e and in_y = mem t y e in
      if in_x && in_y then
        match syncs e l with
        | [] -> []
        | d1s ->
          let d2s = syncs e r in
          List.concat_map (fun d1 -> List.map (fun d2 -> d1 @ d2) d2s) d1s
      else if in_x then syncs e l
      else if in_y then syncs e r
      else [])
    | Hide (h, k) -> if mem t h e then [] else syncs e k
  in
  let add acc m = if listed m acc then acc else m :: acc in
  (* [fold_right] over a list kept last first visits it first to last *)
  let rec moves = function
    | Leaf i -> leaf_moves t memo ~fuel i vecs.(off + i)
    | Par (x, y, l, r) ->
      let t1 = moves l in
      let t2 = moves r in
      let left =
        List.fold_right
          (fun ((e, visible, d1) as m : Walk.move) acc ->
            if visible && mem t y e then
              List.fold_left
                (fun acc d2 -> add acc (e, true, d1 @ d2))
                acc (syncs e r)
            else add acc m)
          t1 []
      in
      List.fold_right
        (fun ((e, visible, d2) as m : Walk.move) acc ->
          if visible && mem t x e then
            List.fold_left
              (fun acc d1 -> add acc (e, true, d1 @ d2))
              acc (syncs e l)
          else add acc m)
        t2 left
    | Hide (h, k) ->
      List.map
        (fun ((e, visible, d) as m : Walk.move) ->
          if visible && mem t h e then (e, false, d) else m)
        (moves k)
  in
  moves t.skel

let count_fallback t =
  t.n_fallbacks <- t.n_fallbacks + 1;
  Obs.Counter.incr fallback_rows

(* Rows through a walk's memo, flushed when they are in. *)
let with_memo f =
  let memo = Step.memo () in
  Fun.protect ~finally:(fun () -> Step.flush_memo memo) (fun () -> f memo)

let materialise t s =
  if t.w.Walk.row_off.(s) < 0 then begin
    count_fallback t;
    with_memo (fun memo -> Walk.append_row t.w s (derive t memo s))
  end

(* ---- building the automaton ------------------------------------------ *)

(* The root's body: its references unfolded as the interpreter unfolds
   them, with the fuel left at the body. *)
let rec body cfg fuel (p : Proc.t) =
  match Proc.node p with
  | Proc.Ref (n, arg) ->
    if fuel <= 0 then raise (Step.Unproductive n)
    else body cfg (fuel - 1) (Step.unfold_i cfg n arg)
  | _ -> (p, fuel)

let create cfg (root : Proc.t) =
  let b, b_fuel = body cfg cfg.Step.unfold_fuel root in
  let start = ref [] and width = ref 0 and alphabets = ref [] in
  let slot a =
    alphabets := a :: !alphabets;
    List.length !alphabets - 1
  in
  let rec skeleton (p : Proc.t) =
    match Proc.node p with
    | Proc.Par (xa, ya, p1, p2) ->
      let x = slot xa in
      let y = slot ya in
      let l = skeleton p1 in
      Par (x, y, l, skeleton p2)
    | Proc.Hide (h, p1) ->
      let h = slot h in
      Hide (h, skeleton p1)
    | _ ->
      start := p :: !start;
      incr width;
      Leaf (!width - 1)
  in
  let skel, root_ref, root_fuel =
    match Proc.node b with
    | Proc.Par _ | Proc.Hide _ -> (skeleton b, not (Proc.equal b root), b_fuel)
    | _ -> (skeleton root, false, cfg.Step.unfold_fuel)
  in
  let width = !width in
  let t =
    {
      cfg;
      root;
      skel;
      width;
      root_ref;
      root_fuel;
      alphabets = Array.of_list (List.rev !alphabets);
      member = Bytes.make 256 '\000';
      leaf_terms = Array.make 16 root;
      n_leaf_terms = 0;
      leaf_of = Int_tbl.create 64;
      leaf_syncs = Array.make 16 [];
      pos_moves = Array.make (16 * width) None;
      w = Walk.create ~count:states_compiled width;
      n_fallbacks = 0;
    }
  in
  Obs.Counter.add leaves_compiled width;
  let v = Array.of_list (List.map (intern_leaf t) (List.rev !start)) in
  Walk.add_root t.w v ~slotted:(not root_ref);
  t

(* The building walk through the walk's memo: a leaf term's row and
   synchronisations come from a memo that lives as long as the walk
   (it serves the networks inside leaf terms) and are kept, in ids, by
   the automaton, so a later walk derives only leaf terms it has not
   met. *)
let compile ?(budget = 200_000) cfg p =
  Obs.Counter.incr compiles;
  Obs.span ~cat:"compiled" "compile"
    ~args:(fun () -> [ ("budget", Obs.Int budget) ])
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = create cfg (Proc.intern p) in
  (* the first [budget] states in discovery order get rows, their
     targets get ids; it records no transitions *)
  with_memo (fun memo ->
      ignore
        (Walk.walk t.w ~max_states:budget ~derive:(derive t memo)
           ~edge:(fun _ _ _ -> ())));
  let ms = (Obs.now_ns () -. t0) /. 1e6 in
  Obs.Gauge.set compile_ms_gauge ms;
  Obs.Timer.observe_ns compile_timer (ms *. 1e6);
  t

(* ---- queries by state id ---------------------------------------------- *)

let out_degree t s =
  materialise t s;
  t.w.Walk.row_len.(s)

let event_id t s i = t.w.Walk.pk_event.(t.w.Walk.row_off.(s) + i)

let label t s i =
  let k = t.w.Walk.row_off.(s) + i in
  ( t.w.Walk.events.(t.w.Walk.pk_event.(k)),
    if Bytes.get t.w.Walk.pk_visible k = '\000' then Step.Hidden
    else Step.Visible )

let target t s i = t.w.Walk.pk_target.(t.w.Walk.row_off.(s) + i)
let event t id = t.w.Walk.events.(id)

let transitions_i t q =
  match state_of t q with
  | None -> Step.transitions_i t.cfg q
  | Some s ->
    List.init (out_degree t s) (fun i ->
        let e, vis = label t s i in
        (e, vis, node t (target t s i)))

(* ---- raw exploration -------------------------------------------------- *)

type raw = Walk.raw = { graph : Dot.graph; state : int -> int }

(* Every walk but the building one counts the rows it appends as lazy
   materialisations. *)
let explore_raw ?(max_states = 2000) t =
  Obs.span ~cat:"explore" "explore-compiled"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () ->
  with_memo (fun memo ->
      Walk.explore_raw t.w ~max_states ~derive:(fun s ->
          count_fallback t;
          derive t memo s))
