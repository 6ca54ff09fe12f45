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

(* The flat automaton.  State ids are dense ints in BFS discovery
   order from the root; state [s] is the vector [vecs.(s*width ..
   s*width+width-1)] of leaf term ids, found again through the
   open-addressing table [slots].  When the root is a reference to a
   network, state 0 is that reference: its slice holds the body's
   vector (its row is the body's) but is not in [slots], so the body
   reached later gets an id of its own, as the interpreter's term does.

   Successor rows live in one shared packed pool (CSR layout:
   [row_off]/[row_len] slice [pk_*]).  [row_off.(s) = -1] marks a
   state whose row is not materialised yet.  All arrays are
   amortised-doubling growable (OCaml 5.1 has no Dynarray). *)
type t = {
  cfg : Step.config;
  root : Proc.t;
  skel : skel;
  width : int;
  root_ref : bool;
  root_fuel : int;  (* unfold fuel left at state 0's skeleton *)
  alphabets : Alphabet.t array;  (* the skeleton's, by slot *)
  mutable member : Bytes.t;
      (* [leaf event id * slots + slot] -> '\001' not in the alphabet,
         '\002' in it, '\000' not asked yet *)
  mutable leaf_terms : Proc.t array;  (* leaf term id -> term *)
  mutable n_leaf_terms : int;
  leaf_of : int Int_tbl.t;  (* node id -> leaf term id *)
  mutable leaf_syncs : (int * int list) list array;
      (* leaf term id -> event id -> its continuations as a partner *)
  mutable pos_moves : (int * Step.visibility * int list) list option array;
      (* [leaf term id * width + position] -> its moves there *)
  mutable vecs : int array;
  weights : int array;  (* per position, see [sum_of] *)
  mutable sums : int array;  (* per state *)
  mutable n_states : int;
  mutable slots : int array;  (* state ids by vector hash; -1 is free *)
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;
  mutable pk_len : int;
  mutable leaf_events : Event.t array;
      (* leaf event id -> event: every event a leaf's moves or a
         partner query names *)
  mutable n_leaf_events : int;
  leaf_event_of : int Event.Tbl.t;
  mutable row_event : int array;
      (* leaf event id -> its id in [events], -1 until a row holds it *)
  mutable events : Event.t array;  (* the events rows hold *)
  mutable n_events : int;
  mutable n_fallbacks : int;
}

let root t = t.root
let config t = t.cfg
let n_states t = t.n_states
let n_transitions t = t.pk_len
let n_events t = t.n_events
let fallbacks t = t.n_fallbacks
let leaves t = t.width
let leaf_terms t = t.n_leaf_terms

let n_rows t =
  let n = ref 0 in
  for s = 0 to t.n_states - 1 do
    if t.row_off.(s) >= 0 then incr n
  done;
  !n

let grow_int a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern_leaf t (q : Proc.t) =
  match Int_tbl.find_opt t.leaf_of (Proc.id q) with
  | Some l -> l
  | None ->
    let l = t.n_leaf_terms in
    if l >= Array.length t.leaf_terms then begin
      t.leaf_terms <- grow_int t.leaf_terms (l + 1) q;
      t.leaf_syncs <- grow_int t.leaf_syncs (l + 1) [];
      t.pos_moves <- grow_int t.pos_moves ((l + 1) * t.width) None
    end;
    t.leaf_terms.(l) <- q;
    Int_tbl.add t.leaf_of (Proc.id q) l;
    t.n_leaf_terms <- l + 1;
    Obs.Counter.incr leaf_terms_compiled;
    l

(* ---- the vector table ------------------------------------------------- *)

(* A vector's hash is [mix (Σ id_i * weight_i)], over every position:
   vectors of a wide network can differ only in their last ones.  The
   sum is kept per state, so a target's is its source's plus one term
   per changed leaf. *)
let weight i =
  let h = (i + 1) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) lor 1

let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let sum_of t a off =
  let h = ref 0 in
  for i = 0 to t.width - 1 do
    h := !h + (a.(off + i) * t.weights.(i))
  done;
  !h

(* [sum_of] of the vector at [a.(off ..)] changed by [d]. *)
let sum_after t sum a off d =
  List.fold_left
    (fun h c ->
      let i = c mod t.width in
      h + ((c / t.width) - a.(off + i)) * t.weights.(i))
    sum d

(* Is state [s] the vector at [a.(off ..)] changed by [d]? *)
let same_vec t s a off d =
  let base = s * t.width in
  let rec go i d =
    i >= t.width
    ||
    match d with
    | c :: d' when c mod t.width = i ->
      t.vecs.(base + i) = c / t.width && go (i + 1) d'
    | _ -> t.vecs.(base + i) = a.(off + i) && go (i + 1) d
  in
  go 0 d

(* The slot that holds that vector's state, or the free slot where it
   goes. *)
let find_slot t sum a off d =
  let mask = Array.length t.slots - 1 in
  let rec probe j =
    let s = t.slots.(j) in
    if s < 0 || (t.sums.(s) = sum && same_vec t s a off d) then j
    else probe ((j + 1) land mask)
  in
  probe (mix sum land mask)

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for s = (if t.root_ref then 1 else 0) to t.n_states - 1 do
    let rec probe j = if slots.(j) < 0 then j else probe ((j + 1) land mask) in
    slots.(probe (mix t.sums.(s) land mask)) <- s
  done;
  t.slots <- slots

let add_state t sum a off d =
  let s = t.n_states in
  if s >= Array.length t.row_off then begin
    t.row_off <- grow_int t.row_off (s + 1) (-1);
    t.row_len <- grow_int t.row_len (s + 1) 0;
    t.sums <- grow_int t.sums (s + 1) 0
  end;
  if (s + 1) * t.width > Array.length t.vecs then
    t.vecs <- grow_int t.vecs ((s + 1) * t.width) 0;
  let base = s * t.width in
  Array.blit a off t.vecs base t.width;
  List.iter (fun c -> t.vecs.(base + (c mod t.width)) <- c / t.width) d;
  t.sums.(s) <- sum;
  t.row_off.(s) <- -1;
  t.row_len.(s) <- 0;
  t.n_states <- s + 1;
  Obs.Counter.incr states_compiled;
  s

(* The state of the vector at [a.(off ..)] changed by [d], whose sum
   is [sum], given a fresh id if new. *)
let intern_vec t sum a off d =
  let j = find_slot t sum a off d in
  if t.slots.(j) >= 0 then t.slots.(j)
  else begin
    let s = add_state t sum a off d in
    t.slots.(j) <- s;
    if 2 * (s + 1) > Array.length t.slots then rehash t;
    s
  end

(* ---- terms on demand --------------------------------------------------- *)

(* State [s]'s term, built over its vector by [leaf], [par] and
   [hide]. *)
let build t s ~leaf ~par ~hide =
  let off = s * t.width in
  let rec go = function
    | Leaf i -> leaf t.leaf_terms.(t.vecs.(off + i))
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
      let s = t.slots.(find_slot t (sum_of t v 0) v 0 []) in
      if s >= 0 then Some s else None
    else None

(* ---- deriving a row from a vector ------------------------------------ *)

let intern_leaf_event t e =
  match Event.Tbl.find_opt t.leaf_event_of e with
  | Some i -> i
  | None ->
    let i = t.n_leaf_events in
    if i >= Array.length t.leaf_events then begin
      t.leaf_events <- grow_int t.leaf_events (i + 1) e;
      t.row_event <- grow_int t.row_event (i + 1) (-1)
    end;
    t.leaf_events.(i) <- e;
    Event.Tbl.add t.leaf_event_of e i;
    t.n_leaf_events <- i + 1;
    i

(* Rows name only the events they hold, numbered as rows first hold
   them: leaf moves that never make a network move stay out of the
   table [Dot.render] ranks. *)
let row_event t lev =
  match t.row_event.(lev) with
  | -1 ->
    let i = t.n_events in
    if i >= Array.length t.events then
      t.events <- grow_int t.events (i + 1) t.leaf_events.(lev);
    t.events.(i) <- t.leaf_events.(lev);
    t.row_event.(lev) <- i;
    t.n_events <- i + 1;
    i
  | i -> i

(* Is leaf event [eid]'s channel in the alphabet of slot [a]?  Asked
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
    let m = Alphabet.mem t.alphabets.(a) t.leaf_events.(eid).Event.chan in
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
        (Step.leaf_sync t.cfg memo ~fuel t.leaf_events.(eid) t.leaf_terms.(l))
    in
    t.leaf_syncs.(l) <- (eid, ks) :: t.leaf_syncs.(l);
    ks

(* A move of a skeleton node, as [Step.transitions_fuel] derives it for
   the node's term: its leaf event id and visibility, and the leaves it
   changes, as [id * width + position] codes in ascending position.  A
   leaf whose target is its current term is not listed, so two moves
   reach the same term exactly when their change lists are equal. *)
type move = int * Step.visibility * int list

let same_move ((e1, v1, d1) : move) ((e2, v2, d2) : move) =
  Int.equal e1 e2 && Step.vis_equal v1 v2 && List.equal Int.equal d1 d2

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
          ( intern_leaf_event t e,
            vis,
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
  let fuel = if s = 0 then t.root_fuel else t.cfg.Step.unfold_fuel in
  let rec syncs e = function
    | Leaf i ->
      let l = t.vecs.(off + i) in
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
    | Leaf i -> leaf_moves t memo ~fuel i t.vecs.(off + i)
    | Par (x, y, l, r) ->
      let t1 = moves l in
      let t2 = moves r in
      let left =
        List.fold_right
          (fun ((e, vis, d1) as m : move) acc ->
            match vis with
            | Step.Visible when mem t y e ->
              List.fold_left
                (fun acc d2 -> add acc (e, Step.Visible, d1 @ d2))
                acc (syncs e r)
            | Step.Visible | Step.Hidden -> add acc m)
          t1 []
      in
      List.fold_right
        (fun ((e, vis, d2) as m : move) acc ->
          match vis with
          | Step.Visible when mem t x e ->
            List.fold_left
              (fun acc d1 -> add acc (e, Step.Visible, d1 @ d2))
              acc (syncs e l)
          | Step.Visible | Step.Hidden -> add acc m)
        t2 left
    | Hide (h, k) ->
      List.map
        (fun ((e, vis, d) as m : move) ->
          match vis with
          | Step.Visible when mem t h e -> (e, Step.Hidden, d)
          | Step.Visible | Step.Hidden -> m)
        (moves k)
  in
  moves t.skel

let ensure_pool t n =
  if n > Array.length t.pk_event then begin
    t.pk_event <- grow_int t.pk_event n 0;
    t.pk_target <- grow_int t.pk_target n 0;
    let b = Bytes.make (max n (2 * Bytes.length t.pk_visible)) '\000' in
    Bytes.blit t.pk_visible 0 b 0 t.pk_len;
    t.pk_visible <- b
  end

(* Pack one state's row.  Target interning may assign fresh ids (and
   grow the state arrays); event/visibility/target go into parallel
   pools so the row is three cache-friendly int walks at query time.
   [rev_row] lists the moves last first. *)
let append_row t s rev_row =
  let len = List.length rev_row in
  ensure_pool t (t.pk_len + len);
  t.row_off.(s) <- t.pk_len;
  t.row_len.(s) <- len;
  List.fold_right
    (fun ((e, vis, d) : move) () ->
      let k = t.pk_len in
      t.pk_event.(k) <- row_event t e;
      let a = t.vecs and off = s * t.width in
      t.pk_target.(k) <- intern_vec t (sum_after t t.sums.(s) a off d) a off d;
      Bytes.set t.pk_visible k
        (match vis with Step.Visible -> '\001' | Step.Hidden -> '\000');
      t.pk_len <- k + 1)
    rev_row ()

let count_fallback t =
  t.n_fallbacks <- t.n_fallbacks + 1;
  Obs.Counter.incr fallback_rows

(* A row through a walk's memo, flushed when the row is in. *)
let with_memo f =
  let memo = Step.memo () in
  Fun.protect ~finally:(fun () -> Step.flush_memo memo) (fun () -> f memo)

let materialise t s =
  if t.row_off.(s) < 0 then begin
    count_fallback t;
    with_memo (fun memo -> append_row t s (derive t memo s))
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
      vecs = Array.make (64 * width) 0;
      weights = Array.init width weight;
      sums = Array.make 64 0;
      n_states = 0;
      slots = Array.make 128 (-1);
      row_off = Array.make 64 (-1);
      row_len = Array.make 64 0;
      pk_event = Array.make 256 0;
      pk_target = Array.make 256 0;
      pk_visible = Bytes.make 256 '\000';
      pk_len = 0;
      events = Array.make 16 (Event.vi "compiled-sentinel" 0);
      n_events = 0;
      leaf_events = Array.make 16 (Event.vi "compiled-sentinel" 0);
      n_leaf_events = 0;
      leaf_event_of = Event.Tbl.create 16;
      row_event = Array.make 16 (-1);
      n_fallbacks = 0;
    }
  in
  Obs.Counter.add leaves_compiled width;
  let v = Array.of_list (List.map (intern_leaf t) (List.rev !start)) in
  let sum = sum_of t v 0 in
  if root_ref then ignore (add_state t sum v 0 [])
  else ignore (intern_vec t sum v 0 []);
  t

(* ---- the exploration loop -------------------------------------------- *)

(* The one exploration loop: a FIFO walk from the root in BFS discovery
   order that numbers states [0, 1, ...] as it first meets them (the
   "query numbers" of the result) and appends every missing row as it
   reaches it.  [edge i k j] sees each recorded transition: source and
   target query numbers and the packed slot [k].  Numbering,
   transition order and truncation replay [Lts.explore]'s interpreted
   loop exactly — transitions in row = derivation order, numbering
   stops at [max_states] mid-row just as the interpreter does.

   The FIFO is [order] itself (query number -> state id, filled in
   discovery order) and [visited] is its inverse; both are dense int
   arrays.  Row ids and query numbers differ only when rows were
   materialised out of BFS order (a runner walk between compile and
   explore), which is why the walk keeps its own numbering.

   Missing rows are derived from their vectors.  A leaf term's row and
   synchronisations come from a memo that lives as long as the walk
   (it serves the networks inside leaf terms) and are kept, in ids, by
   the automaton, so a later walk derives only leaf terms it has not
   met.  [fallback] counts the appended rows as lazy materialisations
   (every walk but the building one). *)
let walk ~max_states ~fallback ~edge t =
  with_memo @@ fun memo ->
  let visited = ref (Array.make (max 64 t.n_states) (-1)) in
  let order = ref (Array.make 64 0) in
  let n_q = ref 0 in
  let qintern s =
    let i = !n_q in
    (!visited).(s) <- i;
    if i >= Array.length !order then order := grow_int !order (i + 1) 0;
    (!order).(i) <- s;
    n_q := i + 1;
    i
  in
  let complete = ref true in
  let truncated_ids = ref [] in
  ignore (qintern 0);
  let i = ref 0 in
  while !i < !n_q do
    let s = (!order).(!i) in
    if t.row_off.(s) < 0 then begin
      if fallback then count_fallback t;
      append_row t s (derive t memo s)
    end;
    if t.n_states > Array.length !visited then
      visited := grow_int !visited t.n_states (-1);
    let v = !visited in
    let dropped = ref false in
    let off = t.row_off.(s) in
    for k = off to off + t.row_len.(s) - 1 do
      let s' = t.pk_target.(k) in
      if v.(s') >= 0 then edge !i k v.(s')
      else if !n_q < max_states then edge !i k (qintern s')
      else begin
        (* the target is cut at the bound: the source keeps an
           unrecorded way out and must not read as a deadlock *)
        complete := false;
        dropped := true
      end
    done;
    if !dropped then truncated_ids := !i :: !truncated_ids;
    incr i
  done;
  (!n_q, !order, !complete, !truncated_ids)

let compile ?(budget = 200_000) cfg p =
  Obs.Counter.incr compiles;
  Obs.span ~cat:"compiled" "compile"
    ~args:(fun () -> [ ("budget", Obs.Int budget) ])
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = create cfg (Proc.intern p) in
  (* the building walk: the first [budget] states in discovery order
     get rows, their targets get ids; it records no transitions *)
  ignore (walk ~max_states:budget ~fallback:false ~edge:(fun _ _ _ -> ()) t);
  let ms = (Obs.now_ns () -. t0) /. 1e6 in
  Obs.Gauge.set compile_ms_gauge ms;
  Obs.Timer.observe_ns compile_timer (ms *. 1e6);
  t

(* ---- queries by state id ---------------------------------------------- *)

let out_degree t s =
  materialise t s;
  t.row_len.(s)

let event_id t s i = t.pk_event.(t.row_off.(s) + i)

let label t s i =
  let k = t.row_off.(s) + i in
  ( t.events.(t.pk_event.(k)),
    if Bytes.get t.pk_visible k = '\000' then Step.Hidden else Step.Visible )

let target t s i = t.pk_target.(t.row_off.(s) + i)
let event t id = t.events.(id)

let transitions_i t q =
  match state_of t q with
  | None -> Step.transitions_i t.cfg q
  | Some s ->
    List.init (out_degree t s) (fun i ->
        let e, vis = label t s i in
        (e, vis, node t (target t s i)))

(* ---- raw exploration -------------------------------------------------- *)

type raw = { graph : Dot.graph; state : int -> int }

(* The recorded edges go straight into flat arrays, in walk order
   (grouped by ascending source); the event table is the automaton's
   own, read after the walk so rows it appended are covered. *)
let explore_raw ?(max_states = 2000) t =
  Obs.span ~cat:"explore" "explore-compiled"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () ->
  (* sized for a replay of the whole table; a longer walk doubles *)
  let cap = max 64 (min t.pk_len (8 * max_states)) in
  let src = ref (Array.make cap 0)
  and event = ref (Array.make cap 0)
  and tgt = ref (Array.make cap 0)
  and visible = ref (Bytes.make cap '\000') in
  let m = ref 0 in
  let n_q, order, complete, truncated_ids =
    walk ~max_states ~fallback:true t ~edge:(fun i k j ->
        let e = !m in
        if e >= Array.length !src then begin
          src := grow_int !src (e + 1) 0;
          event := grow_int !event (e + 1) 0;
          tgt := grow_int !tgt (e + 1) 0;
          visible := Bytes.extend !visible 0 (Array.length !src - e)
        end;
        (!src).(e) <- i;
        (!event).(e) <- t.pk_event.(k);
        (!tgt).(e) <- j;
        Bytes.set !visible e (Bytes.get t.pk_visible k);
        m := e + 1)
  in
  let truncated = Array.make n_q false in
  List.iter (fun i -> truncated.(i) <- true) truncated_ids;
  {
    graph =
      {
        Dot.initial = 0;
        n_states = n_q;
        complete;
        truncated;
        events = t.events;
        n_events = t.n_events;
        n_edges = !m;
        src = !src;
        event = !event;
        tgt = !tgt;
        visible = !visible;
      };
    state = (fun i -> order.(i));
  }
