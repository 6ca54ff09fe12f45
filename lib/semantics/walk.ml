module Event = Csp_trace.Event
module Obs = Csp_obs.Obs

type move = int * bool * int list

type t = {
  width : int;
  count : Obs.Counter.t option;
  weights : int array;  (* per position, see [sum_of] *)
  mutable vecs : int array;
  mutable sums : int array;  (* per state *)
  mutable n_states : int;
  mutable first_slotted : int;
  mutable slots : int array;  (* state ids by vector hash; -1 is free *)
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;
  mutable pk_len : int;
  mutable keys : Event.t array;
  mutable n_keys : int;
  key_of : int Event.Tbl.t;
  mutable row_event : int array;
      (* event key -> its id in [events], -1 until a row holds it *)
  mutable events : Event.t array;
  mutable n_events : int;
}

let grow a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let sentinel = Event.vi "compiled-sentinel" 0

let create ?count width =
  {
    width;
    count;
    weights =
      Array.init width (fun i ->
          let h = (i + 1) * 0x2545F4914F6CDD1D in
          (h lxor (h lsr 31)) lor 1);
    vecs = Array.make (64 * width) 0;
    sums = Array.make 64 0;
    n_states = 0;
    first_slotted = 0;
    slots = Array.make 128 (-1);
    row_off = Array.make 64 (-1);
    row_len = Array.make 64 0;
    pk_event = Array.make 256 0;
    pk_target = Array.make 256 0;
    pk_visible = Bytes.make 256 '\000';
    pk_len = 0;
    keys = Array.make 16 sentinel;
    n_keys = 0;
    key_of = Event.Tbl.create 16;
    row_event = Array.make 16 (-1);
    events = Array.make 16 sentinel;
    n_events = 0;
  }

(* ---- the vector table ------------------------------------------------- *)

(* A vector's hash is [mix (Σ v_i * weight_i)], over every position:
   vectors of a wide state can differ only in their last ones.  The
   sum is kept per state, so a target's is its source's plus one term
   per changed position. *)
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
  for s = t.first_slotted to t.n_states - 1 do
    let rec probe j = if slots.(j) < 0 then j else probe ((j + 1) land mask) in
    slots.(probe (mix t.sums.(s) land mask)) <- s
  done;
  t.slots <- slots

let add_state t sum a off d =
  let s = t.n_states in
  if s >= Array.length t.row_off then begin
    t.row_off <- grow t.row_off (s + 1) (-1);
    t.row_len <- grow t.row_len (s + 1) 0;
    t.sums <- grow t.sums (s + 1) 0
  end;
  if (s + 1) * t.width > Array.length t.vecs then
    t.vecs <- grow t.vecs ((s + 1) * t.width) 0;
  let base = s * t.width in
  Array.blit a off t.vecs base t.width;
  List.iter (fun c -> t.vecs.(base + (c mod t.width)) <- c / t.width) d;
  t.sums.(s) <- sum;
  t.row_off.(s) <- -1;
  t.row_len.(s) <- 0;
  t.n_states <- s + 1;
  Option.iter Obs.Counter.incr t.count;
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

let add_root t v ~slotted =
  let sum = sum_of t v 0 in
  if slotted then ignore (intern_vec t sum v 0 [])
  else begin
    ignore (add_state t sum v 0 []);
    t.first_slotted <- 1
  end

let find t v = t.slots.(find_slot t (sum_of t v 0) v 0 [])

(* ---- events and rows -------------------------------------------------- *)

let event_key t e =
  match Event.Tbl.find_opt t.key_of e with
  | Some k -> k
  | None ->
    let k = t.n_keys in
    if k >= Array.length t.keys then begin
      t.keys <- grow t.keys (k + 1) e;
      t.row_event <- grow t.row_event (k + 1) (-1)
    end;
    t.keys.(k) <- e;
    Event.Tbl.add t.key_of e k;
    t.n_keys <- k + 1;
    k

(* Rows name only the events they hold, numbered as rows first hold
   them: keys no move of a row names stay out of the table
   [Dot.render] ranks. *)
let row_event t key =
  match t.row_event.(key) with
  | -1 ->
    let i = t.n_events in
    if i >= Array.length t.events then
      t.events <- grow t.events (i + 1) t.keys.(key);
    t.events.(i) <- t.keys.(key);
    t.row_event.(key) <- i;
    t.n_events <- i + 1;
    i
  | i -> i

let ensure_pool t n =
  if n > Array.length t.pk_event then begin
    t.pk_event <- grow t.pk_event n 0;
    t.pk_target <- grow t.pk_target n 0;
    let b = Bytes.make (max n (2 * Bytes.length t.pk_visible)) '\000' in
    Bytes.blit t.pk_visible 0 b 0 t.pk_len;
    t.pk_visible <- b
  end

(* Target interning may assign fresh ids (and grow the state arrays);
   event/visibility/target go into parallel pools so the row is three
   cache-friendly int walks at query time. *)
let append_row t s rev_row =
  let len = List.length rev_row in
  ensure_pool t (t.pk_len + len);
  t.row_off.(s) <- t.pk_len;
  t.row_len.(s) <- len;
  List.fold_right
    (fun ((key, visible, d) : move) () ->
      let k = t.pk_len in
      t.pk_event.(k) <- row_event t key;
      let a = t.vecs and off = s * t.width in
      t.pk_target.(k) <- intern_vec t (sum_after t t.sums.(s) a off d) a off d;
      Bytes.set t.pk_visible k (if visible then '\001' else '\000');
      t.pk_len <- k + 1)
    rev_row ()

(* ---- the exploration loop -------------------------------------------- *)

(* The FIFO is [order] itself (query number -> state id, filled in
   discovery order) and [visited] is its inverse; both are dense int
   arrays.  Row ids and query numbers differ only when rows were
   appended out of BFS order (a runner walk between compile and
   explore), which is why the walk keeps its own numbering. *)
let walk t ~max_states ~derive ~edge =
  let visited = ref (Array.make (max 64 t.n_states) (-1)) in
  let order = ref (Array.make 64 0) in
  let n_q = ref 0 in
  let qintern s =
    let i = !n_q in
    (!visited).(s) <- i;
    if i >= Array.length !order then order := grow !order (i + 1) 0;
    (!order).(i) <- s;
    n_q := i + 1;
    i
  in
  let complete = ref true in
  let truncated_ids = ref [] in
  ignore (qintern 0);
  let i = ref 0 in
  while !i < !n_q do
    (* every 16th row is where a sliced job may pause (see [Coop]): a
       clock read on every row cost a warm philosophers-5 reply 4% *)
    if !i land 15 = 0 then Csp_parallel.Coop.yield ();
    let s = (!order).(!i) in
    if t.row_off.(s) < 0 then append_row t s (derive s);
    if t.n_states > Array.length !visited then
      visited := grow !visited t.n_states (-1);
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

type raw = { graph : Dot.graph; state : int -> int }

(* The recorded edges go straight into flat arrays, in walk order
   (grouped by ascending source); the event table is the walk's own,
   read after the walk so rows it appended are covered. *)
let explore_raw t ~max_states ~derive =
  (* sized for a replay of the whole table; a longer walk doubles *)
  let cap = max 64 (min t.pk_len (8 * max_states)) in
  let src = ref (Array.make cap 0)
  and event = ref (Array.make cap 0)
  and tgt = ref (Array.make cap 0)
  and visible = ref (Bytes.make cap '\000') in
  let m = ref 0 in
  let n_q, order, complete, truncated_ids =
    walk t ~max_states ~derive ~edge:(fun i k j ->
        let e = !m in
        if e >= Array.length !src then begin
          src := grow !src (e + 1) 0;
          event := grow !event (e + 1) 0;
          tgt := grow !tgt (e + 1) 0;
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
