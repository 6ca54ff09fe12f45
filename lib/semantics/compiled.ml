module Event = Csp_trace.Event
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Pool = Csp_parallel.Pool
module Obs = Csp_obs.Obs

let compiles = Obs.Counter.make "compiled.compiles"
let states_compiled = Obs.Counter.make "compiled.states"
let fallback_rows = Obs.Counter.make "compiled.fallbacks"
let compile_ms_gauge = Obs.Gauge.make "compiled.compile_ms"
let compile_timer = Obs.Timer.make "compiled.compile"

module Int_tbl = Hashtbl.Make (Int)

module Event_tbl = Hashtbl.Make (struct
  type t = Event.t

  let equal = Event.equal
  let hash = Event.hash
end)

(* The flat automaton.  State ids are dense ints in BFS discovery
   order from the root; successor rows live in one shared packed pool
   (CSR layout: [row_off]/[row_len] slice [pk_*]).  [row_off.(s) = -1]
   marks a state whose row is not materialised yet.  All arrays are
   amortised-doubling growable (OCaml 5.1 has no Dynarray). *)
type t = {
  cfg : Step.config;
  mutable nodes : Proc.t array;  (* state id -> interned node *)
  mutable n_states : int;
  cid_of : int Int_tbl.t;  (* node id -> state id *)
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;
  mutable pk_len : int;
  mutable events : Event.t array;
  mutable n_events : int;
  eid_of : int Event_tbl.t;
  mutable n_fallbacks : int;
  mutable ms : float;
}

let root t = t.nodes.(0)
let config t = t.cfg
let n_states t = t.n_states
let n_transitions t = t.pk_len
let n_events t = t.n_events
let fallbacks t = t.n_fallbacks
let compile_ms t = t.ms

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

let ensure_states t n =
  if n > Array.length t.nodes then begin
    t.nodes <- grow_int t.nodes n t.nodes.(0);
    t.row_off <- grow_int t.row_off n (-1);
    t.row_len <- grow_int t.row_len n 0
  end

let ensure_pool t n =
  if n > Array.length t.pk_event then begin
    t.pk_event <- grow_int t.pk_event n 0;
    t.pk_target <- grow_int t.pk_target n 0;
    let b = Bytes.make (max n (2 * Bytes.length t.pk_visible)) '\000' in
    Bytes.blit t.pk_visible 0 b 0 t.pk_len;
    t.pk_visible <- b
  end

let intern_event t e =
  match Event_tbl.find_opt t.eid_of e with
  | Some i -> i
  | None ->
    let i = t.n_events in
    if i >= Array.length t.events then t.events <- grow_int t.events (i + 1) e;
    t.events.(i) <- e;
    Event_tbl.add t.eid_of e i;
    t.n_events <- i + 1;
    i

let intern_state t (q : Proc.t) =
  match Int_tbl.find_opt t.cid_of (Proc.id q) with
  | Some s -> s
  | None ->
    let s = t.n_states in
    ensure_states t (s + 1);
    t.nodes.(s) <- q;
    t.row_off.(s) <- -1;
    t.row_len.(s) <- 0;
    Int_tbl.add t.cid_of (Proc.id q) s;
    t.n_states <- s + 1;
    Obs.Counter.incr states_compiled;
    s

(* Pack one state's transition list.  Target interning may assign
   fresh ids (and grow the state arrays); event/visibility/target go
   into parallel pools so the row is three cache-friendly int walks at
   query time. *)
let append_row t s ts =
  let len = List.length ts in
  ensure_pool t (t.pk_len + len);
  t.row_off.(s) <- t.pk_len;
  t.row_len.(s) <- len;
  List.iter
    (fun (e, vis, q') ->
      let k = t.pk_len in
      t.pk_event.(k) <- intern_event t e;
      t.pk_target.(k) <- intern_state t q';
      Bytes.set t.pk_visible k
        (match (vis : Step.visibility) with
        | Step.Visible -> '\001'
        | Step.Hidden -> '\000');
      t.pk_len <- k + 1)
    ts

let count_fallback t =
  t.n_fallbacks <- t.n_fallbacks + 1;
  Obs.Counter.incr fallback_rows

let materialise t s =
  if t.row_off.(s) < 0 then begin
    count_fallback t;
    append_row t s (Step.transitions_i t.cfg t.nodes.(s))
  end

let create cfg (root : Proc.t) =
  let t =
    {
      cfg;
      nodes = Array.make 64 root;
      n_states = 0;
      cid_of = Int_tbl.create 64;
      row_off = Array.make 64 (-1);
      row_len = Array.make 64 0;
      pk_event = Array.make 256 0;
      pk_target = Array.make 256 0;
      pk_visible = Bytes.make 256 '\000';
      pk_len = 0;
      events = Array.make 16 (Event.vi "compiled-sentinel" 0);
      n_events = 0;
      eid_of = Event_tbl.create 16;
      n_fallbacks = 0;
      ms = 0.0;
    }
  in
  ignore (intern_state t root);
  t

let row_transitions t s =
  let off = t.row_off.(s) in
  List.init t.row_len.(s) (fun i ->
      let k = off + i in
      ( t.events.(t.pk_event.(k)),
        (if Bytes.get t.pk_visible k = '\000' then Step.Hidden
         else Step.Visible),
        t.nodes.(t.pk_target.(k)) ))

let transitions_i t q =
  match Int_tbl.find_opt t.cid_of (Proc.id q) with
  | None -> Step.transitions_i t.cfg q
  | Some s ->
    materialise t s;
    row_transitions t s

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

   Missing rows are derived inline, or — on a multi-domain [pool] —
   through a speculative {!Frontier} session opened at the first
   missing row: workers race ahead over the interned nodes (never the
   CSR arrays, which only this coordinator grows) and the coordinator
   consumes their results.  Replaying complete tables opens no
   session.  [fallback] counts the appended rows as lazy
   materialisations (every walk but the building one). *)
let walk ~max_states ?pool ~fallback ~edge t =
  let fs = ref None in
  let derive q =
    match pool with
    | Some pool when Pool.domains pool > 1 ->
      let s =
        match !fs with
        | Some s -> s
        | None ->
          let s = Frontier.start ~pool ~cap:max_states t.cfg in
          fs := Some s;
          s
      in
      Frontier.get s q
    | _ -> Step.transitions_i t.cfg q
  in
  Fun.protect ~finally:(fun () -> Option.iter Frontier.stop !fs) @@ fun () ->
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
      append_row t s (derive t.nodes.(s))
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

let compile ?(budget = 200_000) ?pool cfg p =
  Obs.Counter.incr compiles;
  Obs.span ~cat:"compiled" "compile"
    ~args:(fun () -> [ ("budget", Obs.Int budget) ])
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = create cfg (Proc.intern p) in
  (* the building walk: the first [budget] states in discovery order
     get rows, their targets get ids; it records no transitions *)
  ignore
    (walk ~max_states:budget ?pool ~fallback:false ~edge:(fun _ _ _ -> ()) t);
  let ms = (Obs.now_ns () -. t0) /. 1e6 in
  t.ms <- ms;
  Obs.Gauge.set compile_ms_gauge ms;
  Obs.Timer.observe_ns compile_timer (ms *. 1e6);
  t

type raw = {
  raw_initial : int;
  raw_states : Proc.t array;
  raw_transitions : (int * Event.t * bool * int) list;
  raw_complete : bool;
  raw_truncated : bool array;
}

let explore_raw ?(max_states = 2000) ?pool t =
  Obs.span ~cat:"explore" "explore-compiled"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () ->
  let transitions = ref [] in
  let n_q, order, complete, truncated_ids =
    walk ~max_states ?pool ~fallback:true t ~edge:(fun i k j ->
        transitions :=
          (i, t.events.(t.pk_event.(k)), Bytes.get t.pk_visible k <> '\000', j)
          :: !transitions)
  in
  let truncated = Array.make n_q false in
  List.iter (fun i -> truncated.(i) <- true) truncated_ids;
  {
    raw_initial = 0;
    raw_states = Array.init n_q (fun i -> t.nodes.(order.(i)));
    raw_transitions = List.rev !transitions;
    raw_complete = complete;
    raw_truncated = truncated;
  }
