module Event = Csp_trace.Event
module Channel = Csp_trace.Channel
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Pool = Csp_parallel.Pool
module Obs = Csp_obs.Obs

(* Telemetry of the interpreted loop (observation only — never read
   back into exploration). *)
let layers_explored = Obs.Counter.make "lts.layers"
let states_interned = Obs.Counter.make "lts.states"

type state = int

type transition = {
  source : state;
  event : Event.t;
  visible : bool;
  target : state;
}

type t = {
  initial : state;
  states : Process.t array;
  transitions : transition list;
  complete : bool;
  n_transitions : int;
  truncated : bool array;
}

let make ?truncated ~initial ~states ~transitions ~complete () =
  let truncated =
    match truncated with
    | Some a -> a
    | None -> Array.make (Array.length states) false
  in
  {
    initial;
    states;
    transitions;
    complete;
    n_transitions = List.length transitions;
    truncated;
  }

module Int_tbl = Hashtbl.Make (Int)

(* The interpreted reference loop: a FIFO over discovered states.
   Fresh states enqueue in discovery order, so dequeue order is
   exactly BFS layer order: numbering, transition order, truncation at
   [max_states] and the [complete] flag are functions of the
   transition relation alone.  {!Compiled}'s walk replays this loop on
   flat tables, and the compiled-identity tests and the choreo-refine
   oracle compare the two.

   States are hash-consed nodes, so canonicalisation is a lookup on
   the node id — no per-state rehash of a deep term.  The [procs] list
   keeps every numbered node alive, so ids are stable for the whole
   exploration. *)
let explore_interpreted ~max_states cfg p =
  let p = Proc.intern p in
  Obs.span ~cat:"explore" "explore"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () ->
  let ids : int Int_tbl.t = Int_tbl.create 64 in
  let procs = ref [] and n_states = ref 0 in
  let intern (q : Proc.t) =
    match Int_tbl.find_opt ids (Proc.id q) with
    | Some i -> (i, false)
    | None ->
      let i = !n_states in
      Int_tbl.add ids (Proc.id q) i;
      procs := q :: !procs;
      incr n_states;
      Obs.Counter.incr states_interned;
      (i, true)
  in
  let transitions = ref [] and n_transitions = ref 0 in
  let complete = ref true in
  (* state indices that had outgoing transitions dropped at the bound *)
  let truncated_ids = ref [] in
  let initial, _ = intern p in
  let queue = Queue.create () in
  Queue.add (initial, p) queue;
  (* layer accounting for the [lts.layers] counter: a layer starts at
     the first state discovered after the previous layer filled up *)
  let layer_start = ref 0 and layer_end = ref 1 in
  while not (Queue.is_empty queue) do
    let i, q = Queue.pop queue in
    if i = !layer_start then Obs.Counter.incr layers_explored;
    let dropped = ref false in
    List.iter
      (fun (e, vis, q') ->
        let visible =
          match (vis : Step.visibility) with
          | Step.Visible -> true
          | Step.Hidden -> false
        in
        if !n_states >= max_states then begin
          (* record the transition only if the target is already
             known; otherwise the source keeps an unrecorded way
             out and must not read as a deadlock *)
          match Int_tbl.find_opt ids (Proc.id q') with
          | Some j ->
            transitions :=
              { source = i; event = e; visible; target = j } :: !transitions;
            incr n_transitions
          | None ->
            complete := false;
            dropped := true
        end
        else begin
          let j, fresh = intern q' in
          transitions :=
            { source = i; event = e; visible; target = j } :: !transitions;
          incr n_transitions;
          if fresh then Queue.add (j, q') queue
        end)
      (Step.transitions_i cfg q);
    if !dropped then truncated_ids := i :: !truncated_ids;
    if i + 1 = !layer_end && !n_states > !layer_end then begin
      layer_start := !layer_end;
      layer_end := !n_states
    end
  done;
  let truncated = Array.make !n_states false in
  List.iter (fun i -> truncated.(i) <- true) !truncated_ids;
  {
    initial;
    states = Array.of_list (List.rev_map Proc.to_process !procs);
    transitions = List.rev !transitions;
    complete = !complete;
    n_transitions = !n_transitions;
    truncated;
  }

(* A compiled automaton's raw exploration carries the same fields in
   the same discovery order; packaging it is projection only. *)
let of_raw c (r : Compiled.raw) =
  let g = r.Compiled.graph in
  {
    initial = g.Dot.initial;
    states =
      Array.init g.Dot.n_states (fun i ->
          Compiled.process c (r.Compiled.state i));
    transitions =
      List.init g.Dot.n_edges (fun k ->
          {
            source = g.Dot.src.(k);
            event = g.Dot.events.(g.Dot.event.(k));
            visible = Bytes.get g.Dot.visible k <> '\000';
            target = g.Dot.tgt.(k);
          });
    complete = g.Dot.complete;
    n_transitions = g.Dot.n_edges;
    truncated = g.Dot.truncated;
  }

let explore ?(max_states = 2000) ?pool ?compiled cfg p =
  match compiled, pool with
  | Some c, _ when Proc.equal (Compiled.root c) (Proc.intern p) ->
    of_raw c (Compiled.explore_raw ~max_states c)
  | _, Some pool when Pool.domains pool > 1 ->
    (* a multi-domain engine takes the compiled path: a building walk
       over state vectors, then a replay of array walks *)
    let c = Compiled.compile ~budget:max_states cfg p in
    of_raw c (Compiled.explore_raw ~max_states c)
  | _ -> explore_interpreted ~max_states cfg p

let num_states t = Array.length t.states
let num_transitions t = t.n_transitions
let truncated_states t = List.filter (fun i -> t.truncated.(i)) (List.init (num_states t) Fun.id)

let deadlock_states t =
  let has_out = Array.make (num_states t) false in
  List.iter (fun tr -> has_out.(tr.source) <- true) t.transitions;
  (* a state whose outgoing transitions were dropped at the state bound
     is not deadlocked — it has moves the exploration did not record *)
  List.filter
    (fun i -> (not has_out.(i)) && not t.truncated.(i))
    (List.init (num_states t) Fun.id)

module Src_event_tbl = Hashtbl.Make (struct
  type t = state * Event.t

  let equal (s1, e1) (s2, e2) = Int.equal s1 s2 && Event.equal e1 e2
  let hash (s, e) = ((s * 31) + Event.hash e) land max_int
end)

let is_deterministic t =
  let seen = Src_event_tbl.create 64 in
  List.for_all
    (fun tr ->
      (not tr.visible)
      ||
      let key = (tr.source, tr.event) in
      match Src_event_tbl.find_opt seen key with
      | Some target -> Int.equal target tr.target
      | None ->
        Src_event_tbl.add seen key tr.target;
        true)
    t.transitions

let reachable_channels t =
  let seen = ref Channel.Set.empty and out = ref [] in
  List.iter
    (fun tr ->
      let c = tr.event.Event.chan in
      if not (Channel.Set.mem c !seen) then begin
        seen := Channel.Set.add c !seen;
        out := c :: !out
      end)
    t.transitions;
  List.rev !out

let to_dot ?name ?header t =
  Dot.render ?name ?header
    (Dot.of_transitions ~initial:t.initial ~n_states:(num_states t)
       ~complete:t.complete ~truncated:t.truncated ~n_edges:t.n_transitions
       (fun add ->
         List.iter
           (fun tr -> add tr.source tr.event tr.visible tr.target)
           t.transitions))
