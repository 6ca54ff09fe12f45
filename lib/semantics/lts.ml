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
let of_raw (r : Compiled.raw) =
  {
    initial = r.Compiled.raw_initial;
    states = Array.map Proc.to_process r.Compiled.raw_states;
    transitions =
      List.map
        (fun (source, event, visible, target) ->
          { source; event; visible; target })
        r.Compiled.raw_transitions;
    complete = r.Compiled.raw_complete;
    n_transitions = List.length r.Compiled.raw_transitions;
    truncated = r.Compiled.raw_truncated;
  }

let explore ?(max_states = 2000) ?pool ?compiled cfg p =
  match compiled, pool with
  | Some c, _ when Proc.equal (Compiled.root c) (Proc.intern p) ->
    of_raw (Compiled.explore_raw ~max_states ?pool c)
  | _, Some pool when Pool.domains pool > 1 ->
    (* the building walk runs on the pool; the replay is array walks *)
    of_raw
      (Compiled.explore_raw ~max_states
         (Compiled.compile ~budget:max_states ~pool cfg p))
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

(* Canonical, numbering-independent form: states (as printed process
   terms) and transitions (as printed endpoint terms + event) in sorted
   order, plus the initial state and the completeness flag.  Two
   explorations of the same process have equal signatures iff they
   found the same state set and the same transition set. *)
let signature t =
  let state_strs = Array.map Process.to_string t.states in
  let sorted_states = Array.copy state_strs in
  Array.sort String.compare sorted_states;
  let edges =
    List.sort String.compare
      (List.map
         (fun tr ->
           Printf.sprintf "%s --%s%s--> %s" state_strs.(tr.source)
             (Event.to_string tr.event)
             (if tr.visible then "" else "~")
             state_strs.(tr.target))
         t.transitions)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "states:%d complete:%b initial:%s\n"
       (Array.length sorted_states) t.complete state_strs.(t.initial));
  Array.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    sorted_states;
  List.iter
    (fun e ->
      Buffer.add_string buf e;
      Buffer.add_char buf '\n')
    edges;
  Buffer.contents buf

let dot_escape s = String.concat "\\\"" (String.split_on_char '"' s)

(* Deterministic ordering for DOT output: BFS numbering is already a
   function of the process alone, and edges are emitted sorted — so
   the same process yields byte-identical graphs across runs. *)
let transition_compare a b =
  let c = Int.compare a.source b.source in
  if c <> 0 then c
  else
    let c = Int.compare a.target b.target in
    if c <> 0 then c
    else
      let c = Event.compare a.event b.event in
      if c <> 0 then c else Bool.compare a.visible b.visible

let to_dot ?(name = "lts") ?(header = "") t =
  Obs.span ~cat:"export" "to_dot"
    ~args:(fun () -> [ ("states", Obs.Int (num_states t)) ])
  @@ fun () ->
  let n = num_states t in
  (* sized for typical node/edge lines, so large graphs render without
     the buffer's doubling copies; an underestimate costs one doubling *)
  let buf =
    Buffer.create
      (String.length header + (48 * num_transitions t) + (32 * n) + 64)
  in
  Buffer.add_string buf header;
  let dead = Array.make n false in
  List.iter (fun i -> dead.(i) <- true) (deadlock_states t);
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Buffer.add_string buf
    (Printf.sprintf "  n%d [style=bold];\n" t.initial);
  for i = 0 to n - 1 do
    if dead.(i) then
      Buffer.add_string buf (Printf.sprintf "  n%d [shape=doublecircle];\n" i)
  done;
  (* truncated states are drawn dashed: their outgoing edges were cut
     at the state bound, so the picture under-reports their moves *)
  for i = 0 to n - 1 do
    if t.truncated.(i) then
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle, style=dashed];\n" i)
  done;
  Array.iteri
    (fun i _ ->
      if (not dead.(i)) && (not t.truncated.(i)) && i <> t.initial then
        Buffer.add_string buf (Printf.sprintf "  n%d [shape=circle];\n" i))
    t.states;
  List.iter
    (fun tr ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s\"%s];\n" tr.source tr.target
           (dot_escape (Event.to_string tr.event))
           (if tr.visible then "" else ", style=dashed")))
    (List.sort transition_compare t.transitions);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
