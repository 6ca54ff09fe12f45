module Event = Csp_trace.Event
module Obs = Csp_obs.Obs

type graph = {
  initial : int;
  n_states : int;
  complete : bool;
  truncated : bool array;
  events : Event.t array;
  n_events : int;
  n_edges : int;
  src : int array;
  event : int array;
  tgt : int array;
  visible : Bytes.t;
}

type facts = {
  states : int;
  transitions : int;
  complete : bool;
  deterministic : bool;
  deadlocks : int;
  truncated_states : int;
}

let dot_escape s = String.concat "\\\"" (String.split_on_char '"' s)

(* A graph name prints bare when DOT reads it as an identifier: a
   letter or underscore, then letters, digits and underscores, and not
   one of DOT's (case-insensitive) keywords.  Any other name is
   quoted. *)
let dot_id name =
  let ident_char first c =
    c = '_'
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || ((not first) && c >= '0' && c <= '9')
  in
  let bare =
    name <> ""
    && ident_char true name.[0]
    && String.for_all (ident_char false) name
    && not
         (List.mem
            (String.lowercase_ascii name)
            [ "node"; "edge"; "graph"; "digraph"; "subgraph"; "strict" ])
  in
  if bare then name else "\"" ^ dot_escape name ^ "\""

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* The edges bucketed by source (a counting sort: source [s] owns
   [keys.(row.(s))] .. [keys.(row.(s + 1) - 1)]), each encoded as the
   int [(target * n_events + rank) * 2 + visible] and every row
   sorted, so key order is output order.  Events are distinct, so
   equal keys would print equal lines. *)
let rows g rank =
  let n = g.n_states and m = g.n_edges in
  let row = Array.make (n + 1) 0 and keys = Array.make m 0 in
  for k = 0 to m - 1 do
    let s = g.src.(k) in
    row.(s) <- row.(s) + 1
  done;
  for s = 1 to n - 1 do
    row.(s) <- row.(s) + row.(s - 1)
  done;
  row.(n) <- m;
  for k = m - 1 downto 0 do
    let s = g.src.(k) in
    let p = row.(s) - 1 in
    row.(s) <- p;
    keys.(p) <-
      ((((g.tgt.(k) * g.n_events) + rank.(g.event.(k))) * 2)
      + if Bytes.get g.visible k = '\000' then 0 else 1)
  done;
  (* [stable_sort] for its speed, not its stability (keys are
     distinct): it insertion-sorts short runs, and rows are short — 1
     to 12 edges on the benchmark catalogue, where it sorts every row
     in about half the time [Array.sort] takes. *)
  for s = 0 to n - 1 do
    let lo = row.(s) and len = row.(s + 1) - row.(s) in
    if len > 1 then begin
      let r = Array.sub keys lo len in
      Array.stable_sort Int.compare r;
      Array.blit r 0 keys lo len
    end
  done;
  (row, keys)

let facts_of g row keys =
  let ne = g.n_events in
  let deterministic = ref true and deadlocks = ref 0 and truncated = ref 0 in
  (* the last visible edge of each event rank: its source and target *)
  let seen_src = Array.make ne (-1) and seen_tgt = Array.make ne 0 in
  for s = 0 to g.n_states - 1 do
    if g.truncated.(s) then incr truncated
    else if row.(s) = row.(s + 1) then incr deadlocks;
    for p = row.(s) to row.(s + 1) - 1 do
      let key = keys.(p) in
      if key land 1 = 1 then begin
        let r = (key lsr 1) mod ne and t = (key lsr 1) / ne in
        if seen_src.(r) <> s then begin
          seen_src.(r) <- s;
          seen_tgt.(r) <- t
        end
        else if seen_tgt.(r) <> t then deterministic := false
      end
    done
  done;
  {
    states = g.n_states;
    transitions = g.n_edges;
    complete = g.complete;
    deterministic = !deterministic;
    deadlocks = !deadlocks;
    truncated_states = !truncated;
  }

let of_transitions ~initial ~n_states ~complete ~truncated ~n_edges:m iter =
  let src = Array.make m 0 and event = Array.make m 0 in
  let tgt = Array.make m 0 and visible = Bytes.make m '\000' in
  let ids = Event.Tbl.create 16 and events = ref [] and n_events = ref 0 in
  let k = ref 0 in
  iter (fun s e v t ->
      src.(!k) <- s;
      tgt.(!k) <- t;
      if v then Bytes.set visible !k '\001';
      event.(!k) <-
        (match Event.Tbl.find_opt ids e with
        | Some i -> i
        | None ->
          let i = !n_events in
          Event.Tbl.add ids e i;
          events := e :: !events;
          n_events := i + 1;
          i);
      incr k);
  {
    initial;
    n_states;
    complete;
    truncated;
    events = Array.of_list (List.rev !events);
    n_events = !n_events;
    n_edges = m;
    src;
    event;
    tgt;
    visible;
  }

(* Every byte goes through [escape], which acts on each byte alone:
   the literal pieces are escaped once per call and each label once
   per rank, and the digits of node numbers are never rewritten. *)
let write ~escape ?(name = "lts") ?(header = "") ?status buf g =
  Obs.span ~cat:"export" "to_dot"
    ~args:(fun () -> [ ("states", Obs.Int g.n_states) ])
  @@ fun () ->
  let n = g.n_states and ne = g.n_events in
  (* events ranked once: [ids] in Event.compare order, [rank] its
     inverse *)
  let ids = Array.init ne Fun.id in
  Array.sort (fun a b -> Event.compare g.events.(a) g.events.(b)) ids;
  let rank = Array.make ne 0 in
  Array.iteri (fun r id -> rank.(id) <- r) ids;
  let row, keys = rows g rank in
  let status =
    match status with Some f -> f (facts_of g row keys) | None -> ""
  in
  let node = escape "  n" in
  let add_node buf i attrs =
    Buffer.add_string buf node;
    add_nat buf i;
    Buffer.add_string buf attrs
  in
  Buffer.add_string buf (escape header);
  Buffer.add_string buf (escape status);
  Buffer.add_string buf
    (escape ("digraph " ^ dot_id name ^ " {\n  rankdir=LR;\n"));
  add_node buf g.initial (escape " [style=bold];\n");
  let dead s = row.(s) = row.(s + 1) && not g.truncated.(s) in
  let doubled = escape " [shape=doublecircle];\n" in
  for s = 0 to n - 1 do
    if dead s then add_node buf s doubled
  done;
  (* truncated states are drawn dashed: their outgoing edges were cut
     at the state bound, so the picture under-reports their moves *)
  let dashed = escape " [shape=circle, style=dashed];\n" in
  for s = 0 to n - 1 do
    if g.truncated.(s) then add_node buf s dashed
  done;
  let circle = escape " [shape=circle];\n" in
  for s = 0 to n - 1 do
    if (not (dead s)) && (not g.truncated.(s)) && s <> g.initial then
      add_node buf s circle
  done;
  let arrow = escape " -> n" and label = escape " [label=\"" in
  let visible = escape "\"];\n" and hidden = escape "\", style=dashed];\n" in
  (* each label escaped on first use, by rank *)
  let labels = Array.make ne "" in
  for s = 0 to n - 1 do
    for p = row.(s) to row.(s + 1) - 1 do
      let key = keys.(p) in
      let r = (key lsr 1) mod ne in
      if String.length labels.(r) = 0 then
        labels.(r) <- escape (dot_escape (Event.to_string g.events.(ids.(r))));
      add_node buf s arrow;
      add_nat buf ((key lsr 1) / ne);
      Buffer.add_string buf label;
      Buffer.add_string buf labels.(r);
      Buffer.add_string buf (if key land 1 = 1 then visible else hidden)
    done
  done;
  Buffer.add_string buf (escape "}\n")

let render ?name ?(header = "") ?status g =
  (* sized for the header and typical node and edge lines, so large
     graphs render without the buffer's doubling copies *)
  let buf =
    Buffer.create
      (String.length header + (48 * g.n_edges) + (32 * g.n_states) + 128)
  in
  write ~escape:Fun.id ?name ~header ?status buf g;
  Buffer.contents buf
