module Event = Csp_trace.Event
module Obs = Csp_obs.Obs

type graph = {
  initial : int;
  n_states : int;
  complete : bool;
  events : Event.t array;
  n_events : int;
  row_off : int array;
  row_len : int array;
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

(* a loop, not a local recursive function: that would allocate a
   closure per state *)
let truncated g s =
  let stop = g.row_off.(s) + g.row_len.(s) in
  let p = ref g.row_off.(s) in
  while !p < stop && g.tgt.(!p) < g.n_states do
    incr p
  done;
  !p < stop

(* Determinism needs no sorting: the first visible move of each event
   in a row is remembered, and a later one to another target is a
   second successor. *)
let facts g =
  let n = g.n_states in
  let deterministic = ref true and deadlocks = ref 0 and cut = ref 0 in
  let transitions = ref 0 in
  (* per event id: the row of its last visible move, and that move's
     target *)
  let seen_src = Array.make g.n_events (-1) in
  let seen_tgt = Array.make g.n_events 0 in
  for s = 0 to n - 1 do
    let off = g.row_off.(s) and len = g.row_len.(s) in
    if len = 0 then incr deadlocks
    else begin
      let dropped = ref false in
      for p = off to off + len - 1 do
        let t = g.tgt.(p) in
        if t >= n then dropped := true
        else begin
          incr transitions;
          if Bytes.get g.visible p <> '\000' then begin
            let e = g.event.(p) in
            if seen_src.(e) <> s then begin
              seen_src.(e) <- s;
              seen_tgt.(e) <- t
            end
            else if seen_tgt.(e) <> t then deterministic := false
          end
        end
      done;
      if !dropped then incr cut
    end
  done;
  {
    states = n;
    transitions = !transitions;
    complete = g.complete;
    deterministic = !deterministic;
    deadlocks = !deadlocks;
    truncated_states = !cut;
  }

let of_transitions ~initial ~n_states:n ~complete ~truncated ~n_edges:m iter =
  let src = Array.make m 0 and ev = Array.make m 0 in
  let tg = Array.make m 0 and vis = Bytes.make m '\000' in
  let ids = Event.Tbl.create 16 and events = ref [] and n_events = ref 0 in
  let k = ref 0 in
  iter (fun s e v t ->
      src.(!k) <- s;
      tg.(!k) <- t;
      if v then Bytes.set vis !k '\001';
      ev.(!k) <-
        (match Event.Tbl.find_opt ids e with
        | Some i -> i
        | None ->
          let i = !n_events in
          Event.Tbl.add ids e i;
          events := e :: !events;
          n_events := i + 1;
          i);
      incr k);
  (* rows by counting sort, each truncated one a slot longer: that
     last slot keeps the target [n], the cut move *)
  let row_len = Array.make n 0 in
  Array.iter (fun s -> row_len.(s) <- row_len.(s) + 1) src;
  Array.iteri (fun s cut -> if cut then row_len.(s) <- row_len.(s) + 1) truncated;
  let row_off = Array.make n 0 in
  for s = 1 to n - 1 do
    row_off.(s) <- row_off.(s - 1) + row_len.(s - 1)
  done;
  let size = if n = 0 then 0 else row_off.(n - 1) + row_len.(n - 1) in
  let event = Array.make size 0 and tgt = Array.make size n in
  let visible = Bytes.make size '\000' in
  let next = Array.copy row_off in
  for k = 0 to m - 1 do
    let s = src.(k) in
    let p = next.(s) in
    next.(s) <- p + 1;
    event.(p) <- ev.(k);
    tgt.(p) <- tg.(k);
    Bytes.set visible p (Bytes.get vis k)
  done;
  {
    initial;
    n_states = n;
    complete;
    events = Array.of_list (List.rev !events);
    n_events = !n_events;
    row_off;
    row_len;
    event;
    tgt;
    visible;
  }

(* [n]'s decimal digits written at [b.[pos ..]]; returns the position
   after them. *)
let put_nat b pos n =
  let stop = ref (pos + 1) and m = ref (n / 10) in
  while !m > 0 do
    m := !m / 10;
    incr stop
  done;
  let m = ref n in
  for i = !stop - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!m mod 10)));
    m := !m / 10
  done;
  !stop

(* Sorts [a.(0 .. k - 1)].  Rows are short (1 to 12 moves on the
   benchmark catalogue) and come nearly sorted from a walk, which
   insertion sort takes in place in about linear time; a longer row
   is sorted in a copy, so it stays O(k log k). *)
let sort_prefix (a : int array) k =
  if k <= 16 then
    for i = 1 to k - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let r = Array.sub a 0 k in
    Array.sort Int.compare r;
    Array.blit r 0 a 0 k
  end

(* Every byte goes through [escape], which acts on each byte alone:
   the literal pieces and each edge suffix are escaped once per call,
   and the digits of node numbers are never rewritten. *)
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
  let status = match status with Some f -> f (facts g) | None -> "" in
  Buffer.add_string buf (escape header);
  Buffer.add_string buf (escape status);
  Buffer.add_string buf
    (escape ("digraph " ^ dot_id name ^ " {\n  rankdir=LR;\n"));
  (* [line] holds [escape "  n"], then a node number, then for an edge
     [escape " -> n"] and the target's number *)
  let node = escape "  n" and arrow = escape " -> n" in
  let nl = String.length node and al = String.length arrow in
  let line = Bytes.create (nl + al + 48) in
  Bytes.blit_string node 0 line 0 nl;
  let add_node s attrs =
    Buffer.add_subbytes buf line 0 (put_nat line nl s);
    Buffer.add_string buf attrs
  in
  add_node g.initial (escape " [style=bold];\n");
  (* per state: '\001' dead (an empty row), '\002' truncated *)
  let kind = Bytes.make n '\000' in
  for s = 0 to n - 1 do
    if g.row_len.(s) = 0 then Bytes.set kind s '\001'
    else if truncated g s then Bytes.set kind s '\002'
  done;
  let doubled = escape " [shape=doublecircle];\n" in
  for s = 0 to n - 1 do
    if Bytes.get kind s = '\001' then add_node s doubled
  done;
  (* truncated states are drawn dashed: their outgoing edges were cut
     at the state bound, so the picture under-reports their moves *)
  let dashed = escape " [shape=circle, style=dashed];\n" in
  for s = 0 to n - 1 do
    if Bytes.get kind s = '\002' then add_node s dashed
  done;
  let circle = escape " [shape=circle];\n" in
  for s = 0 to n - 1 do
    if Bytes.get kind s = '\000' && s <> g.initial then add_node s circle
  done;
  (* an edge's key is [(target, rank, visible)] packed into one int,
     so a row sorts as ints and the key's low bits index its
     suffix *)
  let shift =
    let rec bits b = if 1 lsl b >= 2 * ne then b else bits (b + 1) in
    bits 1
  in
  let mask = (1 lsl shift) - 1 in
  (* each suffix escaped on first use *)
  let suffixes = Array.make (2 * ne) "" in
  let suffix x =
    if String.length suffixes.(x) = 0 then
      suffixes.(x) <-
        escape
          (" [label=\""
          ^ dot_escape (Event.to_string g.events.(ids.(x lsr 1)))
          ^ if x land 1 = 1 then "\"];\n" else "\", style=dashed];\n");
    suffixes.(x)
  in
  let keys = ref (Array.make 16 0) in
  for s = 0 to n - 1 do
    let off = g.row_off.(s) and len = g.row_len.(s) in
    if len > Array.length !keys then
      keys := Array.make (max len (2 * Array.length !keys)) 0;
    let ks = !keys and k = ref 0 in
    for p = off to off + len - 1 do
      let t = g.tgt.(p) in
      if t < n then begin
        ks.(!k) <-
          (t lsl shift)
          lor (rank.(g.event.(p)) lsl 1)
          lor if Bytes.get g.visible p = '\000' then 0 else 1;
        incr k
      end
    done;
    if !k > 0 then begin
      sort_prefix ks !k;
      let pre = put_nat line nl s in
      Bytes.blit_string arrow 0 line pre al;
      let pre = pre + al in
      for i = 0 to !k - 1 do
        let key = ks.(i) in
        Buffer.add_subbytes buf line 0 (put_nat line pre (key lsr shift));
        Buffer.add_string buf (suffix (key land mask))
      done
    end
  done;
  Buffer.add_string buf (escape "}\n")

let render ?name ?(header = "") ?status g =
  (* sized for the header and typical node and edge lines, so large
     graphs render without the buffer's doubling copies *)
  let moves = ref 0 in
  for s = 0 to g.n_states - 1 do
    moves := !moves + g.row_len.(s)
  done;
  let buf =
    Buffer.create
      (String.length header + (48 * !moves) + (32 * g.n_states) + 128)
  in
  write ~escape:Fun.id ?name ~header ?status buf g;
  Buffer.contents buf
