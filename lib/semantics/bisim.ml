module Event = Csp_trace.Event

type partition = int array
(* class number per state *)

(* A transition label: the event plus its visibility.  Labels are
   compared with [Event.equal]/[Event.hash] and explicit bool equality
   — never polymorphic compare — and interned to dense ints before
   partition refinement, so the refinement loop works on integer
   signatures only. *)
let label (tr : Lts.transition) = (tr.Lts.event, tr.Lts.visible)

let label_equal (e1, v1) (e2, v2) = Event.equal e1 e2 && Bool.equal v1 v2

module Label_tbl = Hashtbl.Make (struct
  type t = Event.t * bool

  let equal = label_equal
  let hash (e, v) = ((Event.hash e * 2) + Bool.to_int v) land max_int
end)

(* Dense label ids, assigned in transition-list order (deterministic:
   the transition list is itself in BFS discovery order). *)
let label_ids (t : Lts.t) =
  let tbl = Label_tbl.create 64 in
  let next = ref 0 in
  List.iter
    (fun tr ->
      let l = label tr in
      if not (Label_tbl.mem tbl l) then begin
        Label_tbl.add tbl l !next;
        incr next
      end)
    t.Lts.transitions;
  tbl

let pair_compare (l1, c1) (l2, c2) =
  let c = Int.compare l1 l2 in
  if c <> 0 then c else Int.compare c1 c2

let signatures (t : Lts.t) label_of (classes : int array) =
  let n = Array.length t.Lts.states in
  let sigs = Array.make n [] in
  List.iter
    (fun tr ->
      sigs.(tr.Lts.source) <-
        (label_of tr, classes.(tr.Lts.target)) :: sigs.(tr.Lts.source))
    t.Lts.transitions;
  Array.map (List.sort_uniq pair_compare) sigs

(* (current class, outgoing signature) keys for the regrouping table —
   pure integer data with explicit equality and hashing. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int * (int * int) list

  let equal (c1, s1) (c2, s2) =
    Int.equal c1 c2
    && List.equal
         (fun (a1, b1) (a2, b2) -> Int.equal a1 a2 && Int.equal b1 b2)
         s1 s2

  let hash (c, s) =
    List.fold_left
      (fun h (a, b) -> ((((h * 31) + a) * 31) + b) land max_int)
      ((c * 31) + 17)
      s
end)

(* Kanellakis–Smolka style refinement: regroup states by
   (current class, outgoing signature) until the number of classes is
   stable. *)
let classes_of (t : Lts.t) : partition =
  let labels = label_ids t in
  let label_of tr = Label_tbl.find labels (label tr) in
  let n = Array.length t.Lts.states in
  let classes = Array.make n 0 in
  let num = ref (if n = 0 then 0 else 1) in
  let changed = ref true in
  while !changed do
    let sigs = signatures t label_of classes in
    let table = Sig_tbl.create 16 in
    let next = ref 0 in
    let classes' =
      Array.init n (fun i ->
          let key = (classes.(i), sigs.(i)) in
          match Sig_tbl.find_opt table key with
          | Some c -> c
          | None ->
            let c = !next in
            incr next;
            Sig_tbl.add table key c;
            c)
    in
    changed := !next <> !num;
    num := !next;
    Array.blit classes' 0 classes 0 n
  done;
  classes

let num_classes (p : partition) =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 p


(* (source, label, target) dedup keys for quotient and saturation. *)
module Edge_tbl = Hashtbl.Make (struct
  type t = int * (Event.t * bool) * int

  let equal (s1, l1, t1) (s2, l2, t2) =
    Int.equal s1 s2 && Int.equal t1 t2 && label_equal l1 l2

  let hash (s, (e, v), t) =
    ((((((s * 31) + Event.hash e) * 2) + Bool.to_int v) * 31) + t) land max_int
end)

let quotient (t : Lts.t) (p : partition) : Lts.t =
  let k = num_classes p in
  (* representative = lowest-numbered state of each class *)
  let repr = Array.make k (-1) in
  Array.iteri
    (fun s c -> if repr.(c) = -1 then repr.(c) <- s)
    p;
  let states = Array.map (fun s -> t.Lts.states.(s)) repr in
  let seen = Edge_tbl.create 64 in
  let transitions =
    List.filter
      (fun (tr : Lts.transition) ->
        let key = (p.(tr.Lts.source), label tr, p.(tr.Lts.target)) in
        if Edge_tbl.mem seen key then false
        else begin
          Edge_tbl.add seen key ();
          true
        end)
      t.Lts.transitions
    |> List.map (fun (tr : Lts.transition) ->
           {
             Lts.source = p.(tr.Lts.source);
             event = tr.Lts.event;
             visible = tr.Lts.visible;
             target = p.(tr.Lts.target);
           })
  in
  Lts.make
    ~initial:p.(t.Lts.initial)
    ~states ~transitions ~complete:t.Lts.complete ()

let minimise t = quotient t (classes_of t)

(* τ-closure per state: everything reachable by concealed moves,
   including the state itself. *)
let tau_closure (t : Lts.t) =
  let n = Array.length t.Lts.states in
  let succ = Array.make n [] in
  List.iter
    (fun (tr : Lts.transition) ->
      if not tr.Lts.visible then
        succ.(tr.Lts.source) <- tr.Lts.target :: succ.(tr.Lts.source))
    t.Lts.transitions;
  let closure = Array.make n [] in
  for s = 0 to n - 1 do
    let visited = Array.make n false in
    let rec dfs v =
      if not visited.(v) then begin
        visited.(v) <- true;
        List.iter dfs succ.(v)
      end
    in
    dfs s;
    closure.(s) <-
      List.filter (fun v -> visited.(v)) (List.init n Fun.id)
  done;
  closure

let saturate (t : Lts.t) : Lts.t =
  let closure = tau_closure t in
  let seen = Edge_tbl.create 64 in
  let add acc (tr : Lts.transition) =
    let key = (tr.Lts.source, label tr, tr.Lts.target) in
    if Edge_tbl.mem seen key then acc
    else begin
      Edge_tbl.add seen key ();
      tr :: acc
    end
  in
  (* weak visible steps: τ* e τ* *)
  let weak_visible =
    List.concat_map
      (fun (tr : Lts.transition) ->
        if not tr.Lts.visible then []
        else
          List.concat_map
            (fun src ->
              if List.mem tr.Lts.source closure.(src) then
                List.map
                  (fun tgt ->
                    {
                      Lts.source = src;
                      event = tr.Lts.event;
                      visible = true;
                      target = tgt;
                    })
                  closure.(tr.Lts.target)
              else [])
            (List.init (Array.length t.Lts.states) Fun.id))
      t.Lts.transitions
  in
  (* weak silent steps: τ* (reflexive, so every state can "answer" a τ
     by staying put — the standard encoding of weak bisimulation as
     strong bisimulation on the saturated graph) *)
  let tau_event = Csp_trace.Event.v "__tau__" (Csp_trace.Value.Sym "TAU") in
  let weak_tau =
    List.concat_map
      (fun src ->
        List.map
          (fun tgt ->
            { Lts.source = src; event = tau_event; visible = false; target = tgt })
          closure.(src))
      (List.init (Array.length t.Lts.states) Fun.id)
  in
  Lts.make ~initial:t.Lts.initial ~states:t.Lts.states
    ~transitions:(List.rev (List.fold_left add [] (weak_visible @ weak_tau)))
    ~complete:t.Lts.complete ()

let weak_classes t = classes_of (saturate t)

let combine tp tq =
  let np = Array.length tp.Lts.states in
  let shift (tr : Lts.transition) =
    {
      Lts.source = tr.Lts.source + np;
      event = tr.Lts.event;
      visible = tr.Lts.visible;
      target = tr.Lts.target + np;
    }
  in
  Lts.make ~initial:tp.Lts.initial
    ~states:(Array.append tp.Lts.states tq.Lts.states)
    ~transitions:(tp.Lts.transitions @ List.map shift tq.Lts.transitions)
    ~complete:true ()

(* Route each side's exploration through a compiled automaton when a
   compiler is supplied (identical results either way — the compiled
   path replays the interpreted numbering byte for byte). *)
let explore_side ?compiler ~max_states cfg p =
  match compiler with
  | Some compile -> Lts.explore ~max_states ~compiled:(compile p) cfg p
  | None -> Lts.explore ~max_states cfg p

let weak_equivalent ?(max_states = 2000) ?compiler cfg p q =
  let tp = explore_side ?compiler ~max_states cfg p
  and tq = explore_side ?compiler ~max_states cfg q in
  if not (tp.Lts.complete && tq.Lts.complete) then false
  else begin
    let np = Array.length tp.Lts.states in
    let classes = weak_classes (combine tp tq) in
    classes.(tp.Lts.initial) = classes.(tq.Lts.initial + np)
  end

let equivalent ?(max_states = 2000) ?compiler cfg p q =
  let tp = explore_side ?compiler ~max_states cfg p
  and tq = explore_side ?compiler ~max_states cfg q in
  if not (tp.Lts.complete && tq.Lts.complete) then false
  else begin
    let np = Array.length tp.Lts.states in
    let classes = classes_of (combine tp tq) in
    classes.(tp.Lts.initial) = classes.(tq.Lts.initial + np)
  end
