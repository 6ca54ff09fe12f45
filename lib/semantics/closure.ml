module Event = Csp_trace.Event
module Trace = Csp_trace.Trace
module Channel = Csp_trace.Channel
module Obs = Csp_obs.Obs

(* Wall-clock spent interning nodes (the unique-table probe, plus the
   cardinal/depth folds of a new node).  Recorded only while telemetry is
   enabled — [node] is the hottest function in the kernel, so the
   dormant path must not even read the clock. *)
let node_timer = Obs.Timer.make "closure.node"

(* Hash-consed prefix-closure tries (BDD-style unique/compute tables).

   Children are sorted by [Event.compare] and duplicate-free, so that
   structural recursion implements set operations — and every node is
   interned in a global unique table, so that structurally equal
   closures are *physically* equal.  Consequences exploited throughout:

   - [equal] is pointer equality (O(1));
   - [cardinal] and [depth] are cached per node (O(1));
   - set operations are memoised in compute tables keyed on node ids,
     so the approximation chains of the denotational semantics and the
     state-space sweeps of the bounded checker turn into cache hits;
   - shared subtrees are represented once, which is what keeps the
     3ⁿ-state chains of E11 tractable.

   Node ids are allocated from a monotonic counter and never reused.
   The unique table ([Csp_lang.Hashcons]) keeps every node, so an id
   names the same closure for the life of the process and a compute-
   table entry stays valid until the table is cleared. *)

type t = {
  id : int;
  children : (Event.t * t) list;
  cardinal : int;  (* number of member traces = number of trie nodes *)
  depth : int;     (* length of the longest member trace *)
}

let id t = t.id
let children t = t.children
let hash t = t.id land max_int
let cardinal t = t.cardinal
let depth t = t.depth
let equal a b = a == b

(* ---- the unique table ------------------------------------------------ *)

let rec children_equal xs ys =
  match xs, ys with
  | [], [] -> true
  | (e1, t1) :: xs', (e2, t2) :: ys' ->
    t1 == t2 && Event.equal e1 e2 && children_equal xs' ys'
  | _ -> false

(* Id 0 is [empty]'s: [node []] returns it without a probe, so it is
   never interned. *)
let next_id = Atomic.make 1
let empty = { id = 0; children = []; cardinal = 1; depth = 0 }

module Unique = Csp_lang.Hashcons.Make (struct
  type nonrec t = t
  type key = (Event.t * t) list
  type extra = unit

  let hash xs =
    List.fold_left
      (fun h (e, t) -> ((((h * 31) + Event.hash e) * 31) + t.id) land max_int)
      17 xs

  let equal children t = children_equal children t.children

  let make ~hash:_ children () =
    {
      id = Atomic.fetch_and_add next_id 1;
      children;
      cardinal =
        List.fold_left (fun acc (_, t) -> acc + t.cardinal) 1 children;
      depth =
        List.fold_left (fun acc (_, t) -> max acc (1 + t.depth)) 0 children;
    }

  let sentinel = { id = -1; children = []; cardinal = 0; depth = 0 }
end)

let node children =
  match children with
  | [] -> empty
  | _ ->
    (* manual enabled branch rather than [Timer.time]: no closure
       allocation on the hot path *)
    if Obs.enabled () then begin
      let t0 = Obs.now_ns () in
      let r = Unique.intern children () in
      Obs.Timer.observe_ns node_timer (Obs.now_ns () -. t0);
      r
    end
    else Unique.intern children ()

let prefix a p = node [ (a, p) ]

(* ---- compute tables -------------------------------------------------- *)

module Int_pair = struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = ((a * 31) + b) land max_int
end

module Memo = Hashtbl.Make (Int_pair)

(* Contended acquisitions of the memo lock (see [Proc.stats]'s
   [lock_waits]): probed with [try_lock] so the sequential fast path
   pays nothing. *)
let memo_waits = Atomic.make 0

(* The memo lock guards the shared compute tables and their counters,
   on every domain. *)
let memo_lock = Mutex.create ()

let[@inline] locked f =
  if not (Mutex.try_lock memo_lock) then begin
    Atomic.incr memo_waits;
    Mutex.lock memo_lock
  end;
  match f () with
  | v ->
    Mutex.unlock memo_lock;
    v
  | exception e ->
    Mutex.unlock memo_lock;
    raise e

let memo_hits = ref 0
let memo_misses = ref 0

let union_tbl : t Memo.t = Memo.create 4096
let inter_tbl : t Memo.t = Memo.create 1024
let truncate_tbl : t Memo.t = Memo.create 1024
let subset_tbl : bool Memo.t = Memo.create 1024

let memo_find tbl key =
  locked (fun () ->
      match Memo.find_opt tbl key with
      | Some _ as r ->
        incr memo_hits;
        r
      | None ->
        incr memo_misses;
        None)

let memo_add tbl key v = locked (fun () -> Memo.replace tbl key v)

type stats = {
  nodes : int;
  memo_hits : int;
  memo_misses : int;
  lock_waits : int;
}

let stats () =
  locked (fun () ->
      {
        nodes = Atomic.get next_id;
        memo_hits = !memo_hits;
        memo_misses = !memo_misses;
        lock_waits = Atomic.get memo_waits + Unique.lock_waits ();
      })

let clear_caches () =
  locked (fun () ->
      Memo.reset union_tbl;
      Memo.reset inter_tbl;
      Memo.reset truncate_tbl;
      Memo.reset subset_tbl)

let () =
  Obs.register_source "closure" (fun () ->
      let s = stats () in
      [
        ("nodes", Obs.Int s.nodes);
        ("memo_hits", Obs.Int s.memo_hits);
        ("memo_misses", Obs.Int s.memo_misses);
        ("lock_waits", Obs.Int s.lock_waits);
      ])

(* ---- set operations -------------------------------------------------- *)

let rec union a b =
  if a == b then a
  else if a == empty then b
  else if b == empty then a
  else
    (* union is commutative: normalise the key so both orders hit *)
    let key = if a.id <= b.id then (a.id, b.id) else (b.id, a.id) in
    match memo_find union_tbl key with
    | Some r -> r
    | None ->
      let r = node (merge a.children b.children) in
      memo_add union_tbl key r;
      r

and merge xs ys =
  match xs, ys with
  | [], rest | rest, [] -> rest
  | (e1, t1) :: xs', (e2, t2) :: ys' ->
    let c = Event.compare e1 e2 in
    if c < 0 then (e1, t1) :: merge xs' ys
    else if c > 0 then (e2, t2) :: merge xs ys'
    else (e1, union t1 t2) :: merge xs' ys'

(* Balanced pairwise reduction: folding [union] left-to-right makes the
   accumulator grow with every operand (O(n·m) merges on an n-way Input
   fan-out); halving rounds keep both operands of every merge small. *)
let union_all ts =
  let rec halve = function
    | a :: b :: rest -> union a b :: halve rest
    | ([] | [ _ ]) as rest -> rest
  in
  let rec go = function
    | [] -> empty
    | [ t ] -> t
    | ts -> go (halve ts)
  in
  go ts

let rec inter a b =
  if a == b then a
  else if a == empty || b == empty then empty
  else
    let key = if a.id <= b.id then (a.id, b.id) else (b.id, a.id) in
    match memo_find inter_tbl key with
    | Some r -> r
    | None ->
      let r = node (inter_children a.children b.children) in
      memo_add inter_tbl key r;
      r

and inter_children xs ys =
  match xs, ys with
  | [], _ | _, [] -> []
  | (e1, t1) :: xs', (e2, t2) :: ys' ->
    let c = Event.compare e1 e2 in
    if c < 0 then inter_children xs' ys
    else if c > 0 then inter_children xs ys'
    else (e1, inter t1 t2) :: inter_children xs' ys'

let lookup e children =
  let rec go = function
    | [] -> None
    | (e', t) :: rest ->
      let c = Event.compare e e' in
      if c = 0 then Some t else if c < 0 then None else go rest
  in
  go children

let rec mem s t =
  match s with
  | [] -> true
  | e :: rest -> (
    match lookup e t.children with Some child -> mem rest child | None -> false)

let rec add s t =
  match s with
  | [] -> t
  | e :: rest ->
    let rec go = function
      | [] -> [ (e, add rest empty) ]
      | ((e', t') :: tail) as all ->
        let c = Event.compare e e' in
        if c < 0 then (e, add rest empty) :: all
        else if c = 0 then (e', add rest t') :: tail
        else (e', t') :: go tail
    in
    node (go t.children)

let of_traces ss = List.fold_left (fun acc s -> add s acc) empty ss

let rec to_traces t =
  []
  :: List.concat_map
       (fun (e, t') -> List.map (fun s -> e :: s) (to_traces t'))
       t.children

let fold_traces f t init =
  let rec go rev_prefix t acc =
    let acc = f (List.rev rev_prefix) acc in
    List.fold_left
      (fun acc (e, t') -> go (e :: rev_prefix) t' acc)
      acc t.children
  in
  go [] t init

let rec maximal_traces t =
  match t.children with
  | [] -> [ [] ]
  | children ->
    List.concat_map
      (fun (e, t') -> List.map (fun s -> e :: s) (maximal_traces t'))
      children

let rec truncate n t =
  if n <= 0 then empty
  else if t.depth <= n then t (* already within the bound: share *)
  else
    let key = (n, t.id) in
    match memo_find truncate_tbl key with
    | Some r -> r
    | None ->
      let r = node (List.map (fun (e, t') -> (e, truncate (n - 1) t')) t.children) in
      memo_add truncate_tbl key r;
      r

(* [hide]/[par]/[interleave] close over predicates and so cannot key a
   global table; each call carries its own memo keyed on node ids, which
   still collapses the (heavily shared) subtree revisits within a call. *)
let hide in_c t =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some r -> r
    | None ->
      let visible, hidden =
        List.partition (fun ((e : Event.t), _) -> not (in_c e.chan)) t.children
      in
      let base = node (List.map (fun (e, t') -> (e, go t')) visible) in
      let r = List.fold_left (fun acc (_, t') -> union acc (go t')) base hidden in
      Hashtbl.add memo t.id r;
      r
  in
  go t

let restrict in_c t = hide (fun c -> not (in_c c)) t

let interleave ~events ~extra t =
  let memo : t Memo.t = Memo.create 64 in
  let rec go extra t =
    let key = (extra, t.id) in
    match Memo.find_opt memo key with
    | Some r -> r
    | None ->
      let own = List.map (fun (e, t') -> (e, go extra t')) t.children in
      let padded =
        if extra <= 0 then []
        else List.map (fun e -> (e, go (extra - 1) t)) events
      in
      let r =
        List.fold_left union (node own)
          (List.map (fun c -> node [ c ]) padded)
      in
      Memo.replace memo key r;
      r
  in
  go extra t

let par ~in_x ~in_y p q =
  let memo : t Memo.t = Memo.create 256 in
  let rec go p q =
    let key = (p.id, q.id) in
    match Memo.find_opt memo key with
    | Some r -> r
    | None ->
      let from_p =
        List.concat_map
          (fun ((e : Event.t), p') ->
            if in_y e.chan then
              match lookup e q.children with
              | Some q' -> [ (e, go p' q') ]
              | None -> []
            else [ (e, go p' q) ])
          p.children
      in
      let from_q =
        List.concat_map
          (fun ((e : Event.t), q') ->
            if in_x e.chan then [] (* shared events were handled from the P side *)
            else [ (e, go p q') ])
          q.children
      in
      let r =
        List.fold_left
          (fun acc c -> union acc (node [ c ]))
          empty (from_p @ from_q)
      in
      Memo.replace memo key r;
      r
  in
  go p q

let rec subset a b =
  if a == b || a == empty then true
  else if a.cardinal > b.cardinal || a.depth > b.depth then false
  else
    let key = (a.id, b.id) in
    match memo_find subset_tbl key with
    | Some r -> r
    | None ->
      let r =
        List.for_all
          (fun (e, t) ->
            match lookup e b.children with
            | Some t' -> subset t t'
            | None -> false)
          a.children
      in
      memo_add subset_tbl key r;
      r

(* Synchronous walk over the shared part of both tries — no trace
   materialisation.  Physically equal subtrees are skipped wholesale;
   BFS order makes the first one-sided event a shortest witness.  As
   before, a trace of [a] missing from [b] is preferred over the
   converse. *)
let first_difference a b =
  if a == b then None
  else begin
    let a_diff = ref None and b_diff = ref None in
    let queue = Queue.create () in
    Queue.add ([], a, b) queue;
    (try
       while not (Queue.is_empty queue) do
         let rev_path, na, nb = Queue.pop queue in
         if na != nb then begin
           let rec walk xs ys =
             match xs, ys with
             | [], [] -> ()
             | (e, _) :: _, [] ->
               a_diff := Some (List.rev (e :: rev_path));
               raise Exit
             | [], (e, _) :: _ ->
               if !b_diff = None then b_diff := Some (List.rev (e :: rev_path))
             | (e1, t1) :: xs', (e2, t2) :: ys' ->
               let c = Event.compare e1 e2 in
               if c < 0 then begin
                 a_diff := Some (List.rev (e1 :: rev_path));
                 raise Exit
               end
               else if c > 0 then begin
                 if !b_diff = None then
                   b_diff := Some (List.rev (e2 :: rev_path));
                 walk xs ys'
               end
               else begin
                 Queue.add (e1 :: rev_path, t1, t2) queue;
                 walk xs' ys'
               end
           in
           walk na.children nb.children
         end
       done
     with Exit -> ());
    match !a_diff with Some _ as r -> r | None -> !b_diff
  end

module Event_set = Set.Make (Event)

let events t =
  (* visit every distinct node once: sharing makes the walk linear in
     the number of *unique* nodes *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref Event_set.empty in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      List.iter
        (fun (e, t') ->
          acc := Event_set.add e !acc;
          go t')
        t.children
    end
  in
  go t;
  Event_set.elements !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Trace.pp)
    (maximal_traces t)
