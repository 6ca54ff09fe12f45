(* Hash-consed process IR (the process-side analogue of the closure
   kernel's unique table).

   Every node is interned in a global unique table ({!Hashcons}), so
   structurally equal process terms — in the sense of [Process.equal] —
   are *physically* equal.  Consequences exploited by the semantic
   pipelines:

   - [equal] is pointer equality (O(1)), [hash]/[id] are precomputed
     per node (O(1));
   - state-keyed memo tables (derivatives, LTS exploration, partition
     refinement, denotational approximation) key on node ids instead of
     rehashing deep terms on every probe;
   - rebuilding a network state that differs only in one inner
     continuation (the common case for [Par] spines) interns each fresh
     spine node in O(1) — children are already interned, so the shallow
     hash combines their ids with the small leaf components;
   - every node carries its [Process.t] view, built incrementally from
     the children's views, so projecting back to the plain AST is a
     field read and shares subterms maximally.

   Node ids are allocated from a monotonic counter and never reused.
   The unique table keeps every node, so a term re-interned later gets
   the same node and id back.

   The alphabets of [Par] and [Hide] nodes are interned too, in a table
   of their own: a network state rebuilt at every step keeps its
   alphabets, so hashing and comparing them is a field read and a
   pointer test, and membership is a lookup in an index by base name
   built once per alphabet. *)

module Channel = Csp_trace.Channel

(* ---- interned alphabets ------------------------------------------------ *)

module Alphabet = struct
  (* What one base name admits: every channel of that name (a [Base]
     item, or a subscript that does not evaluate, which [Chan_set.mem]
     matches conservatively), the evaluated subscripts of its closed
     [Chan] items, and its [Family] sets. *)
  type entry = {
    every : bool;
    indices : Csp_trace.Value.t list list;
    families : Vset.t list;
  }

  type t = {
    id : int;
    hash : int;
    set : Chan_set.t;
    free : string list;  (* [Chan_set.free_vars set] *)
    index : (string * entry) list;  (* one entry per base name *)
  }

  let no_entry = { every = false; indices = []; families = [] }

  let rec find name = function
    | [] -> no_entry
    | (n, e) :: rest -> if String.equal n name then e else find name rest

  let add_item index item =
    let name, update =
      match item with
      | Chan_set.Base n -> (n, fun e -> { e with every = true })
      | Chan_set.Family (n, m) ->
        (n, fun e -> { e with families = e.families @ [ m ] })
      | Chan_set.Chan ce -> (
        ( ce.Chan_expr.name,
          match Chan_expr.eval Valuation.empty ce with
          | c -> fun e -> { e with indices = e.indices @ [ c.Channel.indices ] }
          | exception Expr.Eval_error _ -> fun e -> { e with every = true } ))
    in
    let rec go = function
      | [] -> [ (name, update no_entry) ]
      | (n, e) :: rest when String.equal n name -> (n, update e) :: rest
      | b :: rest -> b :: go rest
    in
    go index

  let next_id = Atomic.make 0

  module Unique = Hashcons.Make (struct
    type nonrec t = t
    type key = Chan_set.t
    type extra = unit

    let hash = Chan_set.hash
    let equal set a = Chan_set.equal set a.set

    let make ~hash set () =
      {
        id = Atomic.fetch_and_add next_id 1;
        hash;
        set;
        free = Chan_set.free_vars set;
        index = List.fold_left add_item [] set;
      }

    let sentinel = { id = -1; hash = 0; set = []; free = []; index = [] }
  end)

  let make set = Unique.intern set ()
  let id a = a.id
  let hash a = a.hash
  let set a = a.set

  let mem a (c : Channel.t) =
    let e = find c.name a.index in
    e.every
    || List.exists
         (fun ix -> Csp_trace.Value.compare_list ix c.indices = 0)
         e.indices
    ||
    match c.indices with
    | [ v ] -> List.exists (fun m -> Vset.mem m v) e.families
    | _ -> false

  let subst_value x v a =
    if List.exists (String.equal x) a.free then
      make (Chan_set.subst_value x v a.set)
    else a
end

type t = { id : int; hkey : int; node : node; repr : Process.t }

and node =
  | Stop
  | Output of Chan_expr.t * Expr.t * t
  | Input of Chan_expr.t * string * Vset.t * t
  | Choice of t * t
  | Par of Alphabet.t * Alphabet.t * t * t
  | Hide of Alphabet.t * t
  | Ref of string * Expr.t option

let id t = t.id
let hash t = t.hkey
let node t = t.node
let equal a b = a == b
let compare a b = Int.compare a.id b.id
let to_process t = t.repr

(* Shallow equality: children and alphabets by pointer, leaf
   components by the same structural equalities [Process.equal] uses —
   so interning canonicalises exactly [Process.equal]. *)
let node_equal a b =
  match a, b with
  | Stop, Stop -> true
  | Output (c1, e1, k1), Output (c2, e2, k2) ->
    k1 == k2 && Chan_expr.equal c1 c2 && Expr.equal e1 e2
  | Input (c1, x1, m1, k1), Input (c2, x2, m2, k2) ->
    k1 == k2 && String.equal x1 x2 && Chan_expr.equal c1 c2 && Vset.equal m1 m2
  | Choice (p1, q1), Choice (p2, q2) -> p1 == p2 && q1 == q2
  | Par (xa1, ya1, p1, q1), Par (xa2, ya2, p2, q2) ->
    p1 == p2 && q1 == q2 && xa1 == xa2 && ya1 == ya2
  | Hide (l1, p1), Hide (l2, p2) -> p1 == p2 && l1 == l2
  | Ref (n1, a1), Ref (n2, a2) ->
    String.equal n1 n2 && Option.equal Expr.equal a1 a2
  | (Stop | Output _ | Input _ | Choice _ | Par _ | Hide _ | Ref _), _ -> false

let comb h k = ((h * 31) + k) land max_int

let node_hash = function
  | Stop -> 1
  | Output (c, e, k) ->
    comb (comb (comb 2 (Chan_expr.hash c)) (Expr.hash e)) k.id
  | Input (c, x, m, k) ->
    comb
      (comb (comb (comb 3 (Chan_expr.hash c)) (Hashtbl.hash x)) (Vset.hash m))
      k.id
  | Choice (p, q) -> comb (comb 4 p.id) q.id
  | Par (xa, ya, p, q) ->
    comb (comb (comb (comb 5 (Alphabet.hash xa)) (Alphabet.hash ya)) p.id) q.id
  | Hide (l, p) -> comb (comb 6 (Alphabet.hash l)) p.id
  | Ref (n, a) ->
    comb
      (comb 7 (Hashtbl.hash n))
      (match a with None -> 0 | Some e -> Expr.hash e)

(* Ids count up from 0 in insertion order across all shards, so they
   stay globally unique (and, in sequential runs, dense in creation
   order).  [repr] must be structurally equal to the node's unfolding;
   callers below either pass the original term being interned or
   rebuild the view in O(1) from the children's views. *)
let next_id = Atomic.make 0

module Unique = Hashcons.Make (struct
  type nonrec t = t
  type key = node
  type extra = Process.t

  let hash = node_hash
  let equal node t = node_equal node t.node

  let make ~hash node repr =
    { id = Atomic.fetch_and_add next_id 1; hkey = hash; node; repr }

  let sentinel = { id = -1; hkey = 0; node = Stop; repr = Process.Stop }
end)

let mk = Unique.intern

type stats = { nodes : int; hits : int; misses : int; lock_waits : int }

let stats () =
  let nodes = Atomic.get next_id in
  {
    nodes;
    hits = Unique.hits ();
    misses = nodes;
    lock_waits = Unique.lock_waits ();
  }

let stop = mk Stop Process.Stop

let output c e k = mk (Output (c, e, k)) (Process.Output (c, e, k.repr))
let input c x m k = mk (Input (c, x, m, k)) (Process.Input (c, x, m, k.repr))
let choice p q = mk (Choice (p, q)) (Process.Choice (p.repr, q.repr))

let par xa ya p q =
  mk (Par (xa, ya, p, q))
    (Process.Par (Alphabet.set xa, Alphabet.set ya, p.repr, q.repr))

let hide l p = mk (Hide (l, p)) (Process.Hide (Alphabet.set l, p.repr))
let ref_ n arg = mk (Ref (n, arg)) (Process.Ref (n, arg))

let rec intern (p : Process.t) =
  match p with
  | Process.Stop -> stop
  | Process.Output (c, e, k) -> mk (Output (c, e, intern k)) p
  | Process.Input (c, x, m, k) -> mk (Input (c, x, m, intern k)) p
  | Process.Choice (a, b) -> mk (Choice (intern a, intern b)) p
  | Process.Par (xa, ya, a, b) ->
    mk (Par (Alphabet.make xa, Alphabet.make ya, intern a, intern b)) p
  | Process.Hide (l, a) -> mk (Hide (Alphabet.make l, intern a)) p
  | Process.Ref (n, arg) -> mk (Ref (n, arg)) p

(* Substitution mirrors [Process.subst_value]: [Input] rebinding stops
   the descent; channel-set items substitute through [Chan] items only.
   No memo: the same physical subterm may sit both under and outside a
   shadowing binder, so a key on the node id alone would be unsound. *)
let rec subst_value x v t =
  match t.node with
  | Stop -> t
  | Output (c, e, k) ->
    output (Chan_expr.subst_value x v c) (Expr.subst_value x v e)
      (subst_value x v k)
  | Input (c, y, m, k) ->
    let c = Chan_expr.subst_value x v c in
    if String.equal x y then input c y m k else input c y m (subst_value x v k)
  | Choice (p, q) -> choice (subst_value x v p) (subst_value x v q)
  | Par (xa, ya, p, q) ->
    par
      (Alphabet.subst_value x v xa)
      (Alphabet.subst_value x v ya)
      (subst_value x v p) (subst_value x v q)
  | Hide (l, p) -> hide (Alphabet.subst_value x v l) (subst_value x v p)
  | Ref (n, arg) -> ref_ n (Option.map (Expr.subst_value x v) arg)

let pp ppf t = Process.pp ppf t.repr
let to_string t = Process.to_string t.repr
