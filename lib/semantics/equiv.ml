module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Event = Csp_trace.Event
module Obs = Csp_obs.Obs

let operational_vs_denotational ?(depth = 5) scfg dcfg p =
  let op = Step.traces scfg ~depth p in
  let dn = Denote.denote dcfg ~depth p in
  if Closure.equal op dn then Ok ()
  else
    match Closure.first_difference op dn with
    | Some s -> Error s
    | None -> Ok () (* unreachable: unequal closures differ somewhere *)

(* ---- trace refinement ---------------------------------------------- *)

(* Pairs queued by [trace_refines]: one addition per call, so the
   disabled path pays one atomic add. *)
let pairs = Obs.Counter.make "refine.pairs"

(* A set of specification states, sorted by id and duplicate-free,
   numbered in order of first sight within one call. *)
type spec_set = { sid : int; states : Proc.t list }

module Ids = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h i -> ((h * 31) + i) land max_int) 17
end)

module Image_tbl = Hashtbl.Make (struct
  type t = int * Event.t

  let equal (a, e) (b, f) = Int.equal a b && Event.equal e f
  let hash (a, e) = ((a * 31) + Event.hash e) land max_int
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d
  let hash (a, b) = ((a * 31) + b) land max_int
end)

(* FDR's check (Roscoe 1997) over the implementation's closure DAG:
   breadth first over (closure node, set of spec states after the
   trace that reached it).  Equal pairs have equal futures, so a pair
   already queued is not queued again.  The queue takes each level in
   the order its pairs were found and each node's children in
   [Event.compare] order, so traces are extended shortest first and in
   lexicographic order within a length: the first edge whose image is
   empty ends the least of the shortest violating traces. *)
let trace_refines ?(depth = 5) cfg ~impl ~spec =
  let root = Step.traces cfg ~depth impl in
  let sets = Ids.create 16 in
  let set_of states =
    let states = List.sort_uniq Proc.compare states in
    let key = List.map Proc.id states in
    match Ids.find_opt sets key with
    | Some s -> s
    | None ->
      let s = { sid = Ids.length sets; states } in
      Ids.add sets key s;
      s
  in
  (* [None]: no state of the set accepts [e] *)
  let images = Image_tbl.create 64 in
  let image s e =
    match Image_tbl.find_opt images (s.sid, e) with
    | Some r -> r
    | None ->
      let r =
        match List.concat_map (fun p -> Step.after_i cfg p e) s.states with
        | [] -> None
        | qs -> Some (set_of qs)
      in
      Image_tbl.add images (s.sid, e) r;
      r
  in
  let seen = Pair_tbl.create 64 in
  let queue = Queue.create () in
  let push rev_trace node s =
    let key = (Closure.id node, s.sid) in
    if not (Pair_tbl.mem seen key) then begin
      Pair_tbl.add seen key ();
      Queue.add (rev_trace, node, s) queue
    end
  in
  push [] root (set_of [ Proc.intern spec ]);
  let rec search () =
    match Queue.take_opt queue with
    | None -> Ok ()
    | Some (rev_trace, node, s) ->
      let rec edges = function
        | [] -> search ()
        | (e, child) :: rest -> (
          match image s e with
          | None -> Error (List.rev (e :: rev_trace))
          | Some s' ->
            push (e :: rev_trace) child s';
            edges rest)
      in
      edges (Closure.children node)
  in
  let r = search () in
  Obs.Counter.add pairs (Pair_tbl.length seen);
  r

let stop_choice_identity ?(depth = 5) dcfg p =
  Closure.equal
    (Denote.denote dcfg ~depth (Process.Choice (Process.Stop, p)))
    (Denote.denote dcfg ~depth p)

let choice_absorption ?(depth = 5) dcfg q p =
  let dq = Denote.denote dcfg ~depth q and dp = Denote.denote dcfg ~depth p in
  if Closure.subset dq dp then
    Closure.equal (Denote.denote dcfg ~depth (Process.Choice (q, p))) dp
  else true
