(* Prefix closures: set operations, and the §3.1 theorems as executable
   properties — prefix-closedness of every operator, distributivity
   through unions, and the projection characterisation of parallel
   composition. *)

open Csp
open Test_support

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let a1 = ev "a" 1
let b2 = ev "b" 2
let c3 = ev "c" 3

(* Prefix-closedness of an explicit trace list. *)
let closed_as_set t =
  let traces = Closure.to_traces t in
  List.for_all
    (fun s -> List.for_all (fun p -> Closure.mem p t) (Trace.prefixes s))
    traces

let test_empty () =
  check_int "only the empty trace" 1 (Closure.cardinal Closure.empty);
  check_bool "mem empty" true (Closure.mem [] Closure.empty);
  check_bool "nothing else" false (Closure.mem [ a1 ] Closure.empty);
  check_int "depth" 0 (Closure.depth Closure.empty)

let test_prefix_op () =
  let t = Closure.prefix a1 (Closure.prefix b2 Closure.empty) in
  check_bool "member" true (Closure.mem [ a1; b2 ] t);
  check_bool "prefix member" true (Closure.mem [ a1 ] t);
  check_bool "empty member" true (Closure.mem [] t);
  check_bool "wrong order rejected" false (Closure.mem [ b2; a1 ] t);
  check_int "cardinal" 3 (Closure.cardinal t);
  check_int "depth" 2 (Closure.depth t)

let test_add_of_traces () =
  let t = Closure.of_traces [ [ a1; b2 ]; [ a1; c3 ]; [ b2 ] ] in
  check_int "nodes" 5 (Closure.cardinal t);
  check_bool "closed" true (closed_as_set t);
  check_int "maximal traces" 3 (List.length (Closure.maximal_traces t));
  check_int "all traces" 5 (List.length (Closure.to_traces t))

let test_union_inter () =
  let t1 = Closure.of_traces [ [ a1; b2 ] ]
  and t2 = Closure.of_traces [ [ a1; c3 ] ] in
  let u = Closure.union t1 t2 in
  check_bool "union has both" true
    (Closure.mem [ a1; b2 ] u && Closure.mem [ a1; c3 ] u);
  let i = Closure.inter t1 t2 in
  check_bool "inter has common prefix" true (Closure.mem [ a1 ] i);
  check_bool "inter drops divergence" false (Closure.mem [ a1; b2 ] i);
  check_int "inter size" 2 (Closure.cardinal i)

let test_truncate () =
  let t = Closure.of_traces [ [ a1; b2; c3 ] ] in
  let t2 = Closure.truncate 2 t in
  check_int "depth cut" 2 (Closure.depth t2);
  check_bool "short traces kept" true (Closure.mem [ a1; b2 ] t2);
  check_bool "idempotent" true (Closure.equal t2 (Closure.truncate 2 t2))

let test_hide () =
  let t = Closure.of_traces [ [ a1; b2; a1 ]; [ b2; b2 ] ] in
  let h = Closure.hide (fun c -> Channel.base c = "b") t in
  check_bool "b gone" true (Closure.mem [ a1; a1 ] h);
  check_bool "only a remains" false
    (List.exists
       (fun s -> List.exists (fun (e : Event.t) -> Channel.base e.Event.chan = "b") s)
       (Closure.to_traces h));
  check_bool "result closed" true (closed_as_set h);
  let r = Closure.restrict (fun c -> Channel.base c = "b") t in
  check_bool "restrict keeps only b" true (Closure.mem [ b2; b2 ] r)

let test_interleave () =
  let t = Closure.of_traces [ [ a1 ] ] in
  let i = Closure.interleave ~events:[ c3 ] ~extra:1 t in
  check_bool "c before" true (Closure.mem [ c3; a1 ] i);
  check_bool "c after" true (Closure.mem [ a1; c3 ] i);
  check_bool "original kept" true (Closure.mem [ a1 ] i);
  check_bool "budget respected" false (Closure.mem [ c3; c3 ] i)

(* Parallel composition: sync on shared channels, interleave otherwise. *)
let test_par_sync () =
  let in_a c = Channel.base c = "a" in
  let in_ab c = in_a c || Channel.base c = "b" in
  (* P = <a.1 b.2>, Q = <a.1 c.3>, shared alphabet {a} *)
  let p = Closure.of_traces [ [ a1; b2 ] ]
  and q = Closure.of_traces [ [ a1; c3 ] ] in
  let pq = Closure.par ~in_x:in_ab ~in_y:(fun c -> in_a c || Channel.base c = "c") p q in
  check_bool "synced then interleaved" true (Closure.mem [ a1; b2; c3 ] pq);
  check_bool "other interleaving" true (Closure.mem [ a1; c3; b2 ] pq);
  check_bool "a happens once" false (Closure.mem [ a1; a1 ] pq);
  check_bool "b cannot precede sync" false (Closure.mem [ b2 ] pq);
  check_bool "closed" true (closed_as_set pq)

let test_par_blocking () =
  (* Disagreeing on a shared channel's value blocks both. *)
  let p = Closure.of_traces [ [ ev "a" 1 ] ]
  and q = Closure.of_traces [ [ ev "a" 2 ] ] in
  let in_a c = Channel.base c = "a" in
  let pq = Closure.par ~in_x:in_a ~in_y:in_a p q in
  check_int "deadlock: only empty trace" 1 (Closure.cardinal pq)

let test_first_difference () =
  let t1 = Closure.of_traces [ [ a1; b2 ] ]
  and t2 = Closure.of_traces [ [ a1 ] ] in
  check Alcotest.(option trace_testable) "difference found" (Some [ a1; b2 ])
    (Closure.first_difference t1 t2);
  check Alcotest.(option trace_testable) "equal: none" None
    (Closure.first_difference t1 t1)

let test_events () =
  let t = Closure.of_traces [ [ a1; b2 ]; [ c3 ] ] in
  check_int "distinct events" 3 (List.length (Closure.events t))

(* ---- §3.1 theorems as properties ----------------------------------- *)

let prop_ops_preserve_closure =
  qcheck_case "every operator yields a prefix closure"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (t1, t2) ->
      let in_a c = Channel.base c = "a" in
      closed_as_set (Closure.union t1 t2)
      && closed_as_set (Closure.inter t1 t2)
      && closed_as_set (Closure.prefix a1 t1)
      && closed_as_set (Closure.hide in_a t1)
      && closed_as_set (Closure.truncate 2 t1)
      && closed_as_set (Closure.par ~in_x:(fun _ -> true) ~in_y:in_a t1 t2))

let prop_prefix_distributes =
  (* (a → ∪ Px) = ∪ (a → Px) — the distributivity theorem of §3.1 *)
  qcheck_case "prefix distributes through union"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (t1, t2) ->
      Closure.equal
        (Closure.prefix a1 (Closure.union t1 t2))
        (Closure.union (Closure.prefix a1 t1) (Closure.prefix a1 t2)))

let prop_hide_distributes =
  qcheck_case "hiding distributes through union"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (t1, t2) ->
      let in_a c = Channel.base c = "a" in
      Closure.equal
        (Closure.hide in_a (Closure.union t1 t2))
        (Closure.union (Closure.hide in_a t1) (Closure.hide in_a t2)))

let prop_par_distributes_left =
  qcheck_case "parallel distributes through union on the left"
    QCheck2.Gen.(triple closure_gen closure_gen closure_gen)
    (fun (t1, t2, q) ->
      let in_x _ = true and in_y c = Channel.base c = "a" in
      Closure.equal
        (Closure.par ~in_x ~in_y (Closure.union t1 t2) q)
        (Closure.union (Closure.par ~in_x ~in_y t1 q)
           (Closure.par ~in_x ~in_y t2 q)))

let prop_union_laws =
  qcheck_case "union is idempotent, commutative, associative"
    QCheck2.Gen.(triple closure_gen closure_gen closure_gen)
    (fun (a, b, c) ->
      Closure.equal (Closure.union a a) a
      && Closure.equal (Closure.union a b) (Closure.union b a)
      && Closure.equal
           (Closure.union a (Closure.union b c))
           (Closure.union (Closure.union a b) c))

let prop_subset_union =
  qcheck_case "a ⊆ a ∪ b and inter ⊆ union"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (a, b) ->
      Closure.subset a (Closure.union a b)
      && Closure.subset (Closure.inter a b) (Closure.union a b))

let prop_mem_to_traces_agree =
  qcheck_case "to_traces enumerates exactly the members"
    QCheck2.Gen.(pair closure_gen trace_gen)
    (fun (t, s) ->
      let members = Closure.to_traces t in
      Closure.mem s t = List.exists (Trace.equal s) members)

(* The paper's definition: traces of (P ‖ Q) project onto traces of the
   operands. *)
let prop_par_projection =
  qcheck_case "par traces project onto operand traces"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (p, q) ->
      let in_x c = Channel.base c <> "c" (* X = {a, b, d} *)
      and in_y c = Channel.base c <> "b" (* Y = {a, c, d} *) in
      (* the paper's precondition: P communicates only on X, Q only on Y *)
      let p = Closure.restrict in_x p and q = Closure.restrict in_y q in
      let pq = Closure.par ~in_x ~in_y p q in
      List.for_all
        (fun s ->
          Closure.mem (Trace.restrict in_x s) p
          && Closure.mem (Trace.restrict in_y s) q)
        (Closure.to_traces pq))

(* Cross-check par against the paper's (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))
   construction on a bounded alphabet. *)
let prop_par_vs_interleave_inter =
  qcheck_case ~count:60 "par = (P ⇑ Y−X) ∩ (Q ⇑ X−Y) up to depth"
    QCheck2.Gen.(
      pair
        (map Closure.of_traces (list_size (int_range 0 3) (list_size (int_range 0 3) event_gen)))
        (map Closure.of_traces (list_size (int_range 0 3) (list_size (int_range 0 3) event_gen))))
    (fun (p0, q0) ->
      (* Restrict operands to their alphabets first. *)
      let in_x c = Channel.base c = "a" || Channel.base c = "b" in
      let in_y c = Channel.base c = "a" || Channel.base c = "c" in
      let p = Closure.restrict in_x p0 and q = Closure.restrict in_y q0 in
      let direct = Closure.par ~in_x ~in_y p q in
      (* events of the complement alphabets, sampled from the operands *)
      let y_minus_x =
        List.filter (fun (e : Event.t) -> not (in_x e.Event.chan)) (Closure.events q)
      in
      let x_minus_y =
        List.filter (fun (e : Event.t) -> not (in_y e.Event.chan)) (Closure.events p)
      in
      let depth = max (Closure.depth p) (Closure.depth q) * 2 in
      let via_interleave =
        Closure.inter
          (Closure.interleave ~events:y_minus_x ~extra:depth p)
          (Closure.interleave ~events:x_minus_y ~extra:depth q)
      in
      (* The interleaving construction bounds the padding, so compare at
         the depth both sides cover. *)
      Closure.equal
        (Closure.truncate depth direct)
        (Closure.truncate depth via_interleave))

(* ---- agreement with the retained naive reference ------------------- *)

(* Every memoised / hash-consed operation must compute the same trace
   set as the pre-hash-consing implementation ([Closure_ref], the old
   unshared trie kept as an executable specification). *)

let sorted_traces_c c = List.sort Trace.compare (Closure.to_traces c)
let sorted_traces_r r = List.sort Trace.compare (Closure_ref.to_traces r)
let agrees c r = List.equal Trace.equal (sorted_traces_c c) (sorted_traces_r r)

let prop_ref_binary_ops =
  qcheck_case "hash-consed union/inter agree with the naive reference"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (a, b) ->
      let ra = Closure_ref.of_closure a and rb = Closure_ref.of_closure b in
      agrees (Closure.union a b) (Closure_ref.union ra rb)
      && agrees (Closure.inter a b) (Closure_ref.inter ra rb))

let prop_ref_unary_ops =
  qcheck_case "hash-consed hide/truncate/prefix agree with the reference"
    QCheck2.Gen.(pair closure_gen (int_range 0 4))
    (fun (a, n) ->
      let ra = Closure_ref.of_closure a in
      let in_a c = Channel.base c = "a" in
      agrees (Closure.hide in_a a) (Closure_ref.hide in_a ra)
      && agrees (Closure.truncate n a) (Closure_ref.truncate n ra)
      && agrees (Closure.prefix a1 a) (Closure_ref.prefix a1 ra))

let prop_ref_par_interleave =
  qcheck_case ~count:80 "hash-consed par/interleave agree with the reference"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (a, b) ->
      let in_x c = Channel.base c <> "c" and in_y c = Channel.base c <> "b" in
      let ra = Closure_ref.of_closure a and rb = Closure_ref.of_closure b in
      agrees (Closure.par ~in_x ~in_y a b) (Closure_ref.par ~in_x ~in_y ra rb)
      && agrees
           (Closure.interleave ~events:[ c3 ] ~extra:2 a)
           (Closure_ref.interleave ~events:[ c3 ] ~extra:2 ra))

let prop_ref_predicates =
  qcheck_case "subset/equal/mem/cardinal/depth agree with the reference"
    QCheck2.Gen.(triple closure_gen closure_gen trace_gen)
    (fun (a, b, s) ->
      let ra = Closure_ref.of_closure a and rb = Closure_ref.of_closure b in
      Closure.subset a b = Closure_ref.subset ra rb
      && Closure.equal a b = Closure_ref.equal ra rb
      && Closure.mem s a = Closure_ref.mem s ra
      && Closure.cardinal a = Closure_ref.cardinal ra
      && Closure.depth a = Closure_ref.depth ra)

let prop_ref_union_all =
  (* the balanced reduction vs the reference's left fold *)
  qcheck_case "union_all (balanced) agrees with the reference (left fold)"
    QCheck2.Gen.(list_size (int_range 0 7) closure_gen)
    (fun ts ->
      agrees
        (Closure.union_all ts)
        (Closure_ref.union_all (List.map Closure_ref.of_closure ts)))

let prop_hashcons_physical_equality =
  (* the point of the unique table: equal sets are the same pointer,
     whatever order they were built in *)
  qcheck_case "of_traces is order-insensitive up to physical equality"
    QCheck2.Gen.(list_size (int_range 0 6) trace_gen)
    (fun ss ->
      let a = Closure.of_traces ss and b = Closure.of_traces (List.rev ss) in
      Closure.equal a b && Closure.id a = Closure.id b)

(* The unique table keeps every node: a trie built by [add] (which no
   compute table memoises) re-interns to the same id after a major
   collection. *)
let test_id_survives_gc () =
  let add_fresh () =
    Closure.id (Closure.add [ ev "gc_probe" 1; ev "gc_probe" 2 ] Closure.empty)
  in
  let id = add_fresh () in
  Gc.full_major ();
  check_int "same id after a major GC" id (add_fresh ())

(* Canonicity under concurrent interning: four domains build the same
   tries; the results must be pointer-identical across domains, and the
   build must intern exactly as many nodes as one sequential build of
   an isomorphic family (every event carries the family's salt, so
   neither family shares a node with anything built before it). *)
let test_intern_concurrent_canonical () =
  let family salt =
    let trace i k =
      List.init (k + 2) (fun j -> ev "conc" ((salt * 10_000) + (i * 10) + j))
    in
    Array.init 50 (fun i -> Closure.of_traces (List.init 4 (trace i)))
  in
  let nodes () = (Closure.stats ()).Closure.nodes in
  let n0 = nodes () in
  ignore (family 1);
  let sequential = nodes () - n0 in
  let n1 = nodes () in
  let results =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map pool (fun _ -> family 2) (Array.init 4 Fun.id))
  in
  Array.iter
    (fun per_domain ->
      check_bool "pointer-identical across domains" true
        (Array.for_all2 Closure.equal results.(0) per_domain))
    results;
  check_int "nodes grow as for one sequential build" sequential (nodes () - n1)

let prop_fold_traces =
  qcheck_case "fold_traces enumerates to_traces in order" closure_gen
    (fun a ->
      List.equal Trace.equal (Closure.to_traces a)
        (List.rev (Closure.fold_traces (fun s acc -> s :: acc) a [])))

let prop_first_difference_sound =
  qcheck_case "first_difference returns a member of exactly one side"
    QCheck2.Gen.(pair closure_gen closure_gen)
    (fun (a, b) ->
      match Closure.first_difference a b with
      | None -> Closure.equal a b
      | Some s -> Closure.mem s a <> Closure.mem s b)

(* ---- stats: counters and memo-table observability -------------------- *)

(* Two closures guaranteed distinct from each other (and from anything
   hash-consing may share with other tests). *)
let stats_left () = Closure.of_traces [ [ a1; b2 ]; [ a1; c3 ] ]
let stats_right () = Closure.of_traces [ [ b2; a1 ]; [ c3 ] ]

let test_stats_monotone () =
  let s0 = Closure.stats () in
  let l = stats_left () and r = stats_right () in
  ignore (Closure.union l r);
  ignore (Closure.inter l r);
  ignore (Closure.truncate 1 l);
  ignore (Closure.subset l r);
  let s1 = Closure.stats () in
  check_bool "nodes never decrease" true (s1.Closure.nodes >= s0.Closure.nodes);
  check_bool "hits never decrease" true
    (s1.Closure.memo_hits >= s0.Closure.memo_hits);
  check_bool "misses never decrease" true
    (s1.Closure.memo_misses >= s0.Closure.memo_misses);
  check_bool "the operations left a footprint" true
    (s1.Closure.memo_hits + s1.Closure.memo_misses
    > s0.Closure.memo_hits + s0.Closure.memo_misses)

(* On cold memo tables the first run of each operation records misses;
   repeating the very same operations is pure hits — and creates no new
   nodes, because every result is already interned. *)
let test_stats_memo_observable () =
  let l = stats_left () and r = stats_right () in
  let ops () =
    ignore (Closure.union l r);
    ignore (Closure.inter l r);
    ignore (Closure.truncate 1 l)
  in
  Closure.clear_caches ();
  let s0 = Closure.stats () in
  ops ();
  let s1 = Closure.stats () in
  check_bool "cold tables: misses recorded" true
    (s1.Closure.memo_misses > s0.Closure.memo_misses);
  ops ();
  let s2 = Closure.stats () in
  check_bool "warm tables: hits recorded" true
    (s2.Closure.memo_hits > s1.Closure.memo_hits);
  check_int "warm tables: no new misses" s1.Closure.memo_misses
    s2.Closure.memo_misses;
  check_int "warm tables: no new nodes" s1.Closure.nodes s2.Closure.nodes

let test_stats_clear_caches () =
  let l = stats_left () and r = stats_right () in
  ignore (Closure.union l r);
  (* warm up, then clear: the same union must miss again — the memo
     tables were really emptied — while the unique table survives, so
     no new nodes are created for an already-interned result *)
  Closure.clear_caches ();
  ignore (Closure.union l r);
  let s1 = Closure.stats () in
  Closure.clear_caches ();
  ignore (Closure.union l r);
  let s2 = Closure.stats () in
  check_bool "misses recorded again after clear" true
    (s2.Closure.memo_misses > s1.Closure.memo_misses);
  check_int "interned results survive the clear" s1.Closure.nodes
    s2.Closure.nodes

let () =
  Alcotest.run "closure"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "prefix operator" `Quick test_prefix_op;
          Alcotest.test_case "add / of_traces" `Quick test_add_of_traces;
          Alcotest.test_case "union / inter" `Quick test_union_inter;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "hide / restrict" `Quick test_hide;
          Alcotest.test_case "interleave" `Quick test_interleave;
          Alcotest.test_case "first difference" `Quick test_first_difference;
          Alcotest.test_case "events" `Quick test_events;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "synchronisation" `Quick test_par_sync;
          Alcotest.test_case "value disagreement blocks" `Quick test_par_blocking;
          prop_par_projection;
          prop_par_vs_interleave_inter;
        ] );
      ( "theorems(§3.1)",
        [
          prop_ops_preserve_closure;
          prop_prefix_distributes;
          prop_hide_distributes;
          prop_par_distributes_left;
          prop_union_laws;
          prop_subset_union;
          prop_mem_to_traces_agree;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters monotone" `Quick test_stats_monotone;
          Alcotest.test_case "memoisation observable" `Quick
            test_stats_memo_observable;
          Alcotest.test_case "clear_caches resets memo tables" `Quick
            test_stats_clear_caches;
          Alcotest.test_case "ids survive a major GC" `Quick
            test_id_survives_gc;
          Alcotest.test_case "concurrent interning canonical" `Quick
            test_intern_concurrent_canonical;
        ] );
      ( "hash-consing agreement",
        [
          prop_ref_binary_ops;
          prop_ref_unary_ops;
          prop_ref_par_interleave;
          prop_ref_predicates;
          prop_ref_union_all;
          prop_hashcons_physical_equality;
          prop_fold_traces;
          prop_first_difference_sound;
        ] );
    ]
