(* Operational semantics: transitions, synchronisation, hiding,
   derivatives, deadlock, trace enumeration. *)

open Csp
open Test_support

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cfg ?(nat = 2) defs = Step.config ~sampler:(Sampler.nat_bound nat) defs
let cfg0 = cfg Defs.empty

let out c v k = Process.send c (Expr.int v) k
let inp c x m k = Process.recv c x m k

let test_stop () =
  check_int "no transitions" 0 (List.length (Step.transitions cfg0 Process.Stop));
  check_bool "deadlocked" true (Step.is_deadlocked cfg0 Process.Stop)

let test_output () =
  match Step.transitions cfg0 (out "a" 1 Process.Stop) with
  | [ (e, Step.Visible, Process.Stop) ] ->
    check_bool "event" true (Event.equal e (ev "a" 1))
  | _ -> Alcotest.fail "expected exactly one visible transition"

let test_input_sampling () =
  let p = inp "a" "x" Vset.Nat (out "b" 0 Process.Stop) in
  check_int "sampler bounds enumeration" 2
    (List.length (Step.transitions cfg0 p));
  let p2 = inp "a" "x" (Vset.Enum [ Value.ack; Value.nack ]) Process.Stop in
  check_int "finite set enumerated fully" 2
    (List.length (Step.transitions cfg0 p2))

let test_input_binds () =
  let p = inp "a" "x" Vset.Nat (Process.send "b" (Expr.Var "x") Process.Stop) in
  let continuations = Step.transitions cfg0 p in
  List.iter
    (fun ((e : Event.t), _, k) ->
      match k with
      | Process.Output (_, Expr.Const v, _) ->
        check_bool "value propagated" true (Value.equal v e.Event.value)
      | _ -> Alcotest.fail "expected substituted output")
    continuations

let test_choice () =
  let p = Process.Choice (out "a" 1 Process.Stop, out "b" 2 Process.Stop) in
  check_int "both branches" 2 (List.length (Step.transitions cfg0 p))

let ab = Chan_set.of_names [ "a"; "b" ]

let test_par_sync_required () =
  (* both sides share {a}: value mismatch blocks *)
  let p = Process.Par (ab, ab, out "a" 1 Process.Stop, out "a" 2 Process.Stop) in
  check_bool "blocked" true (Step.is_deadlocked cfg0 p);
  let q = Process.Par (ab, ab, out "a" 1 Process.Stop, out "a" 1 Process.Stop) in
  check_int "agreement syncs" 1 (List.length (Step.transitions cfg0 q))

let test_par_passive_side_unsampled () =
  (* Regression: an output value outside the partner's sampled set must
     still synchronise when it is in the declared input set. *)
  let p =
    Process.Par
      ( ab,
        ab,
        out "a" 17 Process.Stop,
        inp "a" "x" Vset.Nat (Process.send "b" (Expr.Var "x") Process.Stop) )
  in
  match Step.transitions cfg0 p with
  | [ (e, Step.Visible, _) ] ->
    check_bool "sync at 17" true (Event.equal e (ev "a" 17))
  | l -> Alcotest.failf "expected one transition, got %d" (List.length l)

let test_par_interleave_free () =
  let only_a = Chan_set.of_names [ "a" ] and only_b = Chan_set.of_names [ "b" ] in
  let p =
    Process.Par (only_a, only_b, out "a" 1 Process.Stop, out "b" 2 Process.Stop)
  in
  check_int "both free" 2 (List.length (Step.transitions cfg0 p));
  let traces = Step.traces cfg0 ~depth:2 p in
  check_bool "both orders" true
    (Closure.mem [ ev "a" 1; ev "b" 2 ] traces
    && Closure.mem [ ev "b" 2; ev "a" 1 ] traces)

let test_hide_visibility () =
  let p = Process.Hide (Chan_set.of_names [ "a" ], out "a" 1 (out "b" 2 Process.Stop)) in
  (match Step.transitions cfg0 p with
  | [ (_, Step.Hidden, _) ] -> ()
  | _ -> Alcotest.fail "a is hidden");
  let traces = Step.traces cfg0 ~depth:3 p in
  check_bool "visible trace skips a" true (Closure.mem [ ev "b" 2 ] traces);
  check_bool "hidden not recorded" false
    (List.exists
       (fun s -> List.exists (Event.equal (ev "a" 1)) s)
       (Closure.to_traces traces))

let test_nested_hide () =
  let p =
    Process.Hide
      ( Chan_set.of_names [ "a" ],
        Process.Hide
          ( Chan_set.of_names [ "b" ],
            out "b" 2 (out "a" 1 (out "c" 3 Process.Stop)) ) )
  in
  let traces = Step.traces cfg0 ~depth:3 p in
  check_bool "only c visible" true (Closure.mem [ ev "c" 3 ] traces);
  check_int "maximal" 1 (List.length (Closure.maximal_traces traces))

let test_after_accepts () =
  let defs = defs_copier in
  let c = cfg defs in
  let copier = Process.ref_ "copier" in
  check_int "after input" 1 (List.length (Step.after c copier (ev "input" 1)));
  check_int "cannot start with wire" 0
    (List.length (Step.after c copier (ev "wire" 1)));
  check_bool "accepts valid trace" true
    (Step.accepts_trace c copier [ ev "input" 1; ev "wire" 1; ev "input" 0 ]);
  check_bool "rejects mismatched copy" false
    (Step.accepts_trace c copier [ ev "input" 1; ev "wire" 2 ]);
  (* beyond the sampler: inputs accept any NAT on the derivative path *)
  check_bool "accepts unsampled value" true
    (Step.accepts_trace c copier [ ev "input" 77; ev "wire" 77 ])

let test_after_through_hiding () =
  let defs = defs_copier in
  let c = cfg defs in
  let hidden =
    Process.Hide (Chan_set.of_names [ "input" ], Process.ref_ "copier")
  in
  (* wire.0 is reachable after a hidden input.0 *)
  check_bool "derivative crosses hidden steps" true
    (Step.after c hidden (ev "wire" 0) <> [])

let test_unproductive () =
  let defs = Defs.empty |> Defs.define "loop" (Process.ref_ "loop") in
  let c = cfg defs in
  match Step.transitions c (Process.ref_ "loop") with
  | exception Step.Unproductive "loop" -> ()
  | _ -> Alcotest.fail "expected Unproductive"

(* A compile walk memoises operand rows, each with the unfold fuel its
   derivation needed.  Here the operand [a0] is first derived with
   enough fuel (as [top]'s left operand, 24 left), then again below
   the [b0 = … = b10] alias chain, where 13 is left and its 21-deep
   chain runs out at [a13].  A memo that ignored fuel would answer the
   second derivation from the first and raise nothing.  [done] is
   not shared, so no synchronisation derives [a0] on the way. *)
let test_memo_respects_fuel () =
  (* [p0 = p1 = … = p<n>], each an alias of the next *)
  let aliases p n defs =
    List.fold_left
      (fun defs i ->
        Defs.define (Printf.sprintf "%s%d" p i)
          (Process.ref_ (Printf.sprintf "%s%d" p (i + 1)))
          defs)
      defs (List.init n Fun.id)
  in
  let x = Chan_set.of_names [ "done" ] and y = Chan_set.of_names [ "other" ] in
  let par p q = Process.Par (x, y, p, q) in
  let defs =
    Defs.empty
    |> Defs.define "a20" (out "done" 1 Process.Stop)
    |> aliases "a" 20
    |> Defs.define "b10" (par (Process.ref_ "a0") Process.Stop)
    |> aliases "b" 10
    |> Defs.define "top" (par (Process.ref_ "a0") (Process.ref_ "b0"))
  in
  let fresh () =
    Step.config ~sampler:(Sampler.nat_bound 2) ~unfold_fuel:25 defs
  in
  let top = Process.ref_ "top" in
  let raised f =
    match f () with _ -> None | exception Step.Unproductive n -> Some n
  in
  let interpreted = raised (fun () -> Step.transitions (fresh ()) top) in
  Alcotest.(check (option string)) "the interpreter runs out at a13" (Some "a13")
    interpreted;
  Alcotest.(check (option string)) "the memoised compile raises the same"
    interpreted
    (raised (fun () -> Compiled.compile (fresh ()) top))

(* A compile derives each state-vector leaf's row once, so the memo
   answers from inside leaf terms that are networks themselves:
   multiplier's [network] has two leaves, [pipeline] and [last], and
   [pipeline] unfolds to a network of four stages whose operand rows
   and partner synchronisations recur across its states. *)
let test_memo_hits_inside_leaf () =
  let src =
    In_channel.with_open_bin (build_file "examples/multiplier.csp")
      In_channel.input_all
  in
  let file = Csp_syntax.Parser.parse_file_exn src in
  let cfg =
    Step.config ~sampler:(Sampler.nat_bound 2) file.Csp_syntax.Parser.defs
  in
  let before = Step.stats () in
  let c = Compiled.compile ~budget:2000 cfg (Process.ref_ "network") in
  let after = Step.stats () in
  check_int "two leaves" 2 (Compiled.leaves c);
  check_bool "operand rows reused" true
    (after.Step.op_hits - before.Step.op_hits > 0);
  check_bool "partner synchronisations reused" true
    (after.Step.sync_hits - before.Step.sync_hits > 0)

(* Regression for the transition cache's keying: within one query the
   cache can only miss (each state is derived once), so hits must come
   from a *second* query on the same configuration.  A keying bug that
   never hits shows up here as a zero delta. *)
let test_trans_cache_hits_across_queries () =
  let c = cfg defs_copier in
  let copier = Process.ref_ "copier" in
  let explore () = ignore (Lts.explore ~max_states:200 c copier) in
  explore ();
  let before = Step.stats () in
  explore ();
  let after = Step.stats () in
  check_bool "second query hits the warm cache" true
    (after.Step.trans_hits > before.Step.trans_hits);
  check_int "and derives nothing new" before.Step.trans_misses
    after.Step.trans_misses

let test_traces_growth () =
  let defs = defs_copier in
  let c = cfg defs in
  let copier = Process.ref_ "copier" in
  let sizes =
    List.map
      (fun d -> Closure.cardinal (Step.traces c ~depth:d copier))
      [ 0; 1; 2; 3; 4 ]
  in
  check Alcotest.(list int) "alternating branching (2 inputs, 1 output)"
    [ 1; 3; 5; 9; 13 ] sizes

let test_traces_prefix_closed () =
  let defs = defs_copier in
  let t = Step.traces (cfg defs) ~depth:4 (Process.ref_ "copier") in
  check_bool "closure property" true
    (List.for_all
       (fun s -> List.for_all (fun p -> Closure.mem p t) (Trace.prefixes s))
       (Closure.to_traces t))

let prop_traces_monotone_in_depth =
  qcheck_case ~count:80 "traces at depth d ⊆ traces at depth d+1" process_gen
    (fun p ->
      let t1 = Step.traces cfg0 ~depth:3 p
      and t2 = Step.traces cfg0 ~depth:4 p in
      Closure.subset t1 t2)

let prop_traces_bounded_by_depth =
  qcheck_case ~count:80 "no trace exceeds the depth bound" process_gen (fun p ->
      Closure.depth (Step.traces cfg0 ~depth:3 p) <= 3)

let prop_choice_union =
  qcheck_case ~count:80 "traces (P|Q) = traces P ∪ traces Q"
    QCheck2.Gen.(pair process_gen process_gen)
    (fun (p, q) ->
      Closure.equal
        (Step.traces cfg0 ~depth:3 (Process.Choice (p, q)))
        (Closure.union
           (Step.traces cfg0 ~depth:3 p)
           (Step.traces cfg0 ~depth:3 q)))

let prop_enumerated_accepted =
  qcheck_case ~count:60 "every enumerated trace is accepted" process_gen
    (fun p ->
      List.for_all
        (Step.accepts_trace cfg0 p)
        (Closure.to_traces (Step.traces cfg0 ~depth:3 p)))

let () =
  Alcotest.run "step"
    [
      ( "transitions",
        [
          Alcotest.test_case "STOP" `Quick test_stop;
          Alcotest.test_case "output" `Quick test_output;
          Alcotest.test_case "input sampling" `Quick test_input_sampling;
          Alcotest.test_case "input binding" `Quick test_input_binds;
          Alcotest.test_case "choice" `Quick test_choice;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sync required on shared" `Quick
            test_par_sync_required;
          Alcotest.test_case "passive side beyond sampler" `Quick
            test_par_passive_side_unsampled;
          Alcotest.test_case "free interleaving" `Quick test_par_interleave_free;
        ] );
      ( "hiding",
        [
          Alcotest.test_case "visibility" `Quick test_hide_visibility;
          Alcotest.test_case "nested" `Quick test_nested_hide;
          Alcotest.test_case "derivative across hidden" `Quick
            test_after_through_hiding;
        ] );
      ( "derivatives",
        [
          Alcotest.test_case "after / accepts" `Quick test_after_accepts;
          Alcotest.test_case "unproductive recursion" `Quick test_unproductive;
        ] );
      ( "caches",
        [
          Alcotest.test_case "trans cache hits across queries" `Quick
            test_trans_cache_hits_across_queries;
          Alcotest.test_case "walk memo respects unfold fuel" `Quick
            test_memo_respects_fuel;
          Alcotest.test_case "walk memo hits inside a network leaf" `Quick
            test_memo_hits_inside_leaf;
        ] );
      ( "traces",
        [
          Alcotest.test_case "growth profile" `Quick test_traces_growth;
          Alcotest.test_case "prefix closed" `Quick test_traces_prefix_closed;
          prop_traces_monotone_in_depth;
          prop_traces_bounded_by_depth;
          prop_choice_union;
          prop_enumerated_accepted;
        ] );
    ]
