(* The compiled successor engine: flat-table exploration must be
   byte-identical to the interpreter — state numbering, transition
   order, truncation/deadlock bookkeeping and DOT — at any domain
   count, with or without lazy fallback materialisation, and the
   compiled simulator walk must replay the interpreted one. *)

open Csp
module Gen = Csp_testkit.Gen
module Scenario = Csp_testkit.Scenario

let domain_counts =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "CSP_TEST_DOMAINS" with
  | None -> base
  | Some s -> (
    match int_of_string_opt s with
    | Some d when d > 1 && not (List.mem d base) -> base @ [ d ]
    | _ -> base)

let transition_equal (a : Lts.transition) (b : Lts.transition) =
  a.Lts.source = b.Lts.source
  && a.Lts.target = b.Lts.target
  && a.Lts.visible = b.Lts.visible
  && Event.equal a.Lts.event b.Lts.event

(* Stronger than test_parallel's check: the transition *list* must
   match element for element, not only the sorted DOT rendering. *)
let lts_identical (seq : Lts.t) (com : Lts.t) =
  Lts.num_states com = Lts.num_states seq
  && Lts.num_transitions com = Lts.num_transitions seq
  && com.Lts.complete = seq.Lts.complete
  && com.Lts.initial = seq.Lts.initial
  && Array.for_all2 Process.equal com.Lts.states seq.Lts.states
  && List.for_all2 transition_equal com.Lts.transitions seq.Lts.transitions
  && Array.for_all2 Bool.equal com.Lts.truncated seq.Lts.truncated
  && List.equal Int.equal (Lts.deadlock_states com) (Lts.deadlock_states seq)
  && String.equal (Lts.to_dot com) (Lts.to_dot seq)

(* The reply [cspc graph] prints, both ways.  The interpreted
   reference takes its status facts from the list-based [Lts]
   functions and its DOT from [Lts.to_dot]; the compiled reply is
   written by the one DOT writer straight from the walk's edges, as
   [Jobs.graph] does. *)
let interpreted_reply (lts : Lts.t) =
  Printf.sprintf
    "%d states, %d transitions%s; deterministic=%b; deadlock states: %d\n"
    (Lts.num_states lts) (Lts.num_transitions lts)
    (if lts.Lts.complete then ""
     else
       Printf.sprintf " (truncated; %d states with dropped moves)"
         (List.length (Lts.truncated_states lts)))
    (Lts.is_deterministic lts)
    (List.length (Lts.deadlock_states lts))
  ^ Lts.to_dot ~name:"g" lts

let compiled_reply ?pool ~max_states compiled =
  Dot.render ~name:"g" ~status:Csp_server.Jobs.status_line
    (Compiled.explore_raw ~max_states ?pool compiled).Compiled.graph

(* The compiled reply equals the interpreted one at each bound: the
   caller passes its own [max_states] and one bound of the other kind
   (truncating or not), each checked against a fresh interpreted
   exploration. *)
let replies_identical ?pool ~bounds fresh_cfg compiled p =
  List.for_all
    (fun max_states ->
      String.equal
        (compiled_reply ?pool ~max_states compiled)
        (interpreted_reply (Lts.explore ~max_states (fresh_cfg ()) p)))
    bounds

(* [max_states] and, when the reference ran to completion with more
   than one state, the bound one below its state count — which cuts
   the last state discovered, so the reply is truncated. *)
let bounds_around (seq : Lts.t) max_states =
  if seq.Lts.complete && Lts.num_states seq > 1 then
    [ max_states; Lts.num_states seq - 1 ]
  else [ max_states ]

(* ---- QCheck differential: generated scenarios ------------------------ *)

let compiled_identical_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"compiled explore: identical numbering, transitions and DOT"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = Compiled.compile cfg p in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com
         && replies_identical ~bounds:(bounds_around seq 300) fresh_cfg
              compiled p))

(* The fallback path: a compile budget far below the reachable state
   count leaves most rows unmaterialised, so exploration must lazily
   materialise them — and still be identical. *)
let compiled_fallback_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"compiled explore under tiny budget: fallback is identical"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = Compiled.compile ~budget:1 cfg p in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com
         && replies_identical ~bounds:(bounds_around seq 300) fresh_cfg
              compiled p))

(* The walks derive rows through a memo of operand rows and partner
   synchronisations; every row they store must be the interpreter's,
   derived from scratch on a fresh configuration.  [budget:1] leaves
   all rows but the root's to the replay's fallback walk, and each
   domain count > 1 derives them through the frontier's views. *)
let row_equal a b =
  List.equal
    (fun (e1, v1, q1) (e2, v2, q2) ->
      Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
    a b

let memoised_rows_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"memoised rows = fresh interpreted rows, any budget and domains"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         List.for_all
           (fun domains ->
             Pool.with_pool ~domains (fun pool ->
                 List.for_all
                   (fun budget ->
                     let c = Compiled.compile ?budget ~pool (fresh_cfg ()) p in
                     let raw = Compiled.explore_raw ~max_states:300 ~pool c in
                     let reference = fresh_cfg () in
                     List.for_all
                       (fun i ->
                         let q = raw.Compiled.node i in
                         row_equal
                           (Compiled.transitions_i c q)
                           (Step.transitions_i reference q))
                       (List.init raw.Compiled.graph.Dot.n_states Fun.id))
                   [ None; Some 1 ]))
           domain_counts))

(* ---- determinism across domain counts -------------------------------- *)

let test_philosophers_identical_any_domains () =
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:false () in
  let fresh_cfg () =
    Step.config ~sampler:(Sampler.nat_bound 3) ph.Paper.Philosophers.defs
  in
  let net = ph.Paper.Philosophers.network in
  let seq = Lts.explore ~max_states:5000 (fresh_cfg ()) net in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let cfg = fresh_cfg () in
          (* budget below the state space so the parallel fallback
             materialisation path runs, not just the compiled prefix *)
          let compiled = Compiled.compile ~budget:2 cfg net in
          let com = Lts.explore ~max_states:5000 ~pool ~compiled cfg net in
          Alcotest.(check bool)
            (Printf.sprintf "philosophers identical at %d domains" domains)
            true (lts_identical seq com);
          Alcotest.(check bool)
            (Printf.sprintf "philosophers reply identical at %d domains"
               domains)
            true
            (replies_identical ~pool ~bounds:(bounds_around seq 5000)
               fresh_cfg compiled net);
          Alcotest.(check bool)
            "lazy rows were materialised" true
            (Compiled.fallbacks compiled > 0)))
    domain_counts

(* ---- truncation and deadlock bookkeeping ----------------------------- *)

let counter_defs =
  Defs.empty
  |> Defs.define_array "count" "n" Vset.Nat
       (Process.Output
          ( Chan_expr.simple "tick",
            Expr.Var "n",
            Process.call "count" (Expr.Add (Expr.Var "n", Expr.int 1)) ))

let test_truncation_identical () =
  let p = Process.call "count" (Expr.int 0) in
  let cfg () = Step.config ~sampler:(Sampler.nat_bound 2) counter_defs in
  let seq = Lts.explore ~max_states:5 (cfg ()) p in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let c = cfg () in
          (* the compile runs past the explore bound: ids beyond
             max_states exist in the automaton but must not leak into
             the exploration *)
          let compiled = Compiled.compile ~budget:20 c p in
          let com = Lts.explore ~max_states:5 ~pool ~compiled c p in
          Alcotest.(check bool) "identical truncated system" true
            (lts_identical seq com);
          Alcotest.(check bool) "incomplete" false com.Lts.complete;
          Alcotest.(check (list int)) "cut state flagged" [ 4 ]
            (Lts.truncated_states com);
          Alcotest.(check (list int)) "no deadlock false positive" []
            (Lts.deadlock_states com);
          (* the counter never completes: both bounds truncate, one
             inside the compiled prefix and one beyond it *)
          Alcotest.(check bool)
            (Printf.sprintf "truncated reply identical at %d domains" domains)
            true
            (replies_identical ~pool ~bounds:[ 5; 30 ] cfg compiled p)))
    domain_counts

let test_deadlock_identical () =
  let defs =
    Defs.empty
    |> Defs.define "once"
         (Process.Output (Chan_expr.simple "a", Expr.int 0, Process.Stop))
  in
  let p = Process.ref_ "once" in
  let cfg () = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let seq = Lts.explore ~max_states:10 (cfg ()) p in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let c = cfg () in
          let compiled = Compiled.compile c p in
          let com = Lts.explore ~max_states:10 ~pool ~compiled c p in
          Alcotest.(check bool) "identical system" true (lts_identical seq com);
          Alcotest.(check bool) "complete" true com.Lts.complete;
          Alcotest.(check (list int)) "STOP is deadlocked" [ 1 ]
            (Lts.deadlock_states com);
          (* at bound 1 the STOP state is cut: no deadlock, one
             truncated state *)
          Alcotest.(check bool)
            (Printf.sprintf "deadlock reply identical at %d domains" domains)
            true
            (replies_identical ~pool ~bounds:(bounds_around seq 10) cfg
               compiled p)))
    domain_counts

(* A derived system (as quotients build them) lists its transitions
   in no particular order; the writer sorts each source's edges by
   (target, event, visibility) and reads the status facts off the
   same arrays. *)
let test_ungrouped_dot () =
  let ev c v = Event.make (Channel.simple c) v in
  let tr source event visible target = { Lts.source; event; visible; target } in
  let lts =
    Lts.make ~truncated:[| false; true; false |] ~initial:0
      ~states:[| Process.Stop; Process.Stop; Process.Stop |]
      ~transitions:
        [
          tr 1 (ev "c" (Value.Str "q")) true 2;
          tr 0 (ev "a" (Value.Int 1)) true 1;
          tr 1 (ev "b" (Value.Int 0)) true 0;
          tr 0 (ev "a" (Value.Int 0)) false 1;
          tr 0 (ev "a" (Value.Int 1)) true 0;
        ]
      ~complete:false ()
  in
  Alcotest.(check string) "sorted, escaped DOT"
    "digraph hand {\n\
    \  rankdir=LR;\n\
    \  n0 [style=bold];\n\
    \  n2 [shape=doublecircle];\n\
    \  n1 [shape=circle, style=dashed];\n\
    \  n0 -> n0 [label=\"a.1\"];\n\
    \  n0 -> n1 [label=\"a.0\", style=dashed];\n\
    \  n0 -> n1 [label=\"a.1\"];\n\
    \  n1 -> n0 [label=\"b.0\"];\n\
    \  n1 -> n2 [label=\"c.\\\"q\\\"\"];\n\
     }\n"
    (Lts.to_dot ~name:"hand" lts);
  Alcotest.(check bool) "reference: nondeterministic on a.1" false
    (Lts.is_deterministic lts);
  Alcotest.(check (list int)) "reference: state 2 deadlocks" [ 2 ]
    (Lts.deadlock_states lts)

(* ---- the automaton itself -------------------------------------------- *)

let test_compiled_tables () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
  let compiled = Compiled.compile cfg Paper.Protocol.network in
  Alcotest.(check bool) "states assigned" true (Compiled.n_states compiled > 0);
  Alcotest.(check int) "all rows materialised within budget"
    (Compiled.n_states compiled) (Compiled.n_rows compiled);
  Alcotest.(check int) "no fallbacks within budget" 0
    (Compiled.fallbacks compiled);
  Alcotest.(check bool) "events interned" true (Compiled.n_events compiled > 0);
  (* flat rows agree with the interpreter on every compiled state *)
  let seq = Lts.explore ~max_states:2000 cfg Paper.Protocol.network in
  Alcotest.(check int) "compiled prefix covers the exploration"
    (Lts.num_states seq) (Compiled.n_states compiled);
  let root = Compiled.root compiled in
  let by_compiled = Compiled.transitions_i compiled root
  and by_interpreter = Step.transitions_i cfg root in
  Alcotest.(check bool) "row = interpreter list" true
    (List.for_all2
       (fun (e1, v1, q1) (e2, v2, q2) ->
         Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
       by_compiled by_interpreter)

(* states outside the automaton delegate to the interpreter *)
let test_off_automaton_fallback () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
  let compiled = Compiled.compile cfg Paper.Protocol.network in
  let other = Proc.intern Paper.Protocol.protocol in
  let by_compiled = Compiled.transitions_i compiled other
  and by_interpreter = Step.transitions_i cfg other in
  Alcotest.(check bool) "off-automaton state answered identically" true
    (List.for_all2
       (fun (e1, v1, q1) (e2, v2, q2) ->
         Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
       by_compiled by_interpreter)

(* ---- engine cache, runner and bisimulation --------------------------- *)

let test_engine_compile_cached () =
  let eng = Engine.create ~nat_bound:2 Paper.Protocol.defs in
  let c1 = Engine.compile eng Paper.Protocol.network in
  let c2 = Engine.compile eng Paper.Protocol.network in
  Alcotest.(check bool) "same automaton object" true (c1 == c2);
  let c3 = Engine.compile (Engine.with_depth eng 9) Paper.Protocol.network in
  Alcotest.(check bool) "with_depth shares the cache" true (c1 == c3)

let test_runner_compiled_identical () =
  let eng = Engine.create ~nat_bound:2 ~seed:7 Paper.Protocol.defs in
  let p = Paper.Protocol.protocol in
  let interp = Csp_sim.Runner.run_engine ~max_steps:200 eng p in
  let compiled = Engine.compile eng p in
  let fast = Csp_sim.Runner.run_engine ~max_steps:200 ~compiled eng p in
  Alcotest.(check bool) "same trace" true
    (List.equal Event.equal interp.Csp_sim.Runner.trace
       fast.Csp_sim.Runner.trace);
  Alcotest.(check bool) "same stop reason" true
    (interp.Csp_sim.Runner.stop = fast.Csp_sim.Runner.stop);
  Alcotest.(check bool) "same final state" true
    (Process.equal interp.Csp_sim.Runner.final fast.Csp_sim.Runner.final)

let test_bisim_compiler_same_answer () =
  let eng = Engine.create ~nat_bound:2 Paper.Protocol.defs in
  let cfg = Engine.step_config eng in
  let compiler = Engine.compile eng in
  let p = Paper.Protocol.protocol and q = Paper.Protocol.network in
  let plain = Bisim.weak_equivalent cfg p q
  and routed = Bisim.weak_equivalent ~compiler cfg p q in
  Alcotest.(check bool) "weak_equivalent unchanged" plain routed;
  let plain_s = Bisim.equivalent cfg p p
  and routed_s = Bisim.equivalent ~compiler cfg p p in
  Alcotest.(check bool) "equivalent unchanged" plain_s routed_s

(* ---- the building walk on a multi-domain engine ---------------------- *)

(* The summed deltas of [keys] while [f] runs. *)
let moved keys f =
  let r, deltas = Obs.delta_snapshot f in
  ( r,
    List.fold_left
      (fun acc k -> acc + Option.value ~default:0 (List.assoc_opt k deltas))
      0 keys )

let chain_engine domains =
  let defs, net = Paper.Copier.chain_defs 8 in
  (Engine.create ~domains ~nat_bound:2 defs, net)

let replay eng c net =
  Lts.explore ~max_states:200_000 ?pool:(Engine.pool eng) ~compiled:c
    (Engine.step_config eng) net

(* A 2-domain engine compiles through the speculative frontier, and
   the tables it builds are the 1-domain ones. *)
let test_compile_through_frontier () =
  let eng1, net = chain_engine 1 in
  let c1 = Engine.compile eng1 net in
  let eng2, _ = chain_engine 2 in
  let c2, speculated =
    moved [ "frontier.hits"; "frontier.misses" ] (fun () ->
        Engine.compile eng2 net)
  in
  Alcotest.(check bool) "the frontier served the compile" true (speculated > 0);
  Alcotest.(check int) "n_states" (Compiled.n_states c1) (Compiled.n_states c2);
  Alcotest.(check int) "n_rows" (Compiled.n_rows c1) (Compiled.n_rows c2);
  Alcotest.(check int) "n_transitions" (Compiled.n_transitions c1)
    (Compiled.n_transitions c2);
  Alcotest.(check string) "replay DOT"
    (Lts.to_dot (replay eng1 c1 net))
    (Lts.to_dot (replay eng2 c2 net))

(* Replaying complete tables derives nothing, so the 2-domain pool
   must start no speculation at all. *)
let test_replay_starts_no_speculation () =
  let eng, net = chain_engine 2 in
  let c = Engine.compile eng net in
  let lts, speculated =
    moved [ "frontier.hits"; "frontier.misses"; "pool.session_tasks" ]
      (fun () -> replay eng c net)
  in
  Alcotest.(check int) "complete replay" (Compiled.n_states c)
    (Lts.num_states lts);
  Alcotest.(check int) "no frontier or session traffic" 0 speculated

let () =
  Alcotest.run "compiled"
    [
      ( "differential",
        [
          compiled_identical_qcheck;
          compiled_fallback_qcheck;
          memoised_rows_qcheck;
          Alcotest.test_case "philosophers identical at 1/2/4 domains" `Quick
            test_philosophers_identical_any_domains;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "truncated system identical" `Quick
            test_truncation_identical;
          Alcotest.test_case "deadlocks survive" `Quick test_deadlock_identical;
          Alcotest.test_case "ungrouped transitions render sorted" `Quick
            test_ungrouped_dot;
        ] );
      ( "tables",
        [
          Alcotest.test_case "flat rows" `Quick test_compiled_tables;
          Alcotest.test_case "off-automaton fallback" `Quick
            test_off_automaton_fallback;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine cache" `Quick test_engine_compile_cached;
          Alcotest.test_case "runner identical" `Quick
            test_runner_compiled_identical;
          Alcotest.test_case "bisim compiler" `Quick
            test_bisim_compiler_same_answer;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "2-domain compile speculates, same tables" `Quick
            test_compile_through_frontier;
          Alcotest.test_case "complete replay starts no speculation" `Quick
            test_replay_starts_no_speculation;
        ] );
    ]
