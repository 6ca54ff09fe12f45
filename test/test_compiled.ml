(* The compiled successor engine: flat-table exploration over state
   vectors must be byte-identical to the interpreter — state
   numbering, transition order, truncation/deadlock bookkeeping and
   DOT — at any domain count, with or without lazy fallback
   materialisation, and the compiled simulator walk must replay the
   interpreted one. *)

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

let compiled_reply ~max_states compiled =
  Dot.render ~name:"g" ~status:Csp_server.Jobs.status_line
    (Compiled.explore_raw ~max_states compiled).Compiled.graph

(* The compiled reply equals the interpreted one at each bound: the
   caller passes its own [max_states] and one bound of the other kind
   (truncating or not), each checked against a fresh interpreted
   exploration. *)
let replies_identical ~bounds fresh_cfg compiled p =
  List.for_all
    (fun max_states ->
      String.equal
        (compiled_reply ~max_states compiled)
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

(* The default generator puts a network at the top of [main] in about
   one case in eight; these properties draw [Par] and [Hide] more
   often, so most runs exercise vectors of several leaves.  Every
   compiled case is tallied, and a closing test asserts the share. *)
let scenario =
  Gen.scenario_with { Gen.default with Gen.w_par = 8; w_hide = 2 }

let cases = ref 0
let multi_leaf = ref 0

let tally c =
  incr cases;
  if Compiled.leaves c >= 2 then incr multi_leaf;
  c

let min_multi_leaf_share = 0.2

let test_multi_leaf_share () =
  (* run on its own, it tallies cases of its own drawing *)
  let rand = Random.State.make [| 23 |] in
  while !cases < 100 do
    let sc = QCheck2.Gen.generate1 ~rand scenario in
    let cfg = Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs in
    let p = Process.ref_ sc.Scenario.main in
    ignore (tally (Compiled.compile ~budget:1 cfg p))
  done;
  let share = float_of_int !multi_leaf /. float_of_int !cases in
  Printf.printf "%d of %d generated cases (%.0f%%) had at least 2 leaves\n"
    !multi_leaf !cases (100. *. share);
  Alcotest.(check bool)
    (Printf.sprintf "share %.2f of %d cases >= %.2f" share !cases
       min_multi_leaf_share)
    true
    (share >= min_multi_leaf_share)

let compiled_identical_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"compiled explore: identical numbering, transitions and DOT"
       scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = tally (Compiled.compile cfg p) in
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
       scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = tally (Compiled.compile ~budget:1 cfg p) in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com
         && replies_identical ~bounds:(bounds_around seq 300) fresh_cfg
              compiled p))

(* The walks derive rows from state vectors, taking each leaf's row
   from a memo; every row they store must be the interpreter's,
   derived from scratch on a fresh configuration, and every state's
   term must map back to its id.  [budget:1] leaves all rows but the
   root's to the replay's fallback walk.  Each domain count replays
   through its pool, and a pool alone (no automaton) takes the
   compiled path too. *)
let row_equal a b =
  List.equal
    (fun (e1, v1, q1) (e2, v2, q2) ->
      Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
    a b

(* Every state the raw walk numbered: its row equals the one
   [reference] derives (a configuration no compile has used), and its
   term maps back to its id. *)
let rows_agree reference c (raw : Compiled.raw) =
  List.for_all
    (fun i ->
      let q = Compiled.node c (raw.Compiled.state i) in
      row_equal (Compiled.transitions_i c q) (Step.transitions_i reference q)
      &&
      match Compiled.state_of c q with
      | Some s -> Proc.equal (Compiled.node c s) q
      | None -> false)
    (List.init raw.Compiled.graph.Dot.n_states Fun.id)

let memoised_rows_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"memoised rows = fresh interpreted rows, any budget and domains"
       scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         List.for_all
           (fun domains ->
             Pool.with_pool ~domains (fun pool ->
                 List.for_all
                   (fun budget ->
                     let cfg = fresh_cfg () in
                     let c = tally (Compiled.compile ?budget cfg p) in
                     lts_identical seq
                       (Lts.explore ~max_states:300 ~pool ~compiled:c cfg p)
                     && rows_agree (fresh_cfg ()) c
                          (Compiled.explore_raw ~max_states:300 c))
                   [ None; Some 1 ]
                 && lts_identical seq
                      (Lts.explore ~max_states:300 ~pool (fresh_cfg ()) p)))
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
            (replies_identical ~bounds:(bounds_around seq 5000)
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
            (replies_identical ~bounds:[ 5; 30 ] cfg compiled p)))
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
            (replies_identical ~bounds:(bounds_around seq 10) cfg
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
    (Lts.deadlock_states lts);
  (* a name DOT would not read as an identifier is quoted *)
  List.iter
    (fun (name, id) ->
      let dot = Lts.to_dot ~name lts in
      Alcotest.(check string) (name ^ " as a DOT ID") ("digraph " ^ id ^ " {")
        (String.sub dot 0 (String.index dot '\n')))
    [
      ("hand_2", "hand_2"); ("_x", "_x"); ("token-ring", "\"token-ring\"");
      (" Ring ", "\" Ring \""); ("2x", "\"2x\""); ("node", "\"node\"");
      ("Digraph", "\"Digraph\""); ("a\"b", "\"a\\\"b\""); ("", "\"\"");
    ]

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

(* The compiled walk steps on state ids; everything a run reports
   must equal the interpreted run's, under every scheduler.  The
   philosophers (no left-handed one) reach deadlocks, and the
   5-state budget makes the id walk materialise rows as it goes. *)
let same_stats (a : Csp_sim.Stats.t) (b : Csp_sim.Stats.t) =
  a.Csp_sim.Stats.steps = b.Csp_sim.Stats.steps
  && a.Csp_sim.Stats.visible = b.Csp_sim.Stats.visible
  && a.Csp_sim.Stats.hidden = b.Csp_sim.Stats.hidden
  && List.equal
       (fun (c1, n1) (c2, n2) -> Channel.equal c1 c2 && n1 = n2)
       a.Csp_sim.Stats.per_channel b.Csp_sim.Stats.per_channel

let same_run (a : Csp_sim.Runner.result) (b : Csp_sim.Runner.result) =
  List.equal Event.equal a.Csp_sim.Runner.trace b.Csp_sim.Runner.trace
  && List.equal
       (fun (e1, v1) (e2, v2) -> Event.equal e1 e2 && Step.vis_equal v1 v2)
       a.Csp_sim.Runner.events b.Csp_sim.Runner.events
  && a.Csp_sim.Runner.stop = b.Csp_sim.Runner.stop
  && same_stats a.Csp_sim.Runner.stats b.Csp_sim.Runner.stats
  && Process.equal a.Csp_sim.Runner.final b.Csp_sim.Runner.final

let test_runner_compiled_identical () =
  let schedulers =
    [
      ("uniform", fun i -> Csp_sim.Scheduler.uniform ~seed:(7 + i));
      ("first", fun _ -> Csp_sim.Scheduler.first);
      ("rotating", fun _ -> Csp_sim.Scheduler.rotating);
      ( "weighted",
        fun i ->
          Csp_sim.Scheduler.weighted ~seed:(3 + i) ~weight:(fun e ->
              if String.length e.Event.chan.Channel.name mod 2 = 0 then 0.25
              else 1.0) );
    ]
  in
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:false () in
  let models =
    [
      ("protocol", Paper.Protocol.defs, Paper.Protocol.protocol, None);
      ( "philosophers",
        ph.Paper.Philosophers.defs,
        ph.Paper.Philosophers.network,
        Some 5 );
    ]
  in
  List.iter
    (fun (model, defs, p, budget) ->
      let eng = Engine.create ~nat_bound:2 defs in
      let compiled = Compiled.compile ?budget (Engine.step_config eng) p in
      List.iter
        (fun (name, make) ->
          for i = 0 to 3 do
            let run compiled =
              Csp_sim.Runner.run_engine ~scheduler:(make i) ~max_steps:300
                ?compiled eng p
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s, %s scheduler, run %d" model name i)
              true
              (same_run (run None) (run (Some compiled)))
          done)
        schedulers)
    models

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

let chain_engine domains =
  let defs, net = Paper.Copier.chain_defs 8 in
  (Engine.create ~domains ~nat_bound:2 defs, net)

let replay eng c net =
  Lts.explore ~max_states:200_000 ?pool:(Engine.pool eng) ~compiled:c
    (Engine.step_config eng) net

(* A 2-domain engine builds the 1-domain engine's tables. *)
let test_compile_any_domains () =
  let eng1, net = chain_engine 1 in
  let c1 = Engine.compile eng1 net in
  let eng2, _ = chain_engine 2 in
  let c2 = Engine.compile eng2 net in
  Alcotest.(check int) "n_states" (Compiled.n_states c1) (Compiled.n_states c2);
  Alcotest.(check int) "n_rows" (Compiled.n_rows c1) (Compiled.n_rows c2);
  Alcotest.(check int) "n_transitions" (Compiled.n_transitions c1)
    (Compiled.n_transitions c2);
  Alcotest.(check string) "replay DOT"
    (Lts.to_dot (replay eng1 c1 net))
    (Lts.to_dot (replay eng2 c2 net))

(* Replaying complete tables derives nothing, so the 2-domain pool
   must run no session task. *)
let test_replay_starts_no_speculation () =
  let eng, net = chain_engine 2 in
  let c = Engine.compile eng net in
  let lts, deltas = Obs.delta_snapshot (fun () -> replay eng c net) in
  Alcotest.(check int) "complete replay" (Compiled.n_states c)
    (Lts.num_states lts);
  Alcotest.(check int) "no session traffic" 0
    (Option.value ~default:0 (List.assoc_opt "pool.session_tasks" deltas))

(* ---- state vectors: directed cases ------------------------------------ *)

(* The compiled exploration of [p] equals the interpreted one, and so
   do its reply and every row (each the interpreted exploration's
   own); returns the automaton and its exploration. *)
let check_vectors ?budget ?(max_states = 2000) name defs p =
  let fresh_cfg () = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let reference = fresh_cfg () in
  let seq = Lts.explore ~max_states reference p in
  let cfg = fresh_cfg () in
  let c = Compiled.compile ?budget cfg p in
  let com = Lts.explore ~max_states ~compiled:c cfg p in
  Alcotest.(check bool) (name ^ ": identical system") true
    (lts_identical seq com);
  Alcotest.(check string) (name ^ ": identical reply") (interpreted_reply seq)
    (compiled_reply ~max_states c);
  Alcotest.(check bool) (name ^ ": identical rows") true
    (rows_agree reference c (Compiled.explore_raw ~max_states c));
  (c, com)

let chan names = Chan_set.of_names names
let out c v k = Process.Output (Chan_expr.simple c, Expr.int v, k)

(* [a!1 -> p | a!1 -> p] moves twice on a.1 to the same term: alone it
   keeps both moves, under a [Par] the second is dropped. *)
let test_duplicate_moves () =
  let defs =
    Defs.empty
    |> Defs.define "p" (out "a" 1 (Process.ref_ "p"))
    |> Defs.define "dup"
         (Process.Choice
            (out "a" 1 (Process.ref_ "p"), out "a" 1 (Process.ref_ "p")))
  in
  let net =
    Process.Par
      (chan [ "a" ], chan [ "b" ], Process.ref_ "dup", out "b" 0 Process.Stop)
  in
  let c, _ = check_vectors "dup alone" defs (Process.ref_ "dup") in
  Alcotest.(check int) "one leaf" 1 (Compiled.leaves c);
  Alcotest.(check int) "both moves kept" 2 (Compiled.out_degree c 0);
  let c, _ = check_vectors "dup under par" defs net in
  Alcotest.(check int) "two leaves" 2 (Compiled.leaves c);
  Alcotest.(check int) "a.1 once, then b.0" 2 (Compiled.out_degree c 0)

(* Both operands loop on a hidden h.0 to themselves: the two moves
   reach the same network term, so the [Par] keeps one.  Once the
   [Hide]s are skeleton nodes over reference leaves, once they sit
   inside leaf terms. *)
let test_hidden_self_loops () =
  let defs =
    Defs.empty
    |> Defs.define "p" (out "h" 0 (Process.ref_ "p"))
    |> Defs.define "hl" (Process.Hide (chan [ "h" ], Process.ref_ "p"))
  in
  let hidden = Process.Hide (chan [ "h" ], Process.ref_ "p") in
  let c, com =
    check_vectors "hidden loops in the skeleton" defs
      (Process.Par (chan [ "a" ], chan [ "b" ], hidden, hidden))
  in
  Alcotest.(check int) "one state" 1 (Lts.num_states com);
  Alcotest.(check int) "one move" 1 (Compiled.out_degree c 0);
  ignore
    (check_vectors "hidden loops in leaf terms" defs
       (Process.Par
          (chan [ "a" ], chan [ "b" ], Process.ref_ "hl", Process.ref_ "hl")))

(* The left operand loops on c.0 hidden, the right one visible: the
   [Par] keeps both, an enclosing [Hide] relabels them into equal
   moves and keeps both, and a [Par] above that drops one. *)
let test_hide_collision () =
  let defs = Defs.empty |> Defs.define "p" (out "c" 0 (Process.ref_ "p")) in
  let inner =
    Process.Par
      ( chan [ "a" ],
        chan [ "b" ],
        Process.Hide (chan [ "c" ], Process.ref_ "p"),
        Process.ref_ "p" )
  in
  let c, _ = check_vectors "par" defs inner in
  Alcotest.(check int) "hidden and visible kept" 2 (Compiled.out_degree c 0);
  let hidden = Process.Hide (chan [ "c" ], inner) in
  let c, _ = check_vectors "hide over par" defs hidden in
  Alcotest.(check int) "equal moves kept" 2 (Compiled.out_degree c 0);
  let c, _ =
    check_vectors "par over hide" defs
      (Process.Par (chan [ "x" ], chan [ "y" ], hidden, Process.Stop))
  in
  Alcotest.(check int) "one dropped" 1 (Compiled.out_degree c 0)

(* The chain's network term is its own state 0; a reference to it is
   a state of its own, whose row is its body's. *)
let test_chain_roots () =
  let defs, net = Paper.Copier.chain_defs 8 in
  let c, _ = check_vectors ~max_states:10_000 "network term" defs net in
  Alcotest.(check int) "6561 states" 6561 (Compiled.n_states c);
  Alcotest.(check int) "8 leaves" 8 (Compiled.leaves c);
  let defs = Defs.define "chain" net defs in
  let c, _ =
    check_vectors ~max_states:10_000 "reference" defs (Process.ref_ "chain")
  in
  Alcotest.(check int) "6562 states" 6562 (Compiled.n_states c);
  (* each leaf term's row is derived once, by a memo miss *)
  let before = Step.stats () in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let c = Compiled.compile cfg net in
  let after = Step.stats () in
  Alcotest.(check int) "one row per leaf term" (Compiled.leaf_terms c)
    (after.Step.op_misses - before.Step.op_misses);
  Alcotest.(check int) "no operand row asked twice" 0
    (after.Step.op_hits - before.Step.op_hits)

(* Twelve workers: vectors that differ only past the tenth leaf must
   stay distinct states. *)
let test_workers_12 () =
  let w = Models.Workers.make ~n:12 in
  let c, _ =
    check_vectors ~max_states:5000 "workers-12" w.Models.Workers.defs
      w.Models.Workers.network
  in
  Alcotest.(check int) "12 leaves" 12 (Compiled.leaves c);
  Alcotest.(check int) "2^12 states" 4096 (Compiled.n_states c)

(* A walk cut at [max_states], and rows left to the replay by a
   one-state budget. *)
let test_vector_truncation_and_fallback () =
  let defs, net = Paper.Copier.chain_defs 8 in
  let _, com =
    check_vectors ~budget:3000 ~max_states:3000 "cut at 3000" defs net
  in
  Alcotest.(check bool) "truncated" false com.Lts.complete;
  let c, _ = check_vectors ~budget:1 ~max_states:10_000 "budget 1" defs net in
  Alcotest.(check bool) "rows materialised by the replay" true
    (Compiled.fallbacks c > 0)

(* State 0 of a root reference is derived with the fuel left below the
   reference: an alias chain one shorter than [unfold_fuel]
   ([a1] = [a2] = ... = [a24], then [a25]'s body) runs out there as a
   leaf, though a full-fuel derivation of the same leaf would not.
   The compile must raise the interpreter's name. *)
let test_root_fuel () =
  let fuel = 25 in
  let name i = Printf.sprintf "a%d" i in
  let net =
    Process.Par (chan [ "done" ], chan [ "other" ], Process.ref_ "a1", Process.Stop)
  in
  let defs =
    List.fold_left
      (fun defs i -> Defs.define (name i) (Process.ref_ (name (i + 1))) defs)
      (Defs.empty |> Defs.define (name fuel) (out "done" 1 Process.Stop))
      (List.init (fuel - 1) (fun i -> i + 1))
    |> Defs.define "top" net
  in
  let fresh () =
    Step.config ~sampler:(Sampler.nat_bound 2) ~unfold_fuel:fuel defs
  in
  let raised f =
    match f () with _ -> None | exception Step.Unproductive n -> Some n
  in
  let top = Process.ref_ "top" in
  let interpreted = raised (fun () -> Step.transitions (fresh ()) top) in
  Alcotest.(check (option string)) "the interpreter runs out at the end"
    (Some (name fuel)) interpreted;
  Alcotest.(check (option string)) "so does the compile" interpreted
    (raised (fun () -> Compiled.compile (fresh ()) top));
  Alcotest.(check (option string)) "the network term has fuel enough" None
    (raised (fun () -> Compiled.compile (fresh ()) net))

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
          Alcotest.test_case "share of multi-leaf cases" `Quick
            test_multi_leaf_share;
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
          Alcotest.test_case "2-domain compile, same tables" `Quick
            test_compile_any_domains;
          Alcotest.test_case "complete replay starts no speculation" `Quick
            test_replay_starts_no_speculation;
        ] );
      ( "vectors",
        [
          Alcotest.test_case "duplicate moves under par" `Quick
            test_duplicate_moves;
          Alcotest.test_case "hidden self-loops in both operands" `Quick
            test_hidden_self_loops;
          Alcotest.test_case "hide makes moves collide" `Quick
            test_hide_collision;
          Alcotest.test_case "chain as term and as reference" `Quick
            test_chain_roots;
          Alcotest.test_case "workers-12 past the tenth leaf" `Quick
            test_workers_12;
          Alcotest.test_case "truncation and fallback rows" `Quick
            test_vector_truncation_and_fallback;
          Alcotest.test_case "root reference fuel" `Quick test_root_fuel;
        ] );
    ]
