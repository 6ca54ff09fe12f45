(* The multicore layer: domain-pool semantics, byte-identical parallel
   LTS exploration, sharded fuzzing determinism, and the truncation
   bookkeeping that keeps deadlock reports honest on bounded
   explorations. *)

open Csp
module Fuzz = Csp_testkit.Fuzz
module Gen = Csp_testkit.Gen
module Oracle = Csp_testkit.Oracle
module Scenario = Csp_testkit.Scenario

(* Domain counts exercised by the determinism tests.  The CI parallel
   leg sets CSP_TEST_DOMAINS to add one more. *)
let domain_counts =
  let base = [ 2; 4 ] in
  match Sys.getenv_opt "CSP_TEST_DOMAINS" with
  | None -> base
  | Some s -> (
    match int_of_string_opt s with
    | Some d when d > 1 && not (List.mem d base) -> base @ [ d ]
    | _ -> base)

(* ---- the pool itself ------------------------------------------------- *)

let test_parallel_map () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Pool.parallel_map pool (fun x -> x * x) input in
      Alcotest.(check (array int))
        "squares, in input order"
        (Array.map (fun x -> x * x) input)
        out)

let test_parallel_map_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      let out = Pool.parallel_map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "sequential fast path" [| 2; 3; 4 |] out)

let test_map_chunks () =
  Pool.with_pool ~domains:2 (fun pool ->
      let input = Array.init 57 Fun.id in
      let sums =
        Pool.map_chunks pool ~chunk_size:10
          (fun chunk -> Array.fold_left ( + ) 0 chunk)
          input
      in
      Alcotest.(check int)
        "chunk sums partition the total"
        (Array.fold_left ( + ) 0 input)
        (Array.fold_left ( + ) 0 sums))

let test_run () =
  Pool.with_pool ~domains:2 (fun pool ->
      let out = Pool.run pool [ (fun () -> "a"); (fun () -> "b") ] in
      Alcotest.(check (list string)) "thunk results in order" [ "a"; "b" ] out)

exception Boom of int

let test_exception_lowest_index () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.parallel_map pool
          (fun x -> if x = 3 || x = 7 then raise (Boom x) else x)
          (Array.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected the batch to re-raise"
      | exception Boom i ->
        Alcotest.(check int) "lowest-indexed failure wins" 3 i)

let test_pool_stats () =
  let s0 = Pool.stats () in
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Pool.parallel_map pool Fun.id (Array.init 20 Fun.id)));
  let s1 = Pool.stats () in
  Alcotest.(check bool) "a pool was created" true Pool.(s1.pools > s0.pools);
  Alcotest.(check bool) "tasks ran" true Pool.(s1.tasks - s0.tasks >= 20);
  Alcotest.(check bool) "a batch ran" true Pool.(s1.batches > s0.batches)

(* ---- work-stealing deques -------------------------------------------- *)

let test_deque_lifo () =
  let d = Pool.Deque.create () in
  Alcotest.(check (option int)) "empty pops None" None (Pool.Deque.pop d);
  (* 100 items crosses the initial capacity: growth re-packs from the
     head, so order survives the copy *)
  for i = 1 to 100 do
    Pool.Deque.push d i
  done;
  Alcotest.(check int) "size counts the pushes" 100 (Pool.Deque.size d);
  let popped = List.init 100 (fun _ -> Option.get (Pool.Deque.pop d)) in
  Alcotest.(check (list int))
    "owner pops newest-first"
    (List.init 100 (fun i -> 100 - i))
    popped;
  Alcotest.(check (option int)) "drained" None (Pool.Deque.pop d)

let test_deque_steal_half () =
  let d = Pool.Deque.create () in
  for i = 1 to 7 do
    Pool.Deque.push d i
  done;
  Alcotest.(check (list int))
    "steal takes the oldest ⌈7/2⌉, oldest first" [ 1; 2; 3; 4 ]
    (Pool.Deque.steal_half d);
  Alcotest.(check int) "victim keeps the rest" 3 (Pool.Deque.size d);
  Alcotest.(check (option int))
    "owner still pops its newest" (Some 7) (Pool.Deque.pop d);
  Alcotest.(check (list int))
    "steal of 2 takes 1" [ 5 ] (Pool.Deque.steal_half d);
  Alcotest.(check (list int))
    "steal of 1 takes it" [ 6 ] (Pool.Deque.steal_half d);
  Alcotest.(check (list int))
    "steal of empty is empty" [] (Pool.Deque.steal_half d)

(* One owner pushing and popping, three thieves stealing — four
   domains on the same deque.  Conservation: every pushed item
   surfaces exactly once, on exactly one side. *)
let test_deque_conservation_4_domains () =
  let d = Pool.Deque.create () in
  let n = 10_000 in
  let finished = Atomic.make false in
  let thieves =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let rec loop () =
              match Pool.Deque.steal_half d with
              | [] ->
                if Atomic.get finished then !acc
                else begin
                  Domain.cpu_relax ();
                  loop ()
                end
              | xs ->
                acc := List.rev_append xs !acc;
                loop ()
            in
            loop ()))
  in
  let owner_got = ref [] in
  for i = 0 to n - 1 do
    Pool.Deque.push d i;
    if i mod 3 = 0 then
      match Pool.Deque.pop d with
      | Some x -> owner_got := x :: !owner_got
      | None -> ()
  done;
  let rec drain () =
    match Pool.Deque.pop d with
    | Some x ->
      owner_got := x :: !owner_got;
      drain ()
    | None -> ()
  in
  drain ();
  (* thieves only remove and the owner stopped pushing, so empty is
     final: release the thieves and collect their shares *)
  Atomic.set finished true;
  let stolen = Array.to_list thieves |> List.concat_map Domain.join in
  let all = List.sort compare (stolen @ !owner_got) in
  Alcotest.(check int) "nothing lost, nothing duplicated" n (List.length all);
  Alcotest.(check (list int)) "every item exactly once" (List.init n Fun.id) all

(* ---- parallel exploration ≡ sequential exploration ------------------- *)

let lts_equal_seq (seq : Lts.t) (par : Lts.t) =
  Lts.num_states par = Lts.num_states seq
  && Lts.num_transitions par = Lts.num_transitions seq
  && par.Lts.complete = seq.Lts.complete
  && Array.for_all2 Process.equal par.Lts.states seq.Lts.states
  && String.equal (Lts.to_dot par) (Lts.to_dot seq)

let explore_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"parallel explore: identical numbering, transitions and DOT"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         List.for_all
           (fun domains ->
             Pool.with_pool ~domains (fun pool ->
                 (* fresh config: the parallel run must not be allowed
                    to coast on the sequential run's caches *)
                 let par = Lts.explore ~max_states:300 ~pool (fresh_cfg ()) p in
                 lts_equal_seq seq par))
           domain_counts))

(* The interesting parallel case — frontiers wide enough to actually
   chunk — hit deterministically, not only when the generator obliges. *)
let test_explore_philosophers_identical () =
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:false () in
  let fresh_cfg () =
    Step.config ~sampler:(Sampler.nat_bound 3) ph.Paper.Philosophers.defs
  in
  let net = ph.Paper.Philosophers.network in
  let seq = Lts.explore ~max_states:5000 (fresh_cfg ()) net in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let par = Lts.explore ~max_states:5000 ~pool (fresh_cfg ()) net in
          Alcotest.(check bool)
            (Printf.sprintf "philosophers identical at %d domains" domains)
            true (lts_equal_seq seq par)))
    domain_counts

(* ---- sharded fuzzing ≡ sequential fuzzing ---------------------------- *)

(* A deliberately failing oracle so the determinism check covers the
   counterexample (and shrinking) path, not only the all-pass path. *)
let even_size_fails : Oracle.t =
  {
    Oracle.name = "test-even-size-fails";
    doc = "fails on scenarios of even size (test-only)";
    check =
      (fun sc ->
        let n = Scenario.size sc in
        if n mod 2 = 0 then Oracle.Fail (Printf.sprintf "size %d is even" n)
        else Oracle.Pass);
  }

let counterexample_equal (a : Fuzz.counterexample) (b : Fuzz.counterexample) =
  a.Fuzz.case = b.Fuzz.case
  && String.equal a.Fuzz.oracle b.Fuzz.oracle
  && String.equal a.Fuzz.detail b.Fuzz.detail
  && Scenario.equal a.Fuzz.scenario b.Fuzz.scenario
  && Scenario.equal a.Fuzz.original b.Fuzz.original

let test_fuzz_jobs_deterministic () =
  let config jobs =
    {
      Fuzz.default_config with
      Fuzz.seed = 11;
      max_cases = 40;
      oracles = Oracle.all @ [ even_size_fails ];
      jobs;
    }
  in
  let r1 = Fuzz.run (config 1) in
  List.iter
    (fun jobs ->
      let rn = Fuzz.run (config jobs) in
      Alcotest.(check int)
        (Printf.sprintf "cases at %d jobs" jobs)
        r1.Fuzz.cases rn.Fuzz.cases;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "oracle runs at %d jobs" jobs)
        r1.Fuzz.oracle_runs rn.Fuzz.oracle_runs;
      Alcotest.(check int)
        (Printf.sprintf "counterexample count at %d jobs" jobs)
        (List.length r1.Fuzz.counterexamples)
        (List.length rn.Fuzz.counterexamples);
      Alcotest.(check bool)
        (Printf.sprintf "counterexample corpus at %d jobs" jobs)
        true
        (List.for_all2 counterexample_equal r1.Fuzz.counterexamples
           rn.Fuzz.counterexamples))
    domain_counts;
  Alcotest.(check bool)
    "the failing oracle did fail somewhere" true
    (r1.Fuzz.counterexamples <> [])

(* ---- telemetry must not perturb output ------------------------------- *)

(* The Obs determinism contract: instruments observe, they never feed
   back into scheduling — so the same run with tracing on must produce
   byte-identical user-visible output, including under a multi-domain
   pool where a perturbed schedule would be most likely to show. *)

let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.clear_events ())
    f

let test_graph_identical_with_telemetry () =
  let dot_of () =
    let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
    Pool.with_pool ~domains:2 (fun pool ->
        Lts.to_dot (Lts.explore ~max_states:2000 ~pool cfg Paper.Protocol.network))
  in
  let off = dot_of () in
  let on, recorded =
    with_obs_enabled (fun () ->
        let d = dot_of () in
        (d, Obs.event_count ()))
  in
  Alcotest.(check bool) "the traced run did record spans" true (recorded > 0);
  Alcotest.(check string) "DOT byte-identical with tracing on" off on

let test_fuzz_identical_with_telemetry () =
  let config =
    {
      Fuzz.default_config with
      Fuzz.seed = 11;
      max_cases = 30;
      oracles = Oracle.all @ [ even_size_fails ];
      jobs = 2;
    }
  in
  let off = Fuzz.run config in
  let on = with_obs_enabled (fun () -> Fuzz.run config) in
  Alcotest.(check int) "cases identical" off.Fuzz.cases on.Fuzz.cases;
  Alcotest.(check (list (pair string int)))
    "oracle runs identical" off.Fuzz.oracle_runs on.Fuzz.oracle_runs;
  Alcotest.(check bool)
    "counterexample corpus identical" true
    (List.length off.Fuzz.counterexamples
     = List.length on.Fuzz.counterexamples
    && List.for_all2 counterexample_equal off.Fuzz.counterexamples
         on.Fuzz.counterexamples)

(* ---- truncation bookkeeping ------------------------------------------ *)

(* count[n] = tick!n -> count[n+1]: an infinite chain, so any state
   bound truncates and the last interned state has its only move
   dropped.  It must not read as a deadlock. *)
let counter_defs =
  Defs.empty
  |> Defs.define_array "count" "n" Vset.Nat
       (Process.Output
          ( Chan_expr.simple "tick",
            Expr.Var "n",
            Process.call "count" (Expr.Add (Expr.Var "n", Expr.int 1)) ))

let test_truncated_not_deadlocked () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) counter_defs in
  let lts = Lts.explore ~max_states:5 cfg (Process.call "count" (Expr.int 0)) in
  Alcotest.(check int) "bounded states" 5 (Lts.num_states lts);
  Alcotest.(check bool) "incomplete" false lts.Lts.complete;
  Alcotest.(check (list int))
    "the cut state is flagged, not deadlocked" [ 4 ]
    (Lts.truncated_states lts);
  Alcotest.(check (list int))
    "no deadlock false positive" [] (Lts.deadlock_states lts);
  let dot = Lts.to_dot lts in
  Alcotest.(check bool)
    "DOT draws the cut state dashed" true
    (let marker = "n4 [shape=circle, style=dashed];" in
     let rec contains i =
       i + String.length marker <= String.length dot
       && (String.equal (String.sub dot i (String.length marker)) marker
          || contains (i + 1))
     in
     contains 0)

let test_real_deadlock_still_reported () =
  let defs =
    Defs.empty
    |> Defs.define "once"
         (Process.Output (Chan_expr.simple "a", Expr.int 0, Process.Stop))
  in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let lts = Lts.explore ~max_states:10 cfg (Process.ref_ "once") in
  Alcotest.(check bool) "complete" true lts.Lts.complete;
  Alcotest.(check (list int)) "nothing truncated" [] (Lts.truncated_states lts);
  Alcotest.(check (list int)) "STOP is deadlocked" [ 1 ] (Lts.deadlock_states lts)

let test_num_transitions_matches_list () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
  let lts = Lts.explore ~max_states:500 cfg Paper.Protocol.network in
  Alcotest.(check int)
    "stored count = list length"
    (List.length lts.Lts.transitions)
    (Lts.num_transitions lts);
  let quotiented = Bisim.minimise lts in
  Alcotest.(check int)
    "derived systems keep the invariant"
    (List.length quotiented.Lts.transitions)
    (Lts.num_transitions quotiented)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "single-domain fast path" `Quick
            test_parallel_map_single_domain;
          Alcotest.test_case "map_chunks" `Quick test_map_chunks;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "lowest-indexed exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "stats counters" `Quick test_pool_stats;
        ] );
      ( "deque",
        [
          Alcotest.test_case "push/pop LIFO across growth" `Quick
            test_deque_lifo;
          Alcotest.test_case "steal_half takes the oldest half" `Quick
            test_deque_steal_half;
          Alcotest.test_case "conservation under 4 domains" `Quick
            test_deque_conservation_4_domains;
        ] );
      ( "explore",
        [
          explore_deterministic;
          Alcotest.test_case "philosophers byte-identical" `Quick
            test_explore_philosophers_identical;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "jobs determinism" `Quick
            test_fuzz_jobs_deterministic;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "graph byte-identical with tracing" `Quick
            test_graph_identical_with_telemetry;
          Alcotest.test_case "fuzz byte-identical with tracing" `Quick
            test_fuzz_identical_with_telemetry;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "no deadlock false positive" `Quick
            test_truncated_not_deadlocked;
          Alcotest.test_case "real deadlocks survive" `Quick
            test_real_deadlock_still_reported;
          Alcotest.test_case "num_transitions" `Quick
            test_num_transitions_matches_list;
        ] );
    ]
