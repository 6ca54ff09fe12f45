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

(* ---- sessions -------------------------------------------------------- *)

(* Three drivers on one shared stack, with the caller pushing from a
   fourth domain: every caller item makes its driver push one
   follow-up, and every one of the 20 000 items runs exactly once. *)
let test_session_conservation_4_domains () =
  let n = 10_000 in
  let runs = Array.init (2 * n) (fun _ -> Atomic.make 0) in
  let done_ = Atomic.make 0 in
  Pool.with_pool ~domains:4 (fun pool ->
      let s =
        Pool.session_start pool (fun ~worker:_ ~push i ->
            Atomic.incr runs.(i);
            if i < n then push (n + i);
            Atomic.incr done_)
      in
      for i = 0 to n - 1 do
        Pool.session_push s i
      done;
      while Atomic.get done_ < 2 * n do
        Domain.cpu_relax ()
      done;
      Pool.session_stop s);
  Alcotest.(check (list int))
    "every item ran exactly once"
    (List.init (2 * n) (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get runs))

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

(* ---- cooperative slices --------------------------------------------- *)

module Coop = Csp_parallel.Coop

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let rec finish pauses = function
  | Coop.Done v -> (v, pauses)
  | Coop.Paused k -> finish (pauses + 1) (Effect.Deep.continue k ())

let paused what = function
  | Coop.Paused k -> k
  | Coop.Done _ -> Alcotest.failf "%s: expected a pause" what

let test_coop_slices () =
  (* outside a slice a yield never pauses (it would raise Unhandled) *)
  spin 0.002;
  Coop.yield ();
  let job () =
    let acc = ref 0 in
    for i = 1 to 5 do
      spin 0.002;
      acc := !acc + i;
      Coop.yield ()
    done;
    !acc
  in
  let v, pauses = finish 0 (Coop.slice job) in
  Alcotest.(check int) "the job's own result" 15 v;
  Alcotest.(check bool) "paused at its yields, at most once each" true
    (pauses >= 1 && pauses <= 5);
  (* a job without yield points runs to completion *)
  match Coop.slice (fun () -> spin 0.002; 7) with
  | Coop.Done 7 -> ()
  | _ -> Alcotest.fail "a job with no yield point paused"

let test_coop_lock () =
  let m = Mutex.create () in
  let hold () =
    Coop.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) @@ fun () ->
    spin 0.002;
    Coop.yield ();
    "held"
  in
  let wait () =
    Coop.lock m;
    Mutex.unlock m;
    "locked"
  in
  let holder = paused "holder" (Coop.slice hold) in
  (* the waiter pauses on the held lock at once, quantum or not, and
     again on each resume while it is held *)
  let waiter = paused "waiter" (Coop.slice wait) in
  let waiter = paused "waiter again" (Effect.Deep.continue waiter ()) in
  Alcotest.(check (pair string int)) "holder finishes" ("held", 0)
    (finish 0 (Effect.Deep.continue holder ()));
  Alcotest.(check (pair string int)) "waiter gets the lock" ("locked", 0)
    (finish 0 (Effect.Deep.continue waiter ()));
  (* discontinuing a paused job runs its finalisers *)
  let job = paused "job" (Coop.slice hold) in
  (match Effect.Deep.discontinue job Coop.Cancelled with
  | exception Coop.Cancelled -> ()
  | _ -> Alcotest.fail "a discontinued job finished");
  Alcotest.(check bool) "lock released by the cancelled job" true
    (Mutex.try_lock m);
  Mutex.unlock m

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "single-domain fast path" `Quick
            test_parallel_map_single_domain;
          Alcotest.test_case "lowest-indexed exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "stats counters" `Quick test_pool_stats;
        ] );
      ( "coop",
        [
          Alcotest.test_case "slices pause at yields" `Quick test_coop_slices;
          Alcotest.test_case "lock waits and cancellation" `Quick
            test_coop_lock;
        ] );
      ( "session",
        [
          Alcotest.test_case "conservation under 4 domains" `Quick
            test_session_conservation_4_domains;
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
