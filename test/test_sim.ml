(* The simulator: schedulers, the runner, monitors, statistics. *)

open Csp
open Test_support
module Runner = Csp_sim.Runner

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(defs = Defs.empty) () = Step.config ~sampler:(Sampler.nat_bound 2) defs
let out c v k = Process.send c (Expr.int v) k

(* ---- schedulers ------------------------------------------------------ *)

let cands n =
  Array.init n (fun i -> (ev "a" i, Step.Visible))

let test_scheduler_first () =
  Alcotest.(check (option int)) "first picks 0" (Some 0)
    (Scheduler.first.Scheduler.pick ~step:0 (cands 3));
  Alcotest.(check (option int)) "empty yields none" None
    (Scheduler.first.Scheduler.pick ~step:0 (cands 0))

let test_scheduler_rotating () =
  let picks =
    List.map
      (fun s -> Option.get (Scheduler.rotating.Scheduler.pick ~step:s (cands 3)))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0 ] picks

let test_scheduler_uniform_deterministic_per_seed () =
  let run seed =
    let s = Scheduler.uniform ~seed in
    List.init 20 (fun i -> Option.get (s.Scheduler.pick ~step:i (cands 5)))
  in
  Alcotest.(check (list int)) "same seed, same choices" (run 42) (run 42);
  check_bool "different seeds differ somewhere" true (run 1 <> run 2)

let test_scheduler_weighted_bias () =
  let weight (e : Event.t) =
    match e.Event.value with Value.Int 0 -> 0.95 | _ -> 0.05
  in
  let s = Scheduler.weighted ~seed:5 ~weight in
  let hits = ref 0 in
  for i = 1 to 1000 do
    if Option.get (s.Scheduler.pick ~step:i (cands 2)) = 0 then incr hits
  done;
  check_bool "bias respected" true (!hits > 850)

let test_scheduler_weighted_zero_total () =
  let s = Scheduler.weighted ~seed:5 ~weight:(fun _ -> 0.0) in
  check_bool "falls back to uniform" true
    (s.Scheduler.pick ~step:0 (cands 3) <> None)

(* ---- runner ----------------------------------------------------------- *)

let test_run_deadlock () =
  let r = Runner.run (cfg ()) (out "a" 1 Process.Stop) in
  check_bool "stops on deadlock" true (r.Runner.stop = Runner.Deadlock);
  check_int "one step" 1 r.Runner.stats.Stats.steps;
  check_bool "trace recorded" true (Trace.equal r.Runner.trace [ ev "a" 1 ])

let test_run_max_steps () =
  let defs = Defs.empty |> Defs.define "tick" (out "a" 0 (Process.ref_ "tick")) in
  let r = Runner.run ~max_steps:25 (cfg ~defs ()) (Process.ref_ "tick") in
  check_bool "hits the limit" true (r.Runner.stop = Runner.Max_steps);
  check_int "exactly 25" 25 r.Runner.stats.Stats.steps

let test_run_determinism () =
  let defs = defs_copier in
  let run () =
    (Runner.run ~scheduler:(Scheduler.uniform ~seed:9) ~max_steps:40
       (cfg ~defs ()) (Process.ref_ "copier")).Runner.trace
  in
  check trace_testable "reproducible" (run ()) (run ())

(* the runner's ~seed threads to the default scheduler: a run is
   reproducible from its arguments alone, and the seed actually steers
   the exploration *)
let test_run_seed_threads () =
  let defs = defs_copier in
  let run seed =
    (Runner.run ~seed ~max_steps:40 (cfg ~defs ()) (Process.ref_ "copier"))
      .Runner.trace
  in
  check trace_testable "same seed, same run" (run 7) (run 7);
  check trace_testable "default seed is 1"
    (Runner.run ~max_steps:40 (cfg ~defs ()) (Process.ref_ "copier"))
      .Runner.trace (run 1);
  check_bool "some seed pair diverges" true
    (List.exists (fun s -> not (Trace.equal (run 1) (run s))) [ 2; 3; 4; 5 ])

(* Only monitors read the channel history, so a run without them
   builds none; it must still walk exactly as a run whose one monitor
   always holds. *)
let test_run_without_monitors () =
  let module P = Paper.Protocol in
  let same name cfg p =
    let run monitors =
      Runner.run ~scheduler:(Scheduler.uniform ~seed:3) ~monitors
        ~max_steps:300 cfg p
    in
    let bare = run []
    and watched = run [ Runner.monitor "true" Assertion.True ] in
    check trace_testable (name ^ ": trace") watched.Runner.trace
      bare.Runner.trace;
    check_bool (name ^ ": events") true
      (List.equal
         (fun (e1, v1) (e2, v2) -> Event.equal e1 e2 && Step.vis_equal v1 v2)
         watched.Runner.events bare.Runner.events);
    check_bool (name ^ ": stop reason") true
      (watched.Runner.stop = bare.Runner.stop);
    check_bool (name ^ ": stats") true
      (watched.Runner.stats = bare.Runner.stats);
    check_bool (name ^ ": final state") true
      (Process.equal watched.Runner.final bare.Runner.final);
    check_int (name ^ ": no violations") 0 (List.length bare.Runner.violations)
  in
  same "protocol"
    (Step.config ~sampler:(Sampler.nat_bound 2) P.defs)
    P.protocol;
  same "deadlock" (cfg ()) (out "a" 1 (out "b" 2 Process.Stop))

let test_sampler_shuffled () =
  let base = Sampler.nat_bound 6 in
  let sample seed = Sampler.sample (Sampler.shuffled ~seed base) Vset.Nat in
  let sorted l = List.sort compare l in
  Alcotest.(check (list string))
    "same seed, same order"
    (List.map Value.to_string (sample 3))
    (List.map Value.to_string (sample 3));
  Alcotest.(check (list string))
    "a permutation of the base sample"
    (List.map Value.to_string (sorted (Sampler.sample base Vset.Nat)))
    (List.map Value.to_string (sorted (sample 3)));
  check_bool "some seed pair permutes differently" true
    (List.exists (fun s -> sample 0 <> sample s) [ 1; 2; 3; 4; 5 ])

let test_run_hidden_not_in_trace () =
  let p = Process.Hide (Chan_set.of_names [ "a" ], out "a" 1 (out "b" 2 Process.Stop)) in
  let r = Runner.run (cfg ()) p in
  check trace_testable "only b visible" [ ev "b" 2 ] r.Runner.trace;
  check_int "both counted in events" 2 (List.length r.Runner.events);
  check_int "hidden count" 1 r.Runner.stats.Stats.hidden

let test_monitor_violation () =
  (* a!1 -> a!2 -> ... violates "a <= <1>" at the second step *)
  let spec =
    Assertion.Prefix (Term.chan "a", Term.Const (Value.Seq [ Value.Int 1 ]))
  in
  let p = out "a" 1 (out "a" 2 Process.Stop) in
  let r = Runner.run ~monitors:[ Runner.monitor "bound" spec ] (cfg ()) p in
  check_int "one violation" 1 (List.length r.Runner.violations);
  let v = List.hd r.Runner.violations in
  check_int "detected after second step" 2 v.Runner.at_step;
  check_bool "history captured" true
    (List.length (History.get v.Runner.history (Channel.simple "a")) = 2)

let test_monitor_checked_before_first_step () =
  (* an assertion false of the empty history is reported at step 0 *)
  let spec = Assertion.Cmp (Assertion.Gt, Term.Len (Term.chan "a"), Term.int 0) in
  let r =
    Runner.run ~monitors:[ Runner.monitor "nonempty" spec ] (cfg ()) Process.Stop
  in
  check_int "violated immediately" 0 (List.hd r.Runner.violations).Runner.at_step

let test_monitor_eval_error_is_violation () =
  (* assertions that cannot be evaluated are flagged, not ignored *)
  let spec = Assertion.Eq (Term.Var "unbound", Term.int 0) in
  let r =
    Runner.run ~monitors:[ Runner.monitor "broken" spec ] (cfg ()) Process.Stop
  in
  check_bool "flagged" true (r.Runner.violations <> [])

let test_monitor_sees_hidden_channels () =
  (* the protocol's wire is concealed, yet f(wire) <= input is monitored *)
  let module P = Paper.Protocol in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) P.defs in
  let r =
    Runner.run
      ~scheduler:(Scheduler.uniform ~seed:3)
      ~monitors:[ Runner.monitor "sender-inv" P.sender_spec ]
      ~max_steps:300 cfg P.protocol
  in
  check_int "no violations" 0 (List.length r.Runner.violations);
  check_bool "wire really used" true
    (Stats.count r.Runner.stats (Channel.simple "wire") > 0)

let test_stats_consistency () =
  let defs = defs_copier in
  let r =
    Runner.run ~scheduler:(Scheduler.uniform ~seed:5) ~max_steps:60 (cfg ~defs ())
      (Process.ref_ "copier")
  in
  let s = r.Runner.stats in
  check_int "steps = visible + hidden" s.Stats.steps (s.Stats.visible + s.Stats.hidden);
  check_int "per-channel sums to steps" s.Stats.steps
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Stats.per_channel);
  (* the copier alternates: wire never leads input *)
  check_bool "causality" true
    (Stats.count s (Channel.simple "wire") <= Stats.count s (Channel.simple "input"))

let prop_trace_is_visible_projection =
  qcheck_case ~count:60 "trace = visible projection of events" process_gen
    (fun p ->
      let r = Runner.run ~max_steps:20 (cfg ()) p in
      Trace.equal r.Runner.trace
        (List.filter_map
           (fun (e, vis) -> if vis = Step.Visible then Some e else None)
           r.Runner.events))

let prop_run_trace_is_legal =
  qcheck_case ~count:60 "every simulated trace is accepted by the semantics"
    process_gen (fun p ->
      let r = Runner.run ~max_steps:6 (cfg ()) p in
      (* compare against derivative acceptance on the visible trace *)
      r.Runner.trace = [] || Step.accepts_trace (cfg ()) p r.Runner.trace)

let () =
  Alcotest.run "sim"
    [
      ( "schedulers",
        [
          Alcotest.test_case "first" `Quick test_scheduler_first;
          Alcotest.test_case "rotating" `Quick test_scheduler_rotating;
          Alcotest.test_case "uniform determinism" `Quick
            test_scheduler_uniform_deterministic_per_seed;
          Alcotest.test_case "weighted bias" `Quick test_scheduler_weighted_bias;
          Alcotest.test_case "weighted degenerate" `Quick
            test_scheduler_weighted_zero_total;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deadlock stop" `Quick test_run_deadlock;
          Alcotest.test_case "step limit" `Quick test_run_max_steps;
          Alcotest.test_case "determinism per seed" `Quick test_run_determinism;
          Alcotest.test_case "~seed threads to scheduler" `Quick
            test_run_seed_threads;
          Alcotest.test_case "shuffled sampler" `Quick test_sampler_shuffled;
          Alcotest.test_case "hidden events" `Quick test_run_hidden_not_in_trace;
          Alcotest.test_case "no monitors, same walk" `Quick
            test_run_without_monitors;
          prop_trace_is_visible_projection;
          prop_run_trace_is_legal;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "violation detection" `Quick test_monitor_violation;
          Alcotest.test_case "checked before first step" `Quick
            test_monitor_checked_before_first_step;
          Alcotest.test_case "evaluation errors flagged" `Quick
            test_monitor_eval_error_is_violation;
          Alcotest.test_case "hidden channels observable" `Quick
            test_monitor_sees_hidden_channels;
        ] );
      ( "stats",
        [ Alcotest.test_case "consistency" `Quick test_stats_consistency ] );
    ]
