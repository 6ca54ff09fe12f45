(* @stress: the protocol library at sizes the default suite never
   visits — token ring at n=10, two-phase commit at n=6, the sliding
   window refined deeper — explored through the compiled successor
   engine, plus whole-family verification at n=64.  The same sizes
   answered through `cspc serve` are benchmark/'s catalogue, checked
   against pinned answers by `benchmark/main.exe smoke`.  Excluded
   from the default runtest alias: run with `dune build @stress`. *)

open Csp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let explore_compiled defs p ~max_states =
  let eng = Engine.create ~nat_bound:3 defs in
  let compiled = Engine.compile ~budget:max_states eng p in
  Lts.explore ~max_states ~compiled (Engine.step_config eng) p

let test_token_ring_10 () =
  let m = Models.Token_ring.make ~n:10 in
  let lts = explore_compiled m.defs m.system ~max_states:100_000 in
  check_bool "complete" true lts.Lts.complete;
  check_int "deadlock-free" 0 (List.length (Lts.deadlock_states lts));
  (* one token over n stations: the state count is linear in n *)
  check_bool "state count scales with n" true (Lts.num_states lts >= 2 * 10)

let test_commit_6 () =
  let m = Models.Commit.make ~n:6 in
  let lts = explore_compiled m.defs m.system ~max_states:200_000 in
  check_bool "complete" true lts.Lts.complete;
  check_int "deadlock-free" 0 (List.length (Lts.deadlock_states lts));
  (* sequential polling keeps the coordinator's state linear in n *)
  check_bool "state count scales with n" true (Lts.num_states lts >= 5 * 6)

let test_sliding_window_deep () =
  let m = Models.Sliding_window.make ~w:2 in
  let eng = Engine.create ~depth:10 ~nat_bound:2 m.defs in
  match
    Equiv.trace_refines ~depth:10 (Engine.step_config eng) ~impl:m.system
      ~spec:m.spec
  with
  | Ok () -> ()
  | Error tr ->
    Alcotest.failf "window system diverges from its spec at %s"
      (Trace.to_string tr)

let test_leader_8 () =
  let m = Models.Leader.make ~n:8 in
  let lts = explore_compiled m.Models.Leader.defs m.Models.Leader.network
      ~max_states:200_000
  in
  check_bool "complete" true lts.Lts.complete;
  check_int "deadlock-free" 0 (List.length (Lts.deadlock_states lts))

(* ---- whole-family verification at stress sizes ------------------------- *)

module Family = Abstraction.Family
module Counter = Abstraction.Counter
module Formula = Abstraction.Formula

(* Certifying the ring for every n ≤ 64 costs the same handful of
   abstract explorations as n ≤ 8: all sizes above the counter cutoff
   share one assignment class. *)
let test_ring_family_64 () =
  let fam =
    match Family.find "ring" with
    | Some f -> f
    | None -> Alcotest.fail "no token-ring preset"
  in
  let formula =
    match Formula.of_string "n<=64" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  match Family.check_family ~depth:8 fam ~formula with
  | Error m -> Alcotest.fail m
  | Ok o ->
    check_bool "certified up to 64" true o.Family.certified;
    check_bool "few classes" true (List.length o.Family.classes <= 4);
    let covered =
      List.concat_map (fun (c : Family.class_outcome) -> c.Family.instances)
        o.Family.classes
    in
    check_int "instances enumerated" 63 (List.length covered)

(* The workers pool has 2^n concrete states; the abstract quotient at
   n = 64 is the same handful of states as at the cutoff. *)
let test_workers_abstract_64 () =
  let fam = Family.workers in
  let r64 = Counter.explore fam.Family.fam ~n:64 in
  let r8 = Counter.explore fam.Family.fam ~n:8 in
  check_int "flat beyond the cutoff" r8.Counter.graph.Dot.n_states
    r64.Counter.graph.Dot.n_states;
  check_bool "collapses counted" true (r64.Counter.omega_collapses > 0);
  Alcotest.(check string)
    "one assignment class"
    (Counter.initial_signature fam.Family.fam ~n:8)
    (Counter.initial_signature fam.Family.fam ~n:64)

let () =
  Alcotest.run "stress"
    [
      ( "models",
        [
          Alcotest.test_case "token ring n=10" `Slow test_token_ring_10;
          Alcotest.test_case "two-phase commit n=6" `Slow test_commit_6;
          Alcotest.test_case "sliding window deep" `Slow
            test_sliding_window_deep;
          Alcotest.test_case "leader n=8" `Slow test_leader_8;
        ] );
      ( "families",
        [
          Alcotest.test_case "ring certified to n=64" `Slow
            test_ring_family_64;
          Alcotest.test_case "workers abstract flat at n=64" `Slow
            test_workers_abstract_64;
        ] );
    ]
