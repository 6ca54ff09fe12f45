(* Trace refinement: the set search of [Equiv.trace_refines] against
   the enumeration it replaced, which stays here as the reference —
   every implementation trace up to the depth, shortest first, each
   replayed against the specification from its start. *)

open Csp
open Test_support
module Gen = Csp_testkit.Gen
module Oracle = Csp_testkit.Oracle
module Scenario = Csp_testkit.Scenario
module Obs = Csp_obs.Obs

let trace_refines_by_enumeration ?(depth = 5) cfg ~impl ~spec =
  let traces =
    List.sort
      (fun a b -> compare (List.length a) (List.length b))
      (Closure.to_traces (Step.traces cfg ~depth impl))
  in
  match List.find_opt (fun s -> not (Step.accepts_trace cfg spec s)) traces with
  | None -> Ok ()
  | Some s -> Error s

let out c v k = Process.send c (Expr.int v) k
let cfg ?(defs = Defs.empty) () =
  Step.config ~sampler:(Sampler.nat_bound 2) defs

let verdict_testable = Alcotest.(result unit trace_testable)

(* ---- pinned cases ------------------------------------------------------ *)

(* Two shortest violations, <b.0, a.0> and <a.0, c.0>: the one least in
   [Event.compare] order wins, wherever its branch sits in the source. *)
let test_witness_order () =
  let impl =
    Process.Choice
      (out "b" 0 (out "a" 0 Process.Stop), out "a" 0 (out "c" 0 Process.Stop))
  in
  let spec =
    Process.Choice (out "a" 0 Process.Stop, out "b" 0 Process.Stop)
  in
  let cfg = cfg () and expected = Error [ ev "a" 0; ev "c" 0 ] in
  Alcotest.check verdict_testable "least shortest witness" expected
    (Equiv.trace_refines cfg ~impl ~spec);
  Alcotest.check verdict_testable "the enumeration agrees" expected
    (trace_refines_by_enumeration cfg ~impl ~spec)

let test_refuted_at_depth_one () =
  let impl = out "a" 0 (out "b" 0 Process.Stop) in
  let spec = out "b" 0 Process.Stop in
  Alcotest.check verdict_testable "first event refused"
    (Error [ ev "a" 0 ])
    (Equiv.trace_refines ~depth:1 (cfg ()) ~impl ~spec)

let test_depth_zero () =
  (* only the empty trace, which every process has *)
  Alcotest.check verdict_testable "nothing to refute" (Ok ())
    (Equiv.trace_refines ~depth:0 (cfg ()) ~impl:(out "a" 0 Process.Stop)
       ~spec:Process.Stop)

(* An input spec accepts every declared value, not only sampled ones:
   the implementation outputs 7, outside the nat-2 sample. *)
let test_spec_inputs_unsampled () =
  let impl = out "a" 7 Process.Stop in
  let spec = Process.recv "a" "x" Vset.Nat Process.Stop in
  Alcotest.check verdict_testable "a.7 accepted" (Ok ())
    (Equiv.trace_refines (cfg ()) ~impl ~spec)

(* A recursive implementation whose two branches meet again: the
   search visits closure nodes, not traces, and a spec set reached by
   either branch is the same set, so each level queues one pair. *)
let test_pairs_counted () =
  let both k = Process.Choice (out "a" 0 k, out "b" 0 k) in
  let defs =
    Defs.empty
    |> Defs.define "impl" (both (out "c" 0 (Process.ref_ "impl")))
    |> Defs.define "spec"
         (Process.Choice
            (both (out "c" 0 (Process.ref_ "spec")), out "d" 0 Process.Stop))
  in
  let pairs = Obs.Counter.make "refine.pairs" in
  let before = Obs.Counter.get pairs in
  Alcotest.check verdict_testable "((a|b) -> c)* refines its spec" (Ok ())
    (Equiv.trace_refines ~depth:12 (cfg ~defs ()) ~impl:(Process.ref_ "impl")
       ~spec:(Process.ref_ "spec"));
  Alcotest.(check int) "one pair per level" 13 (Obs.Counter.get pairs - before)

(* ---- the enumeration as reference -------------------------------------- *)

(* [main] and every definition (arrays at both ends of their domain), as
   the oracles take them. *)
let subjects (s : Scenario.t) =
  Scenario.process s
  :: List.concat_map
       (fun n ->
         if String.equal n s.Scenario.main then []
         else
           match Defs.lookup s.Scenario.defs n with
           | Some { Defs.param = Some _; _ } ->
             [ Process.Ref (n, Some (Expr.int 0));
               Process.Ref (n, Some (Expr.int 1)) ]
           | _ -> [ Process.ref_ n ])
       (Defs.names s.Scenario.defs)

(* The verdict with its witness, or the constructor of what it raised. *)
let outcome f =
  match f () with
  | Ok () -> "ok"
  | Error s -> "refuted " ^ Trace.to_string s
  | exception e -> "raised " ^ Printexc.exn_slot_name e

let prop_agrees_with_enumeration =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"set search = enumeration (every subject pair, depths 0-6)"
       ~print:(fun s -> Scenario.to_csp s)
       Gen.scenario
       (fun s ->
         let cfg = Oracle.step_config s.Scenario.defs in
         let subjects = subjects s in
         List.iter
           (fun impl ->
             List.iter
               (fun spec ->
                 for depth = 0 to 6 do
                   let search =
                     outcome (fun () ->
                         Equiv.trace_refines ~depth cfg ~impl ~spec)
                   and reference =
                     outcome (fun () ->
                         trace_refines_by_enumeration ~depth cfg ~impl ~spec)
                   in
                   if not (String.equal search reference) then
                     QCheck2.Test.fail_reportf
                       "impl %s, spec %s, depth %d: search %s, enumeration %s"
                       (Process.to_string impl) (Process.to_string spec) depth
                       search reference
                 done)
               subjects)
           subjects;
         true))

let () =
  Alcotest.run "refine"
    [
      ( "pinned",
        [
          Alcotest.test_case "witness order" `Quick test_witness_order;
          Alcotest.test_case "refuted at depth 1" `Quick
            test_refuted_at_depth_one;
          Alcotest.test_case "depth 0" `Quick test_depth_zero;
          Alcotest.test_case "spec inputs unsampled" `Quick
            test_spec_inputs_unsampled;
          Alcotest.test_case "pairs counted" `Quick test_pairs_counted;
        ] );
      ("reference", [ prop_agrees_with_enumeration ]);
    ]
