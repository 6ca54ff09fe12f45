(* Parameterised-family verification: the assumption-formula engine,
   the Ignore/Project channel abstractions, the counter-abstract
   quotient and whole-family certification — each cross-checked
   against bounded concrete enumeration, the abstract-sound oracle and
   the cspc CLI. *)

open Csp
open Test_support
module Formula = Abstraction.Formula
module Chanabs = Abstraction.Chanabs
module Counter = Abstraction.Counter
module Family = Abstraction.Family
module Oracle = Csp_testkit.Oracle
module Scenario = Csp_testkit.Scenario
module Gen = Csp_testkit.Gen
module Parser = Csp_syntax.Parser

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let depth = 4
let engine defs = Engine.create ~depth ~nat_bound:2 defs

(* ---- formulae ---------------------------------------------------------- *)

let formula_gen : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let atom =
    map2
      (fun c k -> Formula.Atom ("n", c, k))
      (oneofl [ Formula.Le; Formula.Lt; Formula.Ge; Formula.Gt; Formula.Eq; Formula.Ne ])
      (int_range 0 6)
  in
  sized
  @@ fix (fun self s ->
         if s <= 0 then oneof [ atom; oneofl [ Formula.True; Formula.False ] ]
         else
           oneof
             [
               atom;
               map (fun f -> Formula.Not f) (self (s - 1));
               map2 (fun a b -> Formula.And (a, b)) (self (s / 2)) (self (s / 2));
               map2 (fun a b -> Formula.Or (a, b)) (self (s / 2)) (self (s / 2));
               map2 (fun a b -> Formula.Imp (a, b)) (self (s / 2)) (self (s / 2));
             ])

let rec nnf_shape = function
  | Formula.Not _ | Formula.Imp _ -> false
  | Formula.And (a, b) | Formula.Or (a, b) -> nnf_shape a && nnf_shape b
  | Formula.True | Formula.False | Formula.Atom _ -> true

let sample_points = List.init 10 (fun i -> i)

let prop_nnf_equivalent =
  qcheck_case ~count:300 "nnf is Not/Imp-free and eval-equivalent"
    formula_gen (fun f ->
      let g = Formula.nnf f in
      nnf_shape g
      && List.for_all
           (fun v -> Formula.eval [ ("n", v) ] f = Formula.eval [ ("n", v) ] g)
           sample_points)

let prop_roundtrip =
  qcheck_case ~count:300 "to_string/of_string round-trips up to eval"
    formula_gen (fun f ->
      match Formula.of_string (Formula.to_string f) with
      | Error m ->
        QCheck2.Test.fail_reportf "%s does not parse back: %s"
          (Formula.to_string f) m
      | Ok g ->
        List.for_all
          (fun v -> Formula.eval [ ("n", v) ] f = Formula.eval [ ("n", v) ] g)
          sample_points)

let prop_all_sat =
  qcheck_case ~count:300 "all_sat agrees with brute force" formula_gen
    (fun f ->
      let sat = Formula.all_sat ~lo:0 ~hi:8 f in
      let brute =
        List.filter_map
          (fun v ->
            if Formula.eval [ ("n", v) ] f then Some [ ("n", v) ] else None)
          (List.init 9 Fun.id)
      in
      (* formulae without parameters enumerate the empty assignment *)
      if Formula.vars f = [] then
        sat = (if Formula.eval [] f then [ [] ] else [])
      else sat = brute)

let prop_unbounded =
  qcheck_case ~count:300 "unbounded_above matches far evaluation"
    formula_gen (fun f ->
      let far = Formula.max_const f "n" in
      let probe v = Formula.eval [ ("n", v) ] f in
      Formula.unbounded_above ~lo:0 f "n" = probe (max 0 (far + 7)))

let test_formula_parse () =
  (match Formula.of_string "n<=32" with
  | Ok (Formula.Atom ("n", Formula.Le, 32)) -> ()
  | Ok f -> Alcotest.failf "n<=32 parsed as %s" (Formula.to_string f)
  | Error m -> Alcotest.fail m);
  (* reversed atoms normalise onto the parameter *)
  (match Formula.of_string "2 <= n && n <= 16" with
  | Ok (Formula.And (Formula.Atom ("n", Formula.Ge, 2), Formula.Atom ("n", Formula.Le, 16)))
    -> ()
  | Ok f -> Alcotest.failf "conjunction parsed as %s" (Formula.to_string f)
  | Error m -> Alcotest.fail m);
  check_bool "garbage rejected" true
    (match Formula.of_string "n <=" with Error _ -> true | Ok _ -> false);
  check_bool "two-parameter atoms rejected" true
    (match Formula.of_string "n <= k" with Error _ -> true | Ok _ -> false);
  check_int "max_const over both atoms" 16
    (match Formula.of_string "2 <= n && n <= 16" with
    | Ok f -> Formula.max_const f "n"
    | Error m -> Alcotest.fail m)

(* ---- channel abstractions ---------------------------------------------- *)

let parse_defs src =
  match Parser.parse_file src with
  | Ok f -> f.Parser.defs
  | Error m -> Alcotest.fail m

let traces_of defs p =
  Closure.to_traces (Step.traces (Engine.step_config (engine defs)) ~depth p)

let test_ignore_sound () =
  let defs = parse_defs "p = a!0 -> b!0 -> p\nmain = p\n" in
  let p = Process.ref_ "main" in
  match Chanabs.ignore_bases ~bases:[ "a" ] ~bound:2 defs p with
  | Error m -> Alcotest.fail m
  | Ok (defs', p') ->
    let cfg' = Engine.step_config (engine defs') in
    List.iter
      (fun tr ->
        let etr = Chanabs.erase_trace ~bases:[ "a" ] tr in
        check_bool
          (Printf.sprintf "erased %s admitted" (Trace.to_string tr))
          true
          (Step.accepts_trace cfg' p' etr);
        check_bool "no a-events survive erasure" true
          (List.for_all
             (fun e ->
               not (String.equal (Channel.base e.Event.chan) "a"))
             etr))
      (traces_of defs p)

let test_ignore_unguarded () =
  let defs = parse_defs "q = a!0 -> q\nmain = q\n" in
  check_bool "erasing the only guard is rejected" true
    (match
       Chanabs.ignore_bases ~bases:[ "a" ] ~bound:2 defs (Process.ref_ "main")
     with
    | Error _ -> true
    | Ok _ -> false)

let test_project_exact () =
  let defs = parse_defs "r = c!2 -> c!0 -> b!0 -> r\nmain = r\n" in
  let p = Process.ref_ "main" in
  let f = Chanabs.cap_value 1 in
  match
    Chanabs.project ~base:"c" ~f
      ~dom:[ Value.Int 0; Value.Int 1 ]
      ~bound:2 defs p
  with
  | Error m -> Alcotest.fail m
  | Ok { Chanabs.defs = defs'; proc = p'; exact } ->
    check_bool "constant outputs stay exact" true exact;
    let cfg' = Engine.step_config (engine defs') in
    List.iter
      (fun tr ->
        check_bool "mapped trace admitted" true
          (Step.accepts_trace cfg' p' (Chanabs.map_trace ~base:"c" ~f tr)))
      (traces_of defs p)

let test_project_widens () =
  (* an output whose value is a free binder cannot be evaluated
     statically: the projection widens it and drops exactness *)
  let defs = parse_defs "s = d?x:{0,1} -> c!x -> s\nmain = s\n" in
  match
    Chanabs.project ~base:"c"
      ~f:(Chanabs.cap_value 1)
      ~dom:[ Value.Int 0; Value.Int 1 ]
      ~bound:2 defs (Process.ref_ "main")
  with
  | Error m -> Alcotest.fail m
  | Ok { Chanabs.exact; _ } -> check_bool "widened projection" false exact

let test_cap_value () =
  check_bool "caps above" true (Chanabs.cap_value 1 (Value.Int 5) = Value.Int 1);
  check_bool "keeps below" true (Chanabs.cap_value 1 (Value.Int 0) = Value.Int 0);
  check_bool "keeps symbols" true (Chanabs.cap_value 1 Value.ack = Value.ack)

(* ---- counter abstraction ----------------------------------------------- *)

let test_ring_flat () =
  let states n =
    let g = (Counter.explore Family.token_ring.Family.fam ~n).Counter.graph in
    check_bool
      (Printf.sprintf "ring n=%d complete" n)
      true g.Dot.complete;
    g.Dot.n_states
  in
  let s4 = states 4 in
  check_int "flat at n=16" s4 (states 16);
  check_int "flat at n=32" s4 (states 32);
  check_bool "small instances are no larger" true (states 2 <= s4);
  (* the quotient pays for itself: strictly below the concrete ring *)
  List.iter
    (fun n ->
      let m = Models.Token_ring.make ~n in
      let lts =
        Lts.explore
          (Engine.step_config (engine m.Models.Token_ring.defs))
          m.Models.Token_ring.network
      in
      check_bool
        (Printf.sprintf "ring n=%d abstract below concrete" n)
        true
        (states n < Lts.num_states lts))
    [ 8; 16 ]

let test_ring_collapses_and_legend () =
  let r = Counter.explore Family.token_ring.Family.fam ~n:16 in
  check_bool "saturation collapses counted" true (r.Counter.omega_collapses > 0);
  check_bool "legend nonempty" true (r.Counter.legend <> []);
  let nums = List.map fst r.Counter.legend in
  check_int "legend numbers distinct" (List.length nums)
    (List.length (List.sort_uniq compare nums))

let graph_abstract model ~n ~max_states =
  match Csp_server.Jobs.graph_abstract ~model ~n ~max_states with
  | Ok o -> o.Csp_server.Jobs.output
  | Error m -> Alcotest.fail m

let test_ring_deterministic () =
  let go () = graph_abstract "token-ring" ~n:5 ~max_states:2000 in
  Alcotest.(check string) "same bytes across runs" (go ()) (go ())

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* The quotient's whole [graph --abstract counter] reply, pinned by its
   summary line and digest: BFS numbering, the legend's local-state
   numbers and every edge. *)
let test_quotient_pinned () =
  List.iter
    (fun (model, n, max_states, summary, md5) ->
      let out = graph_abstract model ~n ~max_states in
      let what = Printf.sprintf "%s n=%d max_states=%d" model n max_states in
      Alcotest.(check string) (what ^ " summary") summary (first_line out);
      Alcotest.(check string)
        (what ^ " digest") md5
        (Digest.to_hex (Digest.string out)))
    [
      ( "token-ring", 2, 200,
        "4 abstract states, 4 transitions; 0 omega collapse(s); 6 local \
         state(s) in legend",
        "5c4a2c9b50be83f36269573bfcb3cd72" );
      ( "token-ring", 4, 200,
        "6 abstract states, 10 transitions; 3 omega collapse(s); 6 local \
         state(s) in legend",
        "9a8d6ef82903c0991e93421ca55cdad1" );
      ( "token-ring", 8, 200,
        "6 abstract states, 10 transitions; 3 omega collapse(s); 6 local \
         state(s) in legend",
        "9a8d6ef82903c0991e93421ca55cdad1" );
      ( "leader", 2, 200,
        "3 abstract states, 3 transitions; 0 omega collapse(s); 5 local \
         state(s) in legend",
        "4d7fbbcf9906c3d3230c4310d4aef792" );
      ( "leader", 4, 200,
        "4 abstract states, 8 transitions; 3 omega collapse(s); 5 local \
         state(s) in legend",
        "288b2314ff4a455a1a84c25f75d4b622" );
      ( "leader", 8, 200,
        "4 abstract states, 8 transitions; 3 omega collapse(s); 5 local \
         state(s) in legend",
        "288b2314ff4a455a1a84c25f75d4b622" );
      ( "philosophers", 2, 200,
        "12 abstract states, 16 transitions; 0 omega collapse(s); 13 local \
         state(s) in legend",
        "00b3e40402efb6cb40f5d76ed8bb911f" );
      ( "philosophers", 4, 200,
        "200 abstract states, 398 transitions (truncated); 244 omega \
         collapse(s); 13 local state(s) in legend",
        "62e2cb625e4b0cf87db4691f4772f1c1" );
      ( "philosophers", 8, 200,
        "200 abstract states, 398 transitions (truncated); 244 omega \
         collapse(s); 13 local state(s) in legend",
        "62e2cb625e4b0cf87db4691f4772f1c1" );
      ( "workers", 2, 200,
        "4 abstract states, 8 transitions; 0 omega collapse(s); 4 local \
         state(s) in legend",
        "5ccbda6086128c8b0d06787e884d4700" );
      ( "workers", 4, 200,
        "20 abstract states, 72 transitions; 17 omega collapse(s); 4 local \
         state(s) in legend",
        "8c62f495fa68a25851e5a9a58d0b8b94" );
      ( "workers", 8, 200,
        "20 abstract states, 72 transitions; 17 omega collapse(s); 4 local \
         state(s) in legend",
        "8c62f495fa68a25851e5a9a58d0b8b94" );
      ( "philosophers", 4, 2000,
        "2000 abstract states, 6420 transitions (truncated); 3468 omega \
         collapse(s); 13 local state(s) in legend",
        "01d2789d6c8965df137a82d565031d5e" );
    ]

(* Every reply names its digraph with a valid DOT ID, after the
   preset's canonical name whatever spelling of it was asked for:
   bare when it is an identifier, quoted otherwise (token-ring's
   hyphen). *)
let test_graph_names_are_dot_ids () =
  let digraph_line out =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix:"digraph " l)
        (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.fail "no digraph line"
  in
  List.iter
    (fun (model, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%S opens its digraph" model)
        expected
        (digraph_line (graph_abstract model ~n:3 ~max_states:50)))
    [
      ("token-ring", "digraph \"token-ring_abs\" {");
      (" Ring ", "digraph \"token-ring_abs\" {");
      ("ring", "digraph \"token-ring_abs\" {");
      ("leader", "digraph leader_abs {");
      ("phils", "digraph philosophers_abs {");
      ("philosophers", "digraph philosophers_abs {");
      ("pool", "digraph workers_abs {");
      ("workers", "digraph workers_abs {");
    ]

let test_initial_signature_saturates () =
  let fam = Family.token_ring.Family.fam in
  let s n = Counter.initial_signature fam ~n in
  check_bool "saturated signatures equal" true (String.equal (s 4) (s 5));
  check_bool "below saturation differs" false (String.equal (s 2) (s 4))

let test_ring_accepts () =
  let accepts =
    Counter.accepts (Counter.explore Family.token_ring.Family.fam ~n:3).Counter.graph
  in
  check_bool "work first" true (accepts [ ev "work" 0 ]);
  check_bool "pass before any work refused" false (accepts [ ev "pass" 0 ])

let erased_concrete_included fam ~n defs network =
  let cfg = Engine.step_config (engine defs) in
  let traces = Closure.to_traces (Step.traces cfg ~depth network) in
  let accepts = Counter.accepts (Counter.explore fam.Family.fam ~n).Counter.graph in
  check_bool "some concrete traces" true (List.length traces > 1);
  List.iter
    (fun tr ->
      check_bool
        (Printf.sprintf "%s n=%d: erased %s accepted"
           fam.Family.fam.Counter.name n (Trace.to_string tr))
        true
        (accepts (Family.abstract_trace fam tr)))
    traces

let test_ring_sound () =
  List.iter
    (fun n ->
      let m = Models.Token_ring.make ~n in
      erased_concrete_included Family.token_ring ~n m.Models.Token_ring.defs
        m.Models.Token_ring.network)
    [ 2; 3; 4; 8 ]

let test_leader_sound () =
  List.iter
    (fun n ->
      let m = Models.Leader.make ~n in
      erased_concrete_included Family.leader ~n m.Models.Leader.defs
        m.Models.Leader.network)
    [ 2; 3 ]

let test_philosophers_sound () =
  let m = Paper.Philosophers.make ~left_handed_last:false ~n:2 () in
  erased_concrete_included Family.philosophers ~n:2
    m.Paper.Philosophers.defs m.Paper.Philosophers.network

let test_workers_superlinear_vs_flat () =
  (* concrete 2^n states; abstract saturates *)
  List.iter
    (fun n ->
      let m = Models.Workers.make ~n in
      let lts =
        Lts.explore
          (Engine.step_config (engine m.Models.Workers.defs))
          m.Models.Workers.network
      in
      check_int
        (Printf.sprintf "workers n=%d concrete states" n)
        (1 lsl n) (Lts.num_states lts))
    [ 1; 2; 3; 4; 6 ];
  let abs n =
    (Counter.explore Family.workers.Family.fam ~n).Counter.graph.Dot.n_states
  in
  check_int "abstract flat n=4 vs n=8" (abs 4) (abs 8);
  check_int "abstract flat n=4 vs n=16" (abs 4) (abs 16);
  check_bool "abstract beats concrete at n=8" true (abs 8 < 1 lsl 8)

let test_workers_sound () =
  List.iter
    (fun n ->
      let m = Models.Workers.make ~n in
      erased_concrete_included Family.workers ~n m.Models.Workers.defs
        m.Models.Workers.network)
    [ 2; 3; 4; 8 ]

(* ---- whole-family certification ----------------------------------------- *)

let formula s =
  match Formula.of_string s with Ok f -> f | Error m -> Alcotest.fail m

let outcome_of r =
  match r with Ok o -> o | Error m -> Alcotest.fail m

let test_family_ring_bounded () =
  let o =
    outcome_of
      (Family.check_family Family.token_ring ~formula:(formula "n<=32"))
  in
  check_bool "certified" true o.Family.certified;
  check_int "three classes" 3 (List.length o.Family.classes);
  check_bool "no unbounded tail" true
    (List.for_all (fun c -> not c.Family.unbounded_tail) o.Family.classes);
  check_bool "no class truncated" true
    (List.for_all (fun c -> not c.Family.truncated) o.Family.classes);
  (* the classes partition the satisfying instances 2..32 *)
  let all =
    List.sort compare
      (List.concat_map (fun c -> c.Family.instances) o.Family.classes)
  in
  check_bool "instances are exactly 2..32" true
    (all = List.init 31 (fun i -> i + 2));
  List.iter
    (fun c ->
      check_int "representative is the class minimum" c.Family.rep
        (List.fold_left min (List.hd c.Family.instances) c.Family.instances))
    o.Family.classes;
  let report = Format.asprintf "%a" Family.pp_outcome o in
  check_bool "report says CERTIFIED" true (contains report "CERTIFIED")

let test_family_ring_unbounded () =
  let o =
    outcome_of (Family.check_family Family.token_ring ~formula:(formula "n>=2"))
  in
  check_bool "certified for every n" true o.Family.certified;
  check_bool "one class owns the unbounded tail" true
    (List.exists (fun c -> c.Family.unbounded_tail) o.Family.classes)

let test_family_leader_and_workers () =
  let o =
    outcome_of
      (Family.check_family Family.leader ~formula:(formula "2<=n && n<=16"))
  in
  check_bool "leader certified" true o.Family.certified;
  let o =
    outcome_of (Family.check_family Family.workers ~formula:(formula "n>=1"))
  in
  check_bool "workers certified" true o.Family.certified;
  check_bool "workers tail class present" true
    (List.exists (fun c -> c.Family.unbounded_tail) o.Family.classes)

let test_family_errors () =
  let err f fam =
    match Family.check_family fam ~formula:(formula f) with
    | Error _ -> true
    | Ok _ -> false
  in
  check_bool "wrong parameter name" true (err "k<=3" Family.token_ring);
  check_bool "no satisfying instance" true (err "n<=1" Family.token_ring);
  check_bool "family without invariants" true
    (err "n<=4" Family.philosophers)

let test_family_refutation () =
  (* a deliberately false invariant: the ring works before it passes,
     so #work ≤ #pass fails on the very first abstract trace *)
  let bogus =
    {
      Family.token_ring with
      Family.invariants =
        [
          ( "work-behind-pass",
            Assertion.Cmp
              ( Assertion.Le,
                Term.Len (Term.chan "work"),
                Term.Len (Term.chan "pass") ) );
        ];
    }
  in
  let o = outcome_of (Family.check_family bogus ~formula:(formula "n<=8")) in
  check_bool "not certified" false o.Family.certified;
  check_bool "a class reports the witness" true
    (List.exists
       (fun c -> match c.Family.checked with Error _ -> true | Ok _ -> false)
       o.Family.classes);
  let report = Format.asprintf "%a" Family.pp_outcome o in
  check_bool "report says NOT CERTIFIED" true (contains report "NOT CERTIFIED")

(* A class whose abstract exploration stops at [max_states] has traces
   the check never saw: it must not certify the family. *)
let test_family_truncated_not_certified () =
  let o =
    outcome_of
      (Family.check_family ~depth:6 ~max_states:2 Family.token_ring
         ~formula:(formula "n <= 8"))
  in
  check_bool "not certified" false o.Family.certified;
  check_bool "every class truncated" true
    (List.for_all (fun c -> c.Family.truncated) o.Family.classes);
  let report = Format.asprintf "%a" Family.pp_outcome o in
  check_bool "report says NOT CERTIFIED" true (contains report "NOT CERTIFIED");
  check_bool "report names the bound" true
    (contains report "truncated at 2 abstract states")

(* Whole reports, pinned: class partition, trace counts at depth 6 and
   abstract state counts. *)
let test_family_reports_pinned () =
  let upto32 = String.concat "," (List.init 29 (fun i -> string_of_int (i + 4))) in
  let ring = "4 abstract states" and ring4 = "6 abstract states" in
  let report fam f =
    Format.asprintf "%a" Family.pp_outcome
      (outcome_of (Family.check_family fam ~formula:(formula f)))
  in
  List.iter
    (fun (fam, f, lines) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" fam.Family.fam.Counter.name f)
        (String.concat "\n" lines) (report fam f))
    [
      ( Family.token_ring, "n <= 32",
        [
          "formula n <= 32: 3 classes at depth 6";
          "  class n=2 (rep n=2): HOLDS on 7 abstract traces (" ^ ring ^ ")";
          "  class n=3 (rep n=3): HOLDS on 9 abstract traces (" ^ ring ^ ")";
          "  class n in {" ^ upto32 ^ "} (rep n=4): HOLDS on 9 abstract traces ("
          ^ ring4 ^ ")";
          "CERTIFIED for every n satisfying n <= 32";
        ] );
      ( Family.token_ring, "n >= 2",
        [
          "formula n >= 2: 3 classes at depth 6";
          "  class n=2 (rep n=2): HOLDS on 7 abstract traces (" ^ ring ^ ")";
          "  class n=3 (rep n=3): HOLDS on 9 abstract traces (" ^ ring ^ ")";
          "  class n in {4,5,...} (rep n=4): HOLDS on 9 abstract traces ("
          ^ ring4 ^ ")";
          "CERTIFIED for every n satisfying n >= 2";
        ] );
      ( Family.leader, "n <= 32",
        [
          "formula n <= 32: 3 classes at depth 6";
          "  class n=2 (rep n=2): HOLDS on 7 abstract traces (3 abstract states)";
          "  class n=3 (rep n=3): HOLDS on 18 abstract traces (3 abstract states)";
          "  class n in {" ^ upto32
          ^ "} (rep n=4): HOLDS on 18 abstract traces (4 abstract states)";
          "CERTIFIED for every n satisfying n <= 32";
        ] );
      ( Family.leader, "n >= 2",
        [
          "formula n >= 2: 3 classes at depth 6";
          "  class n=2 (rep n=2): HOLDS on 7 abstract traces (3 abstract states)";
          "  class n=3 (rep n=3): HOLDS on 18 abstract traces (3 abstract states)";
          "  class n in {4,5,...} (rep n=4): HOLDS on 18 abstract traces (4 \
           abstract states)";
          "CERTIFIED for every n satisfying n >= 2";
        ] );
      ( Family.workers, "n <= 32",
        [
          "formula n <= 32: 4 classes at depth 6";
          "  class n=1 (rep n=1): HOLDS on 7 abstract traces (2 abstract states)";
          "  class n=2 (rep n=2): HOLDS on 127 abstract traces (4 abstract \
           states)";
          "  class n=3 (rep n=3): HOLDS on 288 abstract traces (6 abstract \
           states)";
          "  class n in {" ^ upto32
          ^ "} (rep n=4): HOLDS on 419 abstract traces (20 abstract states)";
          "CERTIFIED for every n satisfying n <= 32";
        ] );
      ( Family.workers, "n >= 2",
        [
          "formula n >= 2: 3 classes at depth 6";
          "  class n=2 (rep n=2): HOLDS on 127 abstract traces (4 abstract \
           states)";
          "  class n=3 (rep n=3): HOLDS on 288 abstract traces (6 abstract \
           states)";
          "  class n in {4,5,...} (rep n=4): HOLDS on 419 abstract traces (20 \
           abstract states)";
          "CERTIFIED for every n satisfying n >= 2";
        ] );
    ]

(* The walk numbers the root at any bound, so a bound of 0 cuts every
   class at its initial state instead of failing. *)
let test_family_bound_zero () =
  let o =
    outcome_of
      (Family.check_family ~max_states:0 Family.workers
         ~formula:(formula "n <= 4"))
  in
  check_bool "not certified" false o.Family.certified;
  check_bool "every class truncated at its root" true
    (List.for_all
       (fun c -> c.Family.truncated && c.Family.abstract_states = 1)
       o.Family.classes);
  check_bool "report names the bound" true
    (contains
       (Format.asprintf "%a" Family.pp_outcome o)
       "truncated at 1 abstract states")

let test_family_counters_move () =
  let before = Obs.Counter.get (Obs.Counter.make "abstraction.family_checks") in
  ignore (Family.check_family Family.token_ring ~formula:(formula "n<=4"));
  let after = Obs.Counter.get (Obs.Counter.make "abstraction.family_checks") in
  check_bool "abstraction.family_checks moved" true (after > before)

(* ---- the abstract-sound oracle ------------------------------------------ *)

let test_oracle_registered () =
  check_bool "abstract-sound registered" true
    (match Oracle.find "abstract-sound" with Some _ -> true | None -> false);
  check_bool "abstract-sound in names" true
    (List.mem "abstract-sound" (Oracle.names ()))

let scenario_of_source src =
  let f =
    match Parser.parse_file src with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  Scenario.make ~defs:f.Parser.defs ~main:"main"

let test_oracle_passes_directed () =
  List.iter
    (fun src ->
      match Oracle.abstract_sound.Oracle.check (scenario_of_source src) with
      | Oracle.Pass -> ()
      | Oracle.Fail m -> Alcotest.fail m)
    [
      "p0 = a!0 -> p0\nmain = p0\n";
      "ts0 = work[0]!0 -> pass!0 -> pass?t:{0} -> ts0\n\
       ts1 = pass?t:{0} -> work[1]!1 -> pass!0 -> ts1\n\
       main = ts0 [ {pass, work[0]} || {pass, work[1]} ] ts1\n";
    ]

let prop_oracle_fuzz =
  qcheck_case ~count:60 "abstract-sound passes generated scenarios"
    Gen.scenario (fun s ->
      match Oracle.abstract_sound.Oracle.check s with
      | Oracle.Pass -> true
      | Oracle.Fail m -> QCheck2.Test.fail_reportf "%s" m)

(* ---- the CLI ------------------------------------------------------------ *)

let test_cli_prove_family () =
  let out, code = run_cli [ "prove"; "--family"; "n<=8"; "--model"; "ring" ] in
  check_int "exit 0" 0 code;
  check_bool "certified on stdout" true (contains out "CERTIFIED");
  let out, code = run_cli [ "prove"; "--family"; "n>=1"; "--model"; "workers" ] in
  check_int "workers exit 0" 0 code;
  check_bool "workers certified" true (contains out "CERTIFIED");
  let _, code = run_cli [ "prove"; "--family"; "n<=4"; "--model"; "nope" ] in
  check_bool "unknown family fails" true (code <> 0)

let test_cli_graph_abstract () =
  let out, code =
    run_cli [ "graph"; "--abstract"; "counter"; "--model"; "workers"; "--size"; "6" ]
  in
  check_int "exit 0" 0 code;
  check_bool "summary line" true (contains out "abstract states");
  check_bool "emits DOT" true (contains out "digraph")

(* A bound below 1 draws the root alone, as a concrete graph does. *)
let test_cli_graph_abstract_bound_zero () =
  let graph bound =
    run_cli
      [
        "graph"; "--abstract"; "counter"; "--model"; "workers"; "--size"; "4";
        "--max-states=" ^ bound;
      ]
  in
  let one, code = graph "1" in
  check_int "exit 0 at 1" 0 code;
  check_bool "root only" true
    (contains one "1 abstract states, 0 transitions (truncated)");
  List.iter
    (fun bound ->
      let out, code = graph bound in
      check_int ("exit 0 at " ^ bound) 0 code;
      Alcotest.(check string) ("same reply at " ^ bound) one out)
    [ "0"; "-5" ]

let () =
  Alcotest.run "abstraction"
    [
      ( "formula",
        [
          prop_nnf_equivalent;
          prop_roundtrip;
          prop_all_sat;
          prop_unbounded;
          Alcotest.test_case "parsing" `Quick test_formula_parse;
        ] );
      ( "chanabs",
        [
          Alcotest.test_case "ignore is sound" `Quick test_ignore_sound;
          Alcotest.test_case "ignore rejects unguarded" `Quick
            test_ignore_unguarded;
          Alcotest.test_case "project exact fragment" `Quick test_project_exact;
          Alcotest.test_case "project widens unevaluable outputs" `Quick
            test_project_widens;
          Alcotest.test_case "cap_value" `Quick test_cap_value;
        ] );
      ( "counter",
        [
          Alcotest.test_case "ring is flat in n" `Quick test_ring_flat;
          Alcotest.test_case "collapses and legend" `Quick
            test_ring_collapses_and_legend;
          Alcotest.test_case "deterministic exploration" `Quick
            test_ring_deterministic;
          Alcotest.test_case "graph replies pinned" `Quick
            test_quotient_pinned;
          Alcotest.test_case "graph names are DOT IDs" `Quick
            test_graph_names_are_dot_ids;
          Alcotest.test_case "initial signature saturates" `Quick
            test_initial_signature_saturates;
          Alcotest.test_case "accepts" `Quick test_ring_accepts;
          Alcotest.test_case "ring sound vs concrete" `Quick test_ring_sound;
          Alcotest.test_case "leader sound vs concrete" `Quick
            test_leader_sound;
          Alcotest.test_case "philosophers sound vs concrete" `Quick
            test_philosophers_sound;
          Alcotest.test_case "workers 2^n vs flat" `Quick
            test_workers_superlinear_vs_flat;
          Alcotest.test_case "workers sound vs concrete" `Quick
            test_workers_sound;
        ] );
      ( "family",
        [
          Alcotest.test_case "ring n<=32 in three classes" `Quick
            test_family_ring_bounded;
          Alcotest.test_case "ring unbounded n>=2" `Quick
            test_family_ring_unbounded;
          Alcotest.test_case "leader and workers" `Quick
            test_family_leader_and_workers;
          Alcotest.test_case "error cases" `Quick test_family_errors;
          Alcotest.test_case "false invariant refuted" `Quick
            test_family_refutation;
          Alcotest.test_case "truncated class not certified" `Quick
            test_family_truncated_not_certified;
          Alcotest.test_case "reports pinned" `Quick
            test_family_reports_pinned;
          Alcotest.test_case "bound 0 truncates every class" `Quick
            test_family_bound_zero;
          Alcotest.test_case "obs counters move" `Quick
            test_family_counters_move;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "registered" `Quick test_oracle_registered;
          Alcotest.test_case "directed scenarios pass" `Quick
            test_oracle_passes_directed;
          prop_oracle_fuzz;
        ] );
      ( "cli",
        [
          Alcotest.test_case "prove --family" `Quick test_cli_prove_family;
          Alcotest.test_case "graph --abstract counter" `Quick
            test_cli_graph_abstract;
          Alcotest.test_case "graph --abstract counter at bound 0" `Quick
            test_cli_graph_abstract_bound_zero;
        ] );
    ]
