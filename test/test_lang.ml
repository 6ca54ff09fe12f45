(* Tests for the process-language layer: value sets, expressions,
   channel expressions and sets, process AST operations, definitions. *)

open Csp
open Test_support

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Vset ----------------------------------------------------------- *)

let test_vset_mem () =
  check_bool "nat non-negative" true (Vset.mem Vset.Nat (Value.Int 0));
  check_bool "nat rejects negative" false (Vset.mem Vset.Nat (Value.Int (-1)));
  check_bool "nat rejects syms" false (Vset.mem Vset.Nat Value.ack);
  check_bool "range inclusive" true (Vset.mem (Vset.Range (2, 5)) (Value.Int 5));
  check_bool "range excludes" false (Vset.mem (Vset.Range (2, 5)) (Value.Int 6));
  check_bool "enum" true
    (Vset.mem (Vset.Enum [ Value.ack; Value.nack ]) Value.nack);
  check_bool "union" true
    (Vset.mem (Vset.Union (Vset.Range (0, 1), Vset.Enum [ Value.ack ])) Value.ack);
  check_bool "bools" true (Vset.mem Vset.Bools (Value.Bool false))

let test_vset_enumerate () =
  check Alcotest.(option (list (module Value))) "range"
    (Some [ Value.Int 0; Value.Int 1; Value.Int 2 ])
    (Vset.enumerate (Vset.Range (0, 2)));
  check Alcotest.(option (list (module Value))) "nat infinite" None
    (Vset.enumerate Vset.Nat);
  check_int "enum dedups" 2
    (List.length
       (Option.get (Vset.enumerate (Vset.Enum [ Value.Int 1; Value.Int 1; Value.Int 2 ]))));
  check_int "bounded nat" 5 (List.length (Vset.enumerate_bounded ~bound:5 Vset.Nat));
  check_int "bounded finite ignores bound" 3
    (List.length (Vset.enumerate_bounded ~bound:1 (Vset.Range (0, 2))));
  check_bool "finite" true (Vset.is_finite (Vset.Range (0, 9)));
  check_bool "nat union infinite" false
    (Vset.is_finite (Vset.Union (Vset.Nat, Vset.Bools)))

let test_vset_subset () =
  let signals = Vset.Enum [ Value.ack; Value.nack ] in
  check_bool "singleton in signals" true (Vset.subset (Vset.Enum [ Value.ack ]) signals);
  check_bool "signals not in singleton" false
    (Vset.subset signals (Vset.Enum [ Value.ack ]));
  check_bool "nat in nat" true (Vset.subset Vset.Nat Vset.Nat);
  check_bool "nat in a union with nat" true
    (Vset.subset Vset.Nat (Vset.Union (signals, Vset.Nat)));
  check_bool "nat not in a range" false (Vset.subset Vset.Nat (Vset.Range (0, 1000)));
  check_bool "huge range in nat" true (Vset.subset (Vset.Range (0, max_int - 1)) Vset.Nat);
  check_bool "negative range not in nat" false (Vset.subset (Vset.Range (-1, 3)) Vset.Nat);
  check_bool "empty range anywhere" true (Vset.subset (Vset.Range (5, 4)) signals);
  check_bool "range split across a union" true
    (Vset.subset (Vset.Range (0, 3))
       (Vset.Union (Vset.Range (0, 1), Vset.Enum [ Value.Int 2; Value.Int 3 ])));
  check_bool "signals not in nat" false (Vset.subset signals Vset.Nat)

(* ---- Expr ----------------------------------------------------------- *)

let rho = Valuation.of_list [ ("x", Value.Int 5); ("y", Value.Int 2) ]

let test_expr_eval () =
  let e = Expr.Add (Expr.Mul (Expr.Var "x", Expr.int 3), Expr.Var "y") in
  check value_testable "arith" (Value.Int 17) (Expr.eval rho e);
  check value_testable "neg" (Value.Int (-5)) (Expr.eval rho (Expr.Neg (Expr.Var "x")));
  check value_testable "div" (Value.Int 2) (Expr.eval rho (Expr.Div (Expr.Var "x", Expr.Var "y")));
  check value_testable "mod" (Value.Int 1) (Expr.eval rho (Expr.Mod (Expr.Var "x", Expr.Var "y")));
  check value_testable "idx 1-based" (Value.Int 20)
    (Expr.eval rho
       (Expr.Idx (Expr.Const (Value.Seq [ Value.Int 10; Value.Int 20 ]), Expr.int 2)));
  check value_testable "tuple" (Value.Tuple [ Value.Int 5; Value.Int 2 ])
    (Expr.eval rho (Expr.Tuple [ Expr.Var "x"; Expr.Var "y" ]))

let expect_eval_error e =
  match Expr.eval rho e with
  | exception Expr.Eval_error _ -> ()
  | v -> Alcotest.failf "expected failure, got %a" Value.pp v

let test_expr_errors () =
  expect_eval_error (Expr.Var "unbound");
  expect_eval_error (Expr.Div (Expr.int 1, Expr.int 0));
  expect_eval_error (Expr.Mod (Expr.int 1, Expr.int 0));
  expect_eval_error (Expr.Add (Expr.int 1, Expr.Const Value.ack));
  expect_eval_error (Expr.Idx (Expr.int 5, Expr.int 1));
  expect_eval_error
    (Expr.Idx (Expr.Const (Value.Seq [ Value.Int 1 ]), Expr.int 2))

let test_expr_subst_fv () =
  let e = Expr.Add (Expr.Var "x", Expr.Mul (Expr.Var "y", Expr.Var "x")) in
  check Alcotest.(list string) "free vars once each" [ "x"; "y" ]
    (Expr.free_vars e);
  let e' = Expr.subst_value "x" (Value.Int 1) e in
  check Alcotest.(list string) "after subst" [ "y" ] (Expr.free_vars e');
  check_bool "is_closed" true (Expr.is_closed (Expr.int 4));
  check_bool "equal structural" true (Expr.equal e e);
  check_bool "not equal" false (Expr.equal e e')

(* ---- Chan_expr / Chan_set ------------------------------------------ *)

let test_chan_expr () =
  let ce = Chan_expr.indexed "col" (Expr.Sub (Expr.Var "i", Expr.int 1)) in
  let rho = Valuation.of_list [ ("i", Value.Int 3) ] in
  check_bool "eval" true
    (Channel.equal (Chan_expr.eval rho ce) (Channel.indexed "col" 2));
  check Alcotest.(option (module Channel)) "eval_opt open" None
    (Chan_expr.eval_opt ce);
  check_bool "closed after subst" true
    (Chan_expr.is_closed (Chan_expr.subst_value "i" (Value.Int 3) ce));
  check Alcotest.(list string) "free vars" [ "i" ] (Chan_expr.free_vars ce);
  check_bool "of_channel round-trip" true
    (Channel.equal
       (Chan_expr.eval Valuation.empty (Chan_expr.of_channel (Channel.indexed "c" 7)))
       (Channel.indexed "c" 7))

let test_chan_set_mem () =
  let set =
    [
      Chan_set.Chan (Chan_expr.simple "wire");
      Chan_set.Family ("col", Vset.Range (0, 3));
      Chan_set.Base "row";
    ]
  in
  check_bool "simple member" true (Chan_set.mem set (Channel.simple "wire"));
  check_bool "family member" true (Chan_set.mem set (Channel.indexed "col" 2));
  check_bool "family excludes" false (Chan_set.mem set (Channel.indexed "col" 9));
  check_bool "base matches any index" true
    (Chan_set.mem set (Channel.indexed "row" 42));
  check_bool "not member" false (Chan_set.mem set (Channel.simple "zzz"));
  check Alcotest.(list string) "base names" [ "wire"; "col"; "row" ]
    (Chan_set.base_names set)

let test_chan_set_open_subscript () =
  (* An unevaluable subscript matches conservatively on the base name. *)
  let set = [ Chan_set.Chan (Chan_expr.indexed "col" (Expr.Var "i")) ] in
  check_bool "conservative match" true
    (Chan_set.mem set (Channel.indexed "col" 5));
  check_bool "other base still excluded" false
    (Chan_set.mem set (Channel.simple "row"));
  check_bool "rho decides exactly" false
    (Chan_set.mem
       ~rho:(Valuation.of_list [ ("i", Value.Int 1) ])
       set (Channel.indexed "col" 5))

(* ---- Process -------------------------------------------------------- *)

let copier_body =
  Process.recv "input" "x" Vset.Nat
    (Process.send "wire" (Expr.Var "x") (Process.ref_ "copier"))

let test_process_subst () =
  (* Input binds x: substitution must stop at the binder. *)
  let p =
    Process.send "out" (Expr.Var "x")
      (Process.recv "c" "x" Vset.Nat (Process.send "out" (Expr.Var "x") Process.Stop))
  in
  let p' = Process.subst_value "x" (Value.Int 9) p in
  match p' with
  | Process.Output (_, Expr.Const (Value.Int 9), Process.Input (_, _, _, Process.Output (_, Expr.Var "x", _))) ->
    ()
  | _ -> Alcotest.failf "wrong substitution result: %a" Process.pp p'

let test_process_free_vars () =
  check Alcotest.(list string) "copier body closed" [] (Process.free_vars copier_body);
  let open_p = Process.send "c" (Expr.Var "z") Process.Stop in
  check Alcotest.(list string) "z free" [ "z" ] (Process.free_vars open_p);
  let shadowed =
    Process.recv "c" "z" Vset.Nat (Process.send "d" (Expr.Var "z") Process.Stop)
  in
  check Alcotest.(list string) "bound z not free" [] (Process.free_vars shadowed);
  let in_subscript =
    Process.Output (Chan_expr.indexed "col" (Expr.Var "i"), Expr.int 0, Process.Stop)
  in
  check Alcotest.(list string) "subscript var free" [ "i" ]
    (Process.free_vars in_subscript)

let test_process_queries () =
  check Alcotest.(list string) "refs" [ "copier" ] (Process.refs copier_body);
  check Alcotest.(list string) "channel bases" [ "input"; "wire" ]
    (Process.channel_bases copier_body);
  check_int "size" 3 (Process.size copier_body);
  check_bool "choice smart constructor" true
    (Process.equal
       (Process.choice [ Process.Stop; Process.Stop; Process.Stop ])
       (Process.Choice (Process.Choice (Process.Stop, Process.Stop), Process.Stop)))

let prop_subst_removes_var =
  qcheck_case "substitution eliminates the variable" process_gen (fun p ->
      let p' = Process.subst_value "x" (Value.Int 0) p in
      not (List.mem "x" (Process.free_vars p')))

(* ---- Defs ----------------------------------------------------------- *)

let test_defs_unfold () =
  let defs =
    Defs.empty
    |> Defs.define "copier" copier_body
    |> Defs.define_array "q" "x" (Vset.Range (0, 3))
         (Process.send "wire" (Expr.Var "x") Process.Stop)
  in
  check_bool "plain unfold" true
    (Process.equal (Defs.unfold defs "copier" None) copier_body);
  check_bool "array unfold substitutes" true
    (Process.equal
       (Defs.unfold defs "q" (Some (Value.Int 2)))
       (Process.send "wire" (Expr.int 2) Process.Stop));
  (match Defs.unfold defs "nope" None with
  | exception Defs.Undefined "nope" -> ()
  | _ -> Alcotest.fail "expected Undefined");
  (match Defs.unfold defs "q" None with
  | exception Defs.Bad_argument _ -> ()
  | _ -> Alcotest.fail "array needs an argument");
  (match Defs.unfold defs "copier" (Some (Value.Int 1)) with
  | exception Defs.Bad_argument _ -> ()
  | _ -> Alcotest.fail "plain process takes no argument");
  match Defs.unfold defs "q" (Some (Value.Int 9)) with
  | exception Defs.Bad_argument _ -> ()
  | _ -> Alcotest.fail "out-of-set subscript rejected"

let test_defs_channel_bases () =
  let defs =
    Defs.empty
    |> Defs.define "a" (Process.send "c1" (Expr.int 0) (Process.ref_ "b"))
    |> Defs.define "b" (Process.send "c2" (Expr.int 0) (Process.ref_ "a"))
  in
  check Alcotest.(list string) "follows references" [ "c1"; "c2" ]
    (Defs.channel_bases defs (Process.ref_ "a"))

let test_well_guarded () =
  let ok =
    Defs.empty |> Defs.define "p" (Process.send "c" (Expr.int 0) (Process.ref_ "p"))
  in
  check_bool "guarded ok" true (Result.is_ok (Defs.well_guarded ok));
  let bad = Defs.empty |> Defs.define "p" (Process.ref_ "p") in
  check_bool "self loop rejected" true (Result.is_error (Defs.well_guarded bad));
  let mutual_bad =
    Defs.empty
    |> Defs.define "p" (Process.Choice (Process.Stop, Process.ref_ "r"))
    |> Defs.define "r" (Process.ref_ "p")
  in
  check_bool "mutual unguarded rejected" true
    (Result.is_error (Defs.well_guarded mutual_bad));
  let alias_ok =
    Defs.empty
    |> Defs.define "p" (Process.ref_ "r")
    |> Defs.define "r" (Process.send "c" (Expr.int 0) (Process.ref_ "p"))
  in
  check_bool "acyclic alias accepted" true
    (Result.is_ok (Defs.well_guarded alias_ok))

(* ---- Valuation ------------------------------------------------------ *)

let test_valuation () =
  let v = Valuation.of_list [ ("x", Value.Int 1) ] in
  check Alcotest.(option (module Value)) "find" (Some (Value.Int 1))
    (Valuation.find_opt "x" v);
  check Alcotest.(option (module Value)) "miss" None (Valuation.find_opt "y" v);
  check_bool "mem" true (Valuation.mem "x" v);
  check_bool "remove" false (Valuation.mem "x" (Valuation.remove "x" v));
  check_int "override keeps single binding" 1
    (List.length (Valuation.bindings (Valuation.add "x" (Value.Int 2) v)))

let () =
  Alcotest.run "lang"
    [
      ( "vset",
        [
          Alcotest.test_case "membership" `Quick test_vset_mem;
          Alcotest.test_case "enumeration" `Quick test_vset_enumerate;
          Alcotest.test_case "subset" `Quick test_vset_subset;
        ] );
      ( "expr",
        [
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
          Alcotest.test_case "errors" `Quick test_expr_errors;
          Alcotest.test_case "subst and free vars" `Quick test_expr_subst_fv;
        ] );
      ( "channels",
        [
          Alcotest.test_case "channel expressions" `Quick test_chan_expr;
          Alcotest.test_case "channel sets" `Quick test_chan_set_mem;
          Alcotest.test_case "open subscripts" `Quick test_chan_set_open_subscript;
        ] );
      ( "process",
        [
          Alcotest.test_case "substitution respects binding" `Quick test_process_subst;
          Alcotest.test_case "free variables" `Quick test_process_free_vars;
          Alcotest.test_case "queries" `Quick test_process_queries;
          prop_subst_removes_var;
        ] );
      ( "defs",
        [
          Alcotest.test_case "unfold" `Quick test_defs_unfold;
          Alcotest.test_case "channel bases across refs" `Quick test_defs_channel_bases;
          Alcotest.test_case "guardedness" `Quick test_well_guarded;
        ] );
      ("valuation", [ Alcotest.test_case "operations" `Quick test_valuation ]);
    ]
