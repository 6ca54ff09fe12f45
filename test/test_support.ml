(* Shared helpers and QCheck generators for the test suites. *)

open Csp

let ev name v : Event.t = Event.v name (Value.Int v)
let evs name v = Event.make (Channel.simple name) (Value.Sym v)

(* ---- Alcotest testables ------------------------------------------- *)

let trace_testable = Alcotest.testable Trace.pp Trace.equal
let closure_testable = Alcotest.testable Closure.pp Closure.equal
let process_testable = Alcotest.testable Process.pp Process.equal

let assertion_testable =
  Alcotest.testable Assertion.pp Assertion.equal

let value_testable = Alcotest.testable Value.pp Value.equal

(* ---- QCheck generators --------------------------------------------- *)

let value_gen : Value.t QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range 0 3);
        oneofl [ Value.ack; Value.nack ];
      ])

let channel_gen : Channel.t QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [
        map Channel.simple (oneofl [ "a"; "b"; "c" ]);
        map (fun i -> Channel.indexed "d" i) (int_range 0 2);
      ])

let event_gen : Event.t QCheck2.Gen.t =
  QCheck2.Gen.map2 Event.make channel_gen value_gen

let trace_gen : Trace.t QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 6) event_gen)

let closure_gen : Closure.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map Closure.of_traces (list_size (int_range 0 6) trace_gen))

let seq_gen : Value.t list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 6) value_gen)

(* Random closed recursion-free processes over a small alphabet.
   Output values stay within {0, 1} so that the default test sampler
   (nat_bound 2) covers every value a partner may need to accept —
   a requirement for exact operational/denotational agreement. *)
let process_gen : Process.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let chan = oneofl [ "a"; "b"; "c" ] in
  let vset =
    oneofl
      [ Vset.Range (0, 1); Vset.Enum [ Value.Int 0; Value.Int 1 ]; Vset.Nat ]
  in
  let var = oneofl [ "x"; "y" ] in
  sized_size (int_range 0 5)
  @@ fix (fun self n ->
         if n = 0 then
           oneof
             [
               return Process.Stop;
               map2 (fun c v -> Process.send c (Expr.int v) Process.Stop)
                 chan (int_range 0 1);
             ]
         else
           frequency
             [
               (1, return Process.Stop);
               ( 3,
                 map3
                   (fun c v p -> Process.send c (Expr.int v) p)
                   chan (int_range 0 1) (self (n - 1)) );
               ( 3,
                 map3
                   (fun c (x, m) p -> Process.recv c x m p)
                   chan (pair var vset) (self (n - 1)) );
               ( 2,
                 map2 (fun p q -> Process.Choice (p, q)) (self (n / 2))
                   (self (n / 2)) );
               ( 1,
                 map2
                   (fun p q ->
                     Process.Par
                       ( Chan_set.bases (Process.channel_bases p),
                         Chan_set.bases (Process.channel_bases q),
                         p,
                         q ))
                   (self (n / 2)) (self (n / 2)) );
               ( 1,
                 map2
                   (fun c p -> Process.Hide (Chan_set.of_names [ c ], p))
                   chan (self (n - 1)) );
             ])

(* Closed processes can mention free variables through generated inputs
   only; recv binds them, so the generated terms are closed by
   construction except when Choice duplicates a variable — the
   generators above only put variables under their own binder. *)

(* Random guarded, possibly mutually recursive definition environments
   over names p0..p2.  References appear only as continuations of a
   communication, so every definition is well guarded by construction. *)
let defs_gen : Defs.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let chan = oneofl [ "a"; "b"; "c" ] in
  let names = [ "p0"; "p1"; "p2" ] in
  let tail =
    oneof
      [ return Process.Stop; map (fun n -> Process.ref_ n) (oneofl names) ]
  in
  let rec comm n =
    (* a communication prefix: the only place a reference may follow *)
    frequency
      [
        ( 4,
          bind chan (fun c ->
              bind (int_range 0 1) (fun v ->
                  map (fun k -> Process.send c (Expr.int v) k) (body n))) );
        ( 3,
          bind chan (fun c ->
              map (fun k -> Process.recv c "x" (Vset.Range (0, 1)) k) (body n))
        );
      ]
  and body n =
    if n = 0 then tail
    else
      frequency
        [
          (4, comm (n - 1));
          (2, map2 (fun p q -> Process.Choice (p, q)) (comm (n / 2)) (comm (n / 2)));
        ]
  in
  let def name = map (fun b -> (name, b)) (comm 2) in
  map
    (fun bodies ->
      List.fold_left (fun defs (n, b) -> Defs.define n b defs) Defs.empty bodies)
    (flatten_l (List.map def names))

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ---- Misc helpers --------------------------------------------------- *)

let defs_copier =
  Defs.empty
  |> Defs.define "copier"
       (Process.recv "input" "x" Vset.Nat
          (Process.send "wire" (Expr.Var "x") (Process.ref_ "copier")))

let history_of_pairs pairs =
  List.fold_left
    (fun h (c, vs) ->
      History.set h (Channel.simple c) (List.map (fun n -> Value.Int n) vs))
    History.empty pairs

(* ---- the real binary ------------------------------------------------ *)

(* A file of the build tree, found from the running test binary
   ([_build/default/test/*.exe]) rather than the working directory, so
   a suite runs alike under [dune runtest] (from [_build/default/test])
   and under [dune exec test/<suite>.exe] (from the repository root). *)
let build_file rel =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) rel

let cli = build_file (Filename.concat "bin" "cspc.exe")

(* [cspc args]: its stdout and exit code (stderr dropped, or with
   [~stderr:true] interleaved with stdout). *)
let run_cli ?(stderr = false) args =
  let cmd =
    Filename.quote_command cli args ^ if stderr then " 2>&1" else " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec drain () =
    let n = input ic bytes 0 (Bytes.length bytes) in
    if n > 0 then begin
      Buffer.add_subbytes buf bytes 0 n;
      drain ()
    end
  in
  drain ();
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (Buffer.contents buf, code)
