(* The requests the benchmark sends, how each is spelled on the
   command line and on the serve protocol, and how an answer is
   reduced to the class that [expected/answers.json] pins. *)

type kind =
  | Graph of { process : string; nat : int; max_states : int }
  | Refine of { impl : string; spec : string; depth : int; weak : bool }
  | Prove
  | Check
  | Family of { family : string; depth : int }
  | Deadlock of { process : string; runs : int; steps : int; nat : int }
  | Parse
  | Fuzz of { seed : int; count : int }

type request = {
  label : string;  (** unique; keys the pinned answer *)
  model : string;  (** [models/<model>.csp]; [""] when no file is read *)
  kind : kind;
}

(* The model files, rendered from [Paper] and [Models] by
   [layers.exe regen]. *)
let models =
  [
    "copier-chain-8"; "copier-chain-7"; "workers-12"; "philosophers-5";
    "token-ring-10"; "commit-6"; "leader-8"; "window-2"; "protocol";
  ]

let graph ?(nat = 3) ?(max_states = 2000) model process =
  { label = "graph:" ^ model; model; kind = Graph { process; nat; max_states } }

let refine ?(weak = false) model depth =
  {
    label = Printf.sprintf "%s:%s" (if weak then "weak" else "refine") model;
    model;
    kind = Refine { impl = "system"; spec = "spec"; depth; weak };
  }

let family name =
  { label = "family:" ^ name; model = ""; kind = Family { family = name; depth = 6 } }

let parse model = { label = "parse:" ^ model; model; kind = Parse }
let prove model = { label = "prove:" ^ model; model; kind = Prove }
let fuzz ~seed ~count = { label = "fuzz"; model = ""; kind = Fuzz { seed; count } }

(* The cold catalogue: every user-facing question once, sized so one
   pass takes a few seconds of fresh processes. *)
let oneshot =
  [
    graph ~nat:2 ~max_states:10_000 "copier-chain-8" "chain";
    graph ~nat:3 ~max_states:20_000 "copier-chain-7" "chain";
    graph ~max_states:5000 "workers-12" "system";
    graph "philosophers-5" "system";
    graph "token-ring-10" "system";
    graph "commit-6" "system";
    graph "leader-8" "system";
    graph "window-2" "system";
    refine "token-ring-10" 8;
    refine "commit-6" 6;
    refine "leader-8" 10;
    refine "window-2" 10;
    refine ~weak:true "window-2" 5;
    prove "protocol";
    { label = "check:protocol"; model = "protocol"; kind = Check };
    family "token-ring";
    family "leader";
    family "workers";
    {
      label = "deadlock:philosophers-5";
      model = "philosophers-5";
      kind = Deadlock { process = "system"; runs = 50; steps = 2000; nat = 3 };
    };
    parse "protocol";
    parse "copier-chain-8";
  ]

(* The fuzz campaigns a run may start: each seed of the pool at
   [fuzz_count] cases, pinned (by [layers.exe regen]) to find no
   counterexample. *)
let fuzz_pool = List.init 15 (fun i -> i + 1)
let fuzz_count = 100

(* Every label a workload may send, for [expected/answers.json]. *)
let pinned = oneshot @ [ fuzz ~seed:1 ~count:40 ]

let model_path ~dir model = Filename.concat dir (model ^ ".csp")

(* Fisher-Yates on a copy: the order a pass sends its requests in. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let cli_args ~models r =
  let file = model_path ~dir:models r.model in
  let i = string_of_int in
  match r.kind with
  | Graph g ->
    [ "graph"; file; "-p"; g.process; "--nat-bound"; i g.nat;
      "--max-states"; i g.max_states ]
  | Refine f ->
    [ "refine"; file; "-p"; f.impl; "-s"; f.spec; "-d"; i f.depth ]
    @ if f.weak then [ "--weak" ] else []
  | Prove -> [ "prove"; file ]
  | Check -> [ "check"; file ]
  | Family f ->
    [ "prove"; "--family"; "n <= 32"; "--model"; f.family; "-d"; i f.depth ]
  | Deadlock d ->
    [ "deadlock"; file; "-p"; d.process; "--runs"; i d.runs; "--steps";
      i d.steps; "--nat-bound"; i d.nat ]
  | Parse -> [ "parse"; file ]
  | Fuzz f ->
    [ "fuzz"; "--seed"; i f.seed; "--count"; i f.count ]

(* The serve request for [r] on [source], or [None] for the kinds the
   protocol does not carry. *)
let serve_fields ~source r =
  let open Json in
  let src = ("source", Str source) in
  match r.kind with
  | Graph g ->
    Some
      [ ("op", Str "graph"); src; ("process", Str g.process);
        ("nat", int g.nat); ("max_states", int g.max_states) ]
  | Refine f ->
    Some
      [ ("op", Str "refine"); src; ("impl", Str f.impl); ("spec", Str f.spec);
        ("depth", int f.depth); ("weak", Bool f.weak) ]
  | Prove -> Some [ ("op", Str "prove"); src ]
  | Parse -> Some [ ("op", Str "parse"); src ]
  | Fuzz f -> Some [ ("op", Str "fuzz"); ("seed", int f.seed); ("count", int f.count) ]
  | Check | Family _ | Deadlock _ -> None

(* ---- answers ------------------------------------------------------------ *)

let lines s = String.split_on_char '\n' s |> List.filter (( <> ) "")

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let count p xs = List.length (List.filter p xs)

(* What the answer says, stripped of what may legitimately vary (timings,
   and for verdicts the wording around the verdict).  Graph and parse
   answers are pinned to the byte through an MD5. *)
let classify r output =
  let ls = lines output in
  match r.kind with
  | Graph _ -> (
    match String.index_opt output '\n' with
    | None -> "no status line"
    | Some k ->
      let dot = String.sub output (k + 1) (String.length output - k - 1) in
      Printf.sprintf "%s | dot %s" (String.sub output 0 k)
        (Digest.to_hex (Digest.string dot)))
  | Refine { weak = false; _ } -> (
    match ls with
    | l :: _ when contains ~sub:" trace-refines " l -> "refines"
    | l :: _ when starts_with ~prefix:"NOT a refinement" l -> "refuted"
    | _ -> "unrecognised")
  | Refine { weak = true; _ } -> (
    match ls with
    | [ l ] when contains ~sub:"weakly bisimilar" l ->
      if contains ~sub:": true" l then "bisimilar" else "not bisimilar"
    | _ -> "unrecognised")
  | Prove ->
    Printf.sprintf "proved %d, failed %d"
      (count (starts_with ~prefix:"PROVED ") ls)
      (count (starts_with ~prefix:"FAILED ") ls)
  | Check ->
    Printf.sprintf "holds %d, fails %d"
      (count (contains ~sub:": holds on all") ls)
      (count (contains ~sub:": fails on") ls)
  | Family _ -> (
    match List.rev ls with
    | l :: _ when starts_with ~prefix:"CERTIFIED" l -> "certified"
    | _ -> "not certified")
  | Deadlock _ -> (
    match List.rev ls with
    | l :: _ -> (
      match String.index_opt l ' ' with
      | Some k when contains ~sub:"runs deadlocked" l ->
        "deadlocked " ^ String.sub l 0 k
      | _ -> "unrecognised")
    | [] -> "unrecognised")
  | Parse -> "md5 " ^ Digest.to_hex (Digest.string output)
  | Fuzz { count = n; _ } -> (
    (* "<cases> case(s) in <t>s (completed); oracle runs: a=<k>, ...;
       <c> counterexample(s)" *)
    match List.rev ls with
    | [] -> "unrecognised"
    | l :: _ -> (
      match String.split_on_char ';' l with
      | [ head; runs; tail ] ->
        let cases = Scanf.sscanf_opt head "%d case(s)" Fun.id in
        let oracles =
          match String.split_on_char ':' runs with
          | [ _; kvs ] ->
            String.split_on_char ',' kvs
            |> List.filter_map (fun kv ->
                   Scanf.sscanf_opt (String.trim kv) "%[^=]=%d" (fun o k ->
                       if k = n then Some o else None)
                   |> Option.join)
          | _ -> []
        in
        let cex = Scanf.sscanf_opt (String.trim tail) "%d counterexample" Fun.id in
        Printf.sprintf "cases %s, %d oracles ran every case (%s), %s counterexamples"
          (match cases with Some c when c = n -> "all" | _ -> "short")
          (List.length oracles)
          (String.concat " " (List.sort compare oracles))
          (match cex with Some c -> string_of_int c | None -> "?")
      | _ -> "unrecognised"))

type answer = { exit_code : int; answer : string }

let answer_json a =
  Json.Obj [ ("exit", Json.int a.exit_code); ("answer", Json.Str a.answer) ]

let answers_of_json j =
  match j with
  | Json.Obj kvs ->
    List.filter_map
      (fun (label, v) ->
        match (Json.mem_int "exit" v, Json.mem_str "answer" v) with
        | Some exit_code, Some answer -> Some (label, { exit_code; answer })
        | _ -> None)
      kvs
  | _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () -> In_channel.input_all ic

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let load_answers path =
  match Json.parse (read_file path) with
  | Ok j -> answers_of_json j
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)

(* [None] when the answer matches the pinned one, else why not. *)
let check answers r ~exit_code ~output =
  match List.assoc_opt r.label answers with
  | None -> Some ("no pinned answer for " ^ r.label)
  | Some want ->
    let got = classify r output in
    if exit_code = want.exit_code && got = want.answer then None
    else
      Some
        (Printf.sprintf "%s: got exit %d %S, want exit %d %S" r.label exit_code
           got want.exit_code want.answer)
