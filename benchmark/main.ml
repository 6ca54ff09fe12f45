(* main.exe — end-to-end benchmark of the verifier.

     main.exe run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                  [--out FILE] [--chrome FILE]
       Run one workload (default: all four), check every answer, print
       every metric and, as the last line, one JSON object
       {correct, attempted, failed, metrics}.  --trace 1 prints the
       per-layer metrics instead (and --chrome keeps its spans as a
       Chrome trace).  --out appends the run, as one JSON line, to FILE
       for [compare].
     main.exe compare PARENT.jsonl CHANGE.jsonl
       Judge a change against its parent from alternated runs.
     main.exe smoke
       Every workload for about a second with all answer checks, and
       the shape of the results against BENCHMARK.json.

   Paths default to a run from the repository root after
   `dune build`; --cspc, --layers, --dir (the benchmark directory),
   --work (working files) and --benchmark (BENCHMARK.json) override them. *)

module B = Bench_common
module Cat = B.Catalogue
module Json = B.Json
module Stats = B.Stats
module W = Workloads

(* Which end-to-end metric each per-layer metric should move, on which
   workload: a layer change is judged by these. *)
let layer_targets =
  [
    ("parse", [ "parse.ms"; "parse.mb_per_s" ], "p50_ms@oneshot-cold");
    ("intern", [ "intern.nodes"; "intern.hit_ratio" ],
     "ops_per_s@fuzz-campaign, tail_ms@oneshot-cold");
    ("step", [ "step.interp_ms"; "step.trans_hit_ratio" ], "tail_ms@oneshot-cold");
    ("compile",
     [ "compile.ms"; "compile.states_per_s"; "compile.over_interp";
       "compile.cache_hit_ratio"; "compile.fallbacks" ],
     "tail_ms, ops_per_s@oneshot-cold; none@requery-warm");
    ("explore",
     [ "explore.ms"; "explore.states_per_s"; "explore.j2_speedup";
       "frontier.hit_ratio"; "pool.steals" ],
     "p50_ms@requery-warm, tail_ms@oneshot-cold");
    ("decide",
     [ "decide.refine_ms"; "decide.bisim_ms"; "decide.prove_search_ms";
       "decide.prove_check_ms"; "decide.family_ms"; "decide.sat_trace_evals";
       "decide.abstract_states" ],
     "tail_ms@requery-warm, ops_per_s@fuzz-campaign");
    ("render", [ "render.dot_ms"; "render.dot_mb_per_s"; "render.json_ms" ],
     "p50_ms@requery-warm");
    ("sim", [ "sim.steps_per_s" ], "ops_per_s@oneshot-cold");
    ("serve",
     [ "serve.busy_ms"; "serve.queue_ms"; "serve.transport_ms";
       "serve.gen_late_ms"; "serve.backlog_max"; "serve.utilisation";
       "serve.slo_pct"; "serve.batch_p50_ms" ],
     "tail_ms@serve-mixed");
    ("persist", [ "persist.save_ms"; "persist.load_ms"; "persist.restart_compiles" ],
     "setup_s@requery-warm");
    ("fuzz",
     [ "fuzz.gen_us_per_case"; "fuzz.oracle.closure-kernel.ms_per_case";
       "fuzz.oracle.op-vs-deno.ms_per_case"; "fuzz.oracle.refinement.ms_per_case";
       "fuzz.oracle.prover-sound.ms_per_case";
       "fuzz.oracle.choreo-refine.ms_per_case";
       "fuzz.oracle.abstract-sound.ms_per_case"; "pool.fuzz_j2_speedup" ],
     "ops_per_s@fuzz-campaign");
    ("cli", [ "cli.unattributed_ms" ], "p50_ms@oneshot-cold");
    ("trace", [ "trace.overhead_pct" ], "(tracing cost)");
  ]

(* ---- output ----------------------------------------------------------------- *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : W.metric) ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
       ms)

let summary_json ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0 && attempted > 0));
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ("metrics", metrics_json metrics);
    ]

let print_metric (m : W.metric) =
  Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit

let print_result ~traced (r : W.result) =
  Printf.printf "== %s%s\n" r.workload (if traced then " (traced)" else "");
  if traced then
    List.iter
      (fun (layer, names, target) ->
        Printf.printf " %s -> %s\n" layer target;
        List.iter
          (fun n ->
            match List.find_opt (fun (m : W.metric) -> m.name = n) r.metrics with
            | Some m -> print_metric m
            | None -> Printf.printf "  %-40s        missing\n" n)
          names)
      layer_targets
  else begin
    List.iter print_metric r.metrics;
    List.iter print_metric r.extra
  end;
  Printf.printf "  failed_pct %.2f %% (%d of %d attempted)\n"
    (100. *. float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  List.iter (Printf.printf "  FAILED %s\n") r.notes;
  flush stdout

let record_json ~seed ~seconds ~traced (r : W.result) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.int seed);
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool traced);
      ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) r.notes));
      ("metrics", metrics_json r.metrics);
      ("extra", metrics_json r.extra);
    ]

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* ---- command line --------------------------------------------------------- *)

let rec opt name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> opt name rest
  | [] -> None

let opt_default name default args = Option.value ~default (opt name args)

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let env_of args ~work ~setups =
  let dir = opt_default "--dir" "benchmark" args in
  {
    W.cspc = opt_default "--cspc" "_build/default/bin/cspc.exe" args;
    layers = opt_default "--layers" "_build/default/benchmark/layers/layers.exe" args;
    dir;
    models = Filename.concat dir "models";
    answers = Cat.load_answers (Filename.concat dir "expected/answers.json");
    work;
    setups;
  }

let cmd_run args =
  let workloads =
    match opt "--workload" args with
    | None -> W.all
    | Some w when List.mem w W.all -> [ w ]
    | Some w ->
      Printf.eprintf "unknown workload %s (have: %s)\n" w (String.concat ", " W.all);
      exit 2
  in
  let seed = int_of_string (opt_default "--seed" "1" args) in
  let seconds = float_of_string (opt_default "--seconds" "20" args) in
  let traced = opt_default "--trace" "0" args = "1" in
  let work = opt_default "--work" ".bench_run" args in
  fresh_dir work;
  (* One CPU for the harness, the server and every child: the host's
     speed then changes for all of them at once, which the reference
     kernel can measure.  The traced run keeps both CPUs for its
     two-domain probes. *)
  if not traced then ignore (B.Child.pin_last_cpu ());
  let env = env_of args ~work ~setups:3 in
  let results =
    List.map
      (fun workload ->
        let r =
          if traced then W.traced env ~workload ~seed ~seconds
          else W.run env ~workload ~seed ~seconds
        in
        print_result ~traced r;
        Option.iter
          (fun path ->
            append_line path (Json.to_string (record_json ~seed ~seconds ~traced r)))
          (opt "--out" args);
        r)
      workloads
  in
  let attempted = List.fold_left (fun a (r : W.result) -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a (r : W.result) -> a + r.failed) 0 results in
  let metrics =
    match results with
    | [ r ] -> r.metrics
    | rs ->
      List.concat_map
        (fun (r : W.result) ->
          List.map (fun (m : W.metric) -> { m with name = m.name ^ "@" ^ r.workload }) r.metrics)
        rs
  in
  if traced then
    Option.iter
      (fun dst -> Cat.write_file dst (Cat.read_file (Filename.concat work "trace.json")))
      (opt "--chrome" args);
  rm_rf work;
  print_endline (Json.to_string (summary_json ~attempted ~failed metrics))

(* ---- BENCHMARK.json ----------------------------------------------------------- *)

type declared = { dname : string; dunit : string; better : string; bound : float }

let declared benchmark key =
  match Json.parse (Cat.read_file benchmark) with
  | Error m -> failwith (benchmark ^ ": " ^ m)
  | Ok j -> (
    match Json.member key j with
    | Some (Json.Arr xs) ->
      List.map
        (fun x ->
          {
            dname = Option.value ~default:"" (Json.mem_str "name" x);
            dunit = Option.value ~default:"" (Json.mem_str "unit" x);
            better = Option.value ~default:"lower" (Json.mem_str "better" x);
            bound = Option.value ~default:0. (Json.mem_float "bound" x);
          })
        xs
    | _ -> failwith (benchmark ^ ": no " ^ key))

(* ---- compare ------------------------------------------------------------------ *)

let read_runs path =
  String.split_on_char '\n' (Cat.read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with
         | Ok j -> j
         | Error m -> failwith (Printf.sprintf "%s: %s" path m))

let metric_of run name =
  Option.bind (Json.member "metrics" run) (fun ms ->
      Option.bind (Json.member name ms) (Json.mem_float "value"))

(* Per (metric, workload): a
   gain needs >= 10 pairs, a 0.9 win fraction and a median gap wider
   than the parent's IQR; a regression is a worsening beyond the
   bound; a spread wider than the bound is unresolved unless every
   change run beats every parent run. *)
let cmd_compare args =
  let benchmark = opt_default "--benchmark" "BENCHMARK.json" args in
  let rec positional = function
    | k :: _ :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> positional rest
    | a :: rest -> a :: positional rest
    | [] -> []
  in
  let parent_file, change_file =
    match positional args with
    | p :: c :: _ -> (p, c)
    | _ ->
      prerr_endline "usage: main.exe compare PARENT.jsonl CHANGE.jsonl";
      exit 2
  in
  let parent = read_runs parent_file and change = read_runs change_file in
  let workload j = Option.value ~default:"" (Json.mem_str "workload" j) in
  let workloads =
    List.sort_uniq compare (List.map workload (parent @ change))
  in
  let regressions = ref 0 in
  Printf.printf "%-14s %-15s %5s %24s %24s %5s  %s\n" "metric" "workload" "pairs"
    "parent q1/med/q3" "change q1/med/q3" "wins" "verdict";
  List.iter
    (fun w ->
      let failed side =
        List.fold_left
          (fun n j ->
            if workload j = w then n + Option.value ~default:0 (Json.mem_int "failed" j) else n)
          0 side
      in
      if failed change > failed parent then begin
        incr regressions;
        Printf.printf "%-14s %-15s %5s %24d %24d %5s  REGRESSION (more failed requests)\n"
          "failed" w "" (failed parent) (failed change) ""
      end;
      let of_side side d =
        List.filter_map (fun j -> if workload j = w then metric_of j d.dname else None) side
      in
      List.iter
        (fun d ->
          let p = of_side parent d and c = of_side change d in
          let pairs = min (List.length p) (List.length c) in
          if pairs > 0 then begin
            let lower = d.better = "lower" in
            let better a b = if lower then a < b else a > b in
            let take n xs = List.filteri (fun i _ -> i < n) xs in
            let pp = take pairs p and cc = take pairs c in
            let wins =
              List.fold_left2 (fun n a b -> if better b a then n + 1 else n) 0 pp cc
            in
            let (p1, pm, p3), (c1, cm, c3) = (Stats.quartiles p, Stats.quartiles c) in
            let worse_by = (if lower then cm -. pm else pm -. cm) /. Float.abs pm in
            let spread =
              Float.max (Stats.rel_spread p) (Stats.rel_spread c)
            in
            let all_better =
              List.for_all (fun b -> List.for_all (fun a -> better b a) p) c
            in
            let verdict =
              if worse_by > d.bound then begin
                incr regressions;
                Printf.sprintf "REGRESSION (%.1f%% worse, bound %.0f%%)"
                  (100. *. worse_by) (100. *. d.bound)
              end
              else if spread > d.bound && not all_better then
                Printf.sprintf "unresolved (spread %.1f%% > bound)" (100. *. spread)
              else if
                pairs >= 10
                && float_of_int wins >= 0.9 *. float_of_int pairs
                && better cm pm
                && Float.abs (cm -. pm) > p3 -. p1
              then Printf.sprintf "GAIN (%.1f%%)" (-100. *. worse_by)
              else "no change"
            in
            Printf.printf "%-14s %-15s %5d %8.4g/%7.4g/%7.4g %8.4g/%7.4g/%7.4g %5d  %s%s\n"
              d.dname w pairs p1 pm p3 c1 cm c3 wins verdict
              (if pairs < 10 then " [fewer than 10 pairs]" else "")
          end)
        (declared benchmark "end_to_end"))
    workloads;
  if !regressions > 0 then exit 1

(* ---- smoke -------------------------------------------------------------------- *)

(* Tier-1 keeps the harness building and truthful: every workload
   briefly, every answer checked, every declared metric present. *)
let cmd_smoke args =
  let benchmark = opt_default "--benchmark" "BENCHMARK.json" args in
  let work = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cspc-bench-smoke-%d" (Unix.getpid ())) in
  fresh_dir work;
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let env = env_of args ~work ~setups:1 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let shape ~traced key (r : W.result) =
    let line = Json.to_string (summary_json ~attempted:r.attempted ~failed:r.failed r.metrics) in
    (match Json.parse line with
    | Ok (Json.Obj kvs) ->
      if List.map fst kvs <> [ "correct"; "attempted"; "failed"; "metrics" ] then
        problem "%s: result keys %s" r.workload (String.concat "," (List.map fst kvs))
    | _ -> problem "%s: result line is not a JSON object" r.workload);
    if r.failed > 0 || r.attempted = 0 then
      problem "%s%s: %d of %d failed: %s" r.workload
        (if traced then " (traced)" else "") r.failed r.attempted
        (String.concat "; " r.notes);
    let names = List.map (fun (m : W.metric) -> m.name) r.metrics in
    List.iter
      (fun d ->
        match List.find_opt (fun (m : W.metric) -> m.name = d.dname) r.metrics with
        | None -> problem "%s: metric %s missing" r.workload d.dname
        | Some m ->
          if m.unit <> d.dunit then
            problem "%s: %s in %s, declared %s" r.workload m.name m.unit d.dunit;
          if (not traced) && not (Float.is_finite m.value && m.value > 0.) then
            problem "%s: %s = %g" r.workload m.name m.value)
      (declared benchmark key);
    List.iter
      (fun n ->
        if not (List.exists (fun d -> d.dname = n) (declared benchmark key)) then
          problem "%s: metric %s is not declared" r.workload n)
      names
  in
  List.iter
    (fun workload ->
      let r = W.run env ~workload ~seed:1 ~seconds:1. in
      print_result ~traced:false r;
      shape ~traced:false "end_to_end" r)
    W.all;
  let r = W.traced env ~workload:"oneshot-cold" ~seed:1 ~seconds:1. in
  print_result ~traced:true r;
  shape ~traced:true "per_layer" r;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (Printf.printf "smoke: %s\n") (List.rev ps);
    exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> cmd_run args
  | "compare" :: args -> cmd_compare args
  | "smoke" :: args -> cmd_smoke args
  | _ ->
    prerr_endline "usage: main.exe (run | compare | smoke) [options]; see main.ml";
    exit 2
