(* The four workloads and the traced run.  Every request a workload
   sends is checked against expected/answers.json; a wrong answer, an
   unexpected exit status or a refused request counts as failed.

   Timing statistics.  On a shared host the same request can take 1.7x
   longer for tens of seconds at a time, which moves the median of a
   20-second run by half.  So every workload repeats each measurement
   many times within a run and keeps the best repetition of each, and
   scales it by the host-speed reference (reference.ml).  The gated
   latency percentiles and throughputs are computed over those best
   values; the plain statistics over every sample are printed beside
   them as [raw_*]. *)

module B = Bench_common
module Cat = B.Catalogue
module Json = B.Json
module Stats = B.Stats
module Child = B.Child

let now = Child.now

type env = {
  cspc : string;
  layers : string;
  dir : string;  (** the benchmark directory: models/, expected/ *)
  models : string;  (** [dir]/models *)
  answers : (string * Cat.answer) list;  (** [dir]/expected/answers.json *)
  work : string;  (** working directory for sockets, snapshots, logs *)
  setups : int;  (** set-up repetitions; [setup_s] is their median *)
}

type metric = { name : string; unit : string; value : float }

type result = {
  workload : string;
  attempted : int;
  failed : int;
  notes : string list;  (** the first few failure messages *)
  metrics : metric list;  (** what BENCHMARK.json gates *)
  extra : metric list;  (** printed and saved, not gated *)
}

(* ---- checking answers ------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail_one t msg =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if List.length t.notes < 8 then t.notes <- msg :: t.notes

let check env t r ~exit_code ~output =
  match Cat.check env.answers r ~exit_code ~output with
  | None ->
    t.attempted <- t.attempted + 1;
    true
  | Some msg ->
    let args = match r.Cat.kind with Cat.Fuzz f -> Printf.sprintf " (seed %d)" f.seed | _ -> "" in
    fail_one t
      (Printf.sprintf "%s%s; output begins %S" msg args
         (String.sub output 0 (min 600 (String.length output))));
    false

let check_reply env t r reply =
  match Json.mem_bool "ok" reply with
  | Some true ->
    check env t r
      ~exit_code:(Option.value ~default:(-1) (Json.mem_int "exit" reply))
      ~output:(Option.value ~default:"" (Json.mem_str "output" reply))
  | _ ->
    fail_one t
      (Printf.sprintf "%s: refused: %s" r.Cat.label
         (Option.value ~default:"?" (Json.mem_str "error" reply)));
    false

(* ---- shared pieces ---------------------------------------------------------- *)

(* A deck holds each label as many times as its weight; dealing it
   shuffled, round after round, keeps the mix exact. *)
let deck weighted =
  Array.of_list
    (List.concat_map (fun (label, w) -> List.init w (fun _ -> label)) weighted)

let request label = List.find (fun r -> r.Cat.label = label) Cat.pinned
let source env model = Cat.read_file (Cat.model_path ~dir:env.models model)

let serve_request ?(salt = "") env r =
  let source = if r.Cat.model = "" then "" else salt ^ source env r.model in
  match Cat.serve_fields ~source r with
  | Some fields -> Json.Obj fields
  | None -> invalid_arg ("not a serve request: " ^ r.label)

let spawn env r =
  Child.run ~stderr:(Filename.concat env.work "child.err") env.cspc
    (Cat.cli_args ~models:env.models r)

(* Run [f] [env.setups] times ([cheap] set-ups three times as often)
   and report the median wall time in seconds, each scaled by the
   host-speed reference sampled just before it; [discard] tears down
   every result but the last, untimed. *)
let timed_setups ?(cheap = false) env ~discard f =
  let reps = if cheap then 3 * env.setups else env.setups in
  let rec go k times =
    let local = Reference.create () in
    for _ = 1 to 3 do
      Reference.sample local
    done;
    let t0 = now () in
    let v = f () in
    let times = ((now () -. t0) *. Reference.factor local) :: times in
    if k >= reps then (Stats.median times, v)
    else begin
      discard v;
      go (k + 1) times
    end
  in
  go 1 []

let finish ~workload (t : tally) metrics extra =
  { workload; attempted = t.attempted; failed = t.failed; notes = List.rev t.notes; metrics; extra }

let metric name unit value = { name; unit; value }
let mb_of_kb kb = float_of_int kb /. 1024.

(* The five gated metrics.  [best] pairs each distinct measurement's
   best latency (ms) with the number of samples it stands for in the
   mix; [ops] is work per second.  Durations are scaled to the
   reference host speed (see reference.ml) by [factor]. *)
let gated ~factor ~setup_s ~tail ~best ~ops ~rss_kb =
  [
    metric "setup_s" "s" setup_s;
    metric "p50_ms" "ms" (factor *. Stats.weighted_percentile 50. best);
    metric "tail_ms" "ms" (factor *. Stats.weighted_percentile tail best);
    metric "ops_per_s" "1/s" ops;
    metric "rss_mb" "MB" (mb_of_kb rss_kb);
  ]

let raw ~speed ~tail ~ops lats =
  [
    metric "host_factor" "ratio" (Reference.factor speed);
    metric "raw_p50_ms" "ms" (Stats.percentile 50. lats);
    metric (Printf.sprintf "raw_p%g_ms" tail) "ms" (Stats.percentile tail lats);
    metric "raw_ops_per_s" "1/s" ops;
    metric "samples" "count" (float_of_int (List.length lats));
  ]

(* Closed loops: repeat a weighted mix for [seconds], keyed by label,
   sampling the host-speed reference between requests. *)
let closed_loop ~speed st ~seconds weights send =
  let cards = deck weights in
  let samples = ref [] in
  let t0 = now () in
  let last = ref neg_infinity in
  while now () -. t0 < seconds do
    Array.iter
      (fun label ->
        samples := (label, send label) :: !samples;
        if now () -. !last >= 0.1 then begin
          Reference.sample speed;
          last := now ()
        end)
      (Cat.shuffle st cards)
  done;
  (!samples, now () -. t0)

let closed_metrics ~speed ~setup_s ~tail ~rss_kb ~work_per weights (samples, elapsed) =
  let factor = Reference.factor speed in
  let best =
    List.map (fun (k, v) -> (v, List.assoc k weights)) (Stats.best_by_key samples)
  in
  let work = List.fold_left (fun a (_, w) -> a +. (work_per *. float_of_int w)) 0. best in
  let busy_s =
    List.fold_left (fun a (v, w) -> a +. (factor *. v *. float_of_int w /. 1000.)) 0. best
  in
  let lats = List.map snd samples in
  ( gated ~factor ~setup_s ~tail ~best ~ops:(work /. busy_s) ~rss_kb,
    raw ~speed ~tail ~ops:(work_per *. float_of_int (List.length lats) /. elapsed) lats )

(* ---- oneshot-cold ----------------------------------------------------------- *)

(* One fresh process per request, closed loop, shuffled complete passes
   over the catalogue: what a CLI or CI user pays on a first query.  A
   pass asks each quick question three times for each heavy one. *)
let oneshot_heavy =
  [
    "graph:copier-chain-8"; "graph:copier-chain-7"; "graph:workers-12";
    "graph:philosophers-5"; "prove:protocol"; "deadlock:philosophers-5";
  ]

let oneshot_cold env ~speed st ~seconds =
  let t = tally () in
  let setup_s, () =
    timed_setups ~cheap:true env ~discard:ignore (fun () ->
        List.iter
          (fun m ->
            let res =
              Child.run ~stderr:(Filename.concat env.work "child.err") env.cspc
                [ "parse"; Cat.model_path ~dir:env.models m ]
            in
            if res.exit_code <> 0 then
              failwith (Printf.sprintf "cspc parse %s: exit %d" m res.exit_code))
          Cat.models)
  in
  let rss = ref 0 in
  let weights =
    List.map
      (fun r -> (r.Cat.label, if List.mem r.Cat.label oneshot_heavy then 1 else 3))
      Cat.oneshot
  in
  let run =
    closed_loop ~speed st ~seconds weights (fun label ->
        let r = request label in
        let res = spawn env r in
        ignore (check env t r ~exit_code:res.exit_code ~output:res.stdout);
        rss := max !rss res.maxrss_kb;
        res.wall_ms)
  in
  let metrics, extra =
    closed_metrics ~speed ~setup_s ~tail:95. ~rss_kb:!rss ~work_per:1. weights run
  in
  finish ~workload:"oneshot-cold" t metrics extra

(* ---- requery-warm ----------------------------------------------------------- *)

(* Re-queries on a warm server, weighted so the median is a warm graph
   of a few hundred states (explore, render, framing) and the tail is
   the proof, which the warm cache barely shortens. *)
let requery_weights =
  [
    ("parse:protocol", 2); ("parse:copier-chain-8", 2);
    ("graph:token-ring-10", 2); ("graph:commit-6", 2); ("graph:leader-8", 2);
    ("graph:window-2", 2); ("graph:philosophers-5", 12);
    ("refine:token-ring-10", 2); ("refine:commit-6", 2); ("refine:leader-8", 2);
    ("weak:window-2", 2); ("refine:window-2", 6);
    ("graph:copier-chain-8", 4); ("graph:copier-chain-7", 2);
    ("graph:workers-12", 2); ("prove:protocol", 1);
  ]

let requery_set = List.map (fun (l, _) -> request l) requery_weights

(* Cold server, one pass over the sources, snapshot, restart --warm:
   the timed run then finds every automaton and proof in place. *)
let warm_server env t =
  let snapshot = Filename.concat env.work "warm.snap" in
  let cold = Service.start ~cspc:env.cspc ~work:env.work () in
  (match Service.connect cold.socket with
  | None -> failwith "cannot connect to cspc serve"
  | Some c ->
    List.iter
      (fun r ->
        let reply, _ = Service.request c (serve_request env r) in
        ignore (check_reply env t r reply))
      requery_set;
    let reply, _ =
      Service.request c
        (Json.Obj [ ("op", Json.Str "save"); ("path", Json.Str snapshot) ])
    in
    if Json.mem_bool "ok" reply <> Some true then
      failwith ("save refused: " ^ Json.to_string reply);
    Service.close c);
  Service.stop cold;
  Service.start ~cspc:env.cspc ~work:env.work ~warm:snapshot ()

let requery_warm env ~speed st ~seconds =
  let t = tally () in
  let setup_s, server =
    timed_setups env ~discard:Service.stop (fun () -> warm_server env t)
  in
  Fun.protect ~finally:(fun () -> Service.stop server) @@ fun () ->
  let c =
    match Service.connect server.socket with
    | Some c -> c
    | None -> failwith "cannot connect to the warm server"
  in
  let payloads = List.map (fun r -> (r.Cat.label, (r, serve_request env r))) requery_set in
  let run =
    closed_loop ~speed st ~seconds requery_weights (fun label ->
        let r, payload = List.assoc label payloads in
        let reply, ms = Service.request c payload in
        ignore (check_reply env t r reply);
        ms)
  in
  let rss_kb = Service.vm_hwm_kb server in
  Service.close c;
  let metrics, extra =
    closed_metrics ~speed ~setup_s ~tail:99. ~rss_kb ~work_per:1. requery_weights run
  in
  finish ~workload:"requery-warm" t metrics extra

(* ---- serve-mixed -------------------------------------------------------------- *)

(* Frozen at calibration: at these rates the server was busy 40% of the
   time (serve.utilisation) at the commit that introduced the
   benchmark, and below 60% when the host ran slow. *)
let interactive_rate = 50.
let batch_rate = 1.25
let slo_ms = 50.

(* Most interactive requests are a warm graph of a few hundred states,
   so the median sits on real work rather than on the socket round
   trip, even with 40% of arrivals stalled behind batch jobs. *)
let interactive_weights =
  [
    ("parse:protocol", 1); ("parse:copier-chain-8", 1); ("graph:token-ring-10", 1);
    ("graph:commit-6", 1); ("graph:window-2", 1); ("refine:commit-6", 1);
    ("refine:leader-8", 1); ("weak:window-2", 1); ("graph:philosophers-5", 12);
  ]

let interactive_set = List.map (fun (l, _) -> request l) interactive_weights

(* The proof, the longest stall, comes twice per cycle so that stall is
   measured twice as often. *)
let batch_labels =
  [
    "prove:protocol"; "graph:copier-chain-8"; "prove:protocol";
    "graph:philosophers-5"; "fuzz";
  ]

type flight = {
  r : Cat.request;
  interactive : bool;
  due : float;  (** seconds after the start *)
  payload : string;  (** the request frame, rendered before the run *)
  mutable reply : string;
  mutable sent : float;
  mutable recv : float;
  mutable elapsed_ms : float;  (** the server's own [elapsed_ms] *)
  mutable ok : bool;
  mutable idle_at_send : bool;  (** nothing else was in flight *)
}

let latency_ms f = (f.recv -. f.due) *. 1000.

(* One arrival cycle — one batch job of each kind, periodic from a
   seeded phase, and one interactive arrival at a seeded uniform time
   in each 1/rate slot (stratified, so every seed puts the same number
   of arrivals behind each batch job) — repeated whole.  Every
   repetition sends the same request at the same offset; only the salt
   that keeps each batch graph cold changes. *)
let mixed_schedule env st ~cycles =
  let cycle = float_of_int (List.length batch_labels) /. batch_rate in
  let n_i = int_of_float (interactive_rate *. cycle) in
  let inter =
    let cards = deck interactive_weights in
    let labels =
      Cat.shuffle st (Array.concat (List.init (1 + (n_i / Array.length cards)) (fun _ -> cards)))
    in
    List.init n_i (fun i ->
        ((float_of_int i +. Random.State.float st 1.) /. interactive_rate, request labels.(i)))
  in
  let phase = Random.State.float st (1. /. batch_rate) in
  let batch =
    batch_labels
    |> List.mapi (fun i l -> (phase +. (float_of_int i /. batch_rate), request l))
  in
  let salt () = Printf.sprintf "-- salt %d\n" (Random.State.bits st) in
  List.init cycles (fun c ->
      let base = float_of_int c *. cycle in
      let flight interactive (offset, r) =
        let salt = match r.Cat.kind with Cat.Graph _ when not interactive -> salt () | _ -> "" in
        {
          r; interactive; due = base +. offset;
          payload = Json.to_string (serve_request ~salt env r) ^ "\n";
          reply = "";
          sent = nan; recv = nan; elapsed_ms = nan; ok = false; idle_at_send = false;
        }
      in
      List.map (flight true) inter @ List.map (flight false) batch)
  |> List.concat
  |> List.sort (fun a b -> Float.compare a.due b.due)
  |> Array.of_list

(* Open loop over two connections: every request goes out when due,
   whatever is still in flight; replies are matched in order per
   connection.  The client shares the server's CPU, so it only sends
   pre-rendered frames and stores replies while the clock runs; they
   are parsed and checked afterwards.  Returns the peak number in
   flight. *)
let open_loop env ~speed t ~socket flights =
  let conn () =
    match Service.connect socket with
    | Some c -> c
    | None -> failwith "cannot connect to cspc serve"
  in
  let ci = conn () and cb = conn () in
  let conns = [ (ci, Queue.create ()); (cb, Queue.create ()) ] in
  let n = Array.length flights in
  let next = ref 0 and in_flight = ref 0 and backlog = ref 0 in
  let last_sample = ref neg_infinity in
  let t0 = now () in
  let give_up = (if n = 0 then 0. else flights.(n - 1).due) +. 120. in
  while !next < n || !in_flight > 0 do
    let clock = now () -. t0 in
    if clock > give_up then failwith "serve-mixed: replies stopped arriving";
    while !next < n && flights.(!next).due <= clock do
      let f = flights.(!next) in
      let c = if f.interactive then ci else cb in
      f.idle_at_send <- !in_flight = 0;
      f.sent <- now () -. t0;
      Service.send_frame c f.payload;
      Queue.push f (List.assq c conns);
      incr next;
      incr in_flight;
      backlog := max !backlog !in_flight
    done;
    (* with nothing in flight no reply can arrive, so a gap before the
       next due time is free for the host-speed reference *)
    if !in_flight = 0 && !next < n
       && flights.(!next).due -. (now () -. t0) > 0.02
       && now () -. !last_sample > 0.05
    then begin
      Reference.sample speed;
      last_sample := now ()
    end;
    let wait =
      if !next < n then Float.max 0. (flights.(!next).due -. (now () -. t0)) else 0.5
    in
    let fds =
      List.filter_map
        (fun ((c : Service.conn), q) -> if Queue.is_empty q then None else Some c.fd)
        conns
    in
    match Unix.select fds [] [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun ((c : Service.conn), q) ->
          if List.mem c.fd ready then begin
            if not (Service.fill c) then failwith "serve closed a connection";
            let rec drain () =
              match Service.take_line c with
              | None -> ()
              | Some line ->
                let f = Queue.pop q in
                f.recv <- now () -. t0;
                f.reply <- line;
                decr in_flight;
                drain ()
            in
            drain ()
          end)
        conns
  done;
  Service.close ci;
  Service.close cb;
  Array.iter
    (fun f ->
      let reply = Service.reply_of_line f.reply in
      f.elapsed_ms <- Option.value ~default:0. (Json.mem_float "elapsed_ms" reply);
      f.ok <- check_reply env t f.r reply;
      f.reply <- "")
    flights;
  !backlog

(* The serve layer seen from the client: server busy time from the
   replies' elapsed_ms, the rest of each round trip split into
   transport (measured on requests sent to an idle server) and queue. *)
let serve_layer flights ~backlog =
  let all = Array.to_list flights in
  let inter = List.filter (fun f -> f.interactive) all in
  let batch = List.filter (fun f -> not f.interactive) all in
  let overhead f = ((f.recv -. f.sent) *. 1000.) -. f.elapsed_ms in
  let transport =
    Stats.median (List.map overhead (List.filter (fun f -> f.idle_at_send) all))
  in
  let span =
    List.fold_left (fun m f -> Float.max m f.recv) 0. all
    -. List.fold_left (fun m f -> Float.min m f.due) infinity all
  in
  let busy = Stats.sum (List.map (fun f -> f.elapsed_ms) all) in
  let within = List.length (List.filter (fun f -> f.ok && latency_ms f <= slo_ms) inter) in
  [
    metric "serve.busy_ms" "ms" busy;
    metric "serve.queue_ms" "ms"
      (Stats.mean (List.map (fun f -> Float.max 0. (overhead f -. transport)) inter));
    metric "serve.transport_ms" "ms" transport;
    metric "serve.gen_late_ms" "ms"
      (Stats.percentile 99. (List.map (fun f -> (f.sent -. f.due) *. 1000.) all));
    metric "serve.backlog_max" "count" (float_of_int backlog);
    metric "serve.utilisation" "ratio" (busy /. 1000. /. span);
    metric "serve.slo_pct" "%"
      (100. *. float_of_int within /. float_of_int (max 1 (List.length inter)));
    metric "serve.batch_p50_ms" "ms" (Stats.percentile 50. (List.map latency_ms batch));
  ]

let mixed_server env t =
  let server = Service.start ~cspc:env.cspc ~work:env.work () in
  (match Service.connect server.socket with
  | None -> failwith "cannot connect to cspc serve"
  | Some c ->
    List.iter
      (fun r ->
        let reply, _ = Service.request c (serve_request env r) in
        ignore (check_reply env t r reply))
      interactive_set;
    Service.close c);
  server

(* Two clients of one server: interactive requests on warm sources as
   they arrive, and a batch client whose cold jobs stall them. *)
let serve_session env ~speed st t ~seconds =
  let setup_s, server =
    timed_setups ~cheap:true env ~discard:Service.stop (fun () ->
        mixed_server env t)
  in
  Fun.protect ~finally:(fun () -> Service.stop server) @@ fun () ->
  let cycle = float_of_int (List.length batch_labels) /. batch_rate in
  let cycles = max 1 (int_of_float (seconds /. cycle)) in
  let flights = mixed_schedule env st ~cycles in
  let backlog = open_loop env ~speed t ~socket:server.socket flights in
  (setup_s, flights, backlog, Service.vm_hwm_kb server)

(* Open-loop latencies are not repeated request by request, so the
   gated numbers are the two parts of them that are: an interactive
   request's own latency (the median over the interactive mix of each
   request's best repetition, among those sent to an idle server) and
   the longest stall behind a batch job.  A batch job starts serving at
   its reply time less its [elapsed_ms]; the stall it imposes is the
   time from that start to the answer of the first interactive request
   due after it, if one arrived before the job finished — the latency
   of an interactive request arriving just as the job starts.  Each
   batch request's stall is its best repetition; the gated one is the
   largest over the batch mix. *)
let serve_mixed env ~speed st ~seconds =
  let t = tally () in
  let setup_s, flights, backlog, rss_kb = serve_session env ~speed st t ~seconds in
  let all = Array.to_list flights in
  let inter = List.filter (fun f -> f.interactive) all in
  let span =
    List.fold_left (fun m f -> Float.max m f.recv) 0. all
    -. List.fold_left (fun m f -> Float.min m f.due) infinity all
  in
  let ops = float_of_int (List.length all) /. span in
  let own =
    List.filter_map
      (fun f -> if f.idle_at_send then Some (f.r.Cat.label, latency_ms f) else None)
      inter
    |> Stats.best_by_key
    |> List.map (fun (k, v) -> (v, List.assoc k interactive_weights))
  in
  let stalls =
    List.filter_map
      (fun b ->
        let start = b.recv -. (b.elapsed_ms /. 1000.) in
        if b.interactive then None
        else
          Option.map
            (fun i -> (b.r.Cat.label, (i.recv -. start) *. 1000.))
            (List.find_opt (fun i -> i.due >= start && i.due < b.recv) inter))
      all
  in
  let factor = Reference.factor speed in
  finish ~workload:"serve-mixed" t
    [
      metric "setup_s" "s" setup_s;
      metric "p50_ms" "ms" (factor *. Stats.weighted_percentile 50. own);
      metric "tail_ms" "ms"
        (factor *. List.fold_left (fun m (_, v) -> Float.max m v) 0. (Stats.best_by_key stalls));
      metric "ops_per_s" "1/s" ops;
      metric "rss_mb" "MB" (mb_of_kb rss_kb);
    ]
    (raw ~speed ~tail:99. ~ops (List.map latency_ms inter) @ serve_layer flights ~backlog)

(* ---- fuzz-campaign ------------------------------------------------------------ *)

(* Many tiny distinct processes through intern, step and decide.  Case
   costs are heavy-tailed, so every run fuzzes the same 1500 cases (the
   catalogue's seed pool; the seed only orders them) and repeats each
   seed's campaign like any request. *)
let fuzz_campaign env ~speed st ~seconds =
  let t = tally () in
  let fuzz_run seed count =
    let r = Cat.fuzz ~seed ~count in
    let res = spawn env r in
    ignore (check env t r ~exit_code:res.exit_code ~output:res.stdout);
    res
  in
  let setup_s, () =
    timed_setups ~cheap:true env ~discard:ignore (fun () ->
        ignore (fuzz_run (List.hd Cat.fuzz_pool) 40))
  in
  let rss = ref [] in
  let weights = List.map (fun seed -> (string_of_int seed, 1)) Cat.fuzz_pool in
  let run =
    closed_loop ~speed st ~seconds weights (fun seed ->
        let res = fuzz_run (int_of_string seed) Cat.fuzz_count in
        rss := (seed, float_of_int res.maxrss_kb) :: !rss;
        res.wall_ms)
  in
  (* each seed's campaign peaks differently; the typical one is steady *)
  let rss_kb =
    Stats.best_by_key (List.map (fun (seed, kb) -> (seed, -.kb)) !rss)
    |> List.map (fun (_, v) -> -.v)
    |> Stats.median |> int_of_float
  in
  let metrics, extra =
    closed_metrics ~speed ~setup_s ~tail:90. ~rss_kb
      ~work_per:(float_of_int Cat.fuzz_count) weights run
  in
  finish ~workload:"fuzz-campaign" t metrics extra

let all = [ "oneshot-cold"; "requery-warm"; "serve-mixed"; "fuzz-campaign" ]

let run env ~workload ~seed ~seconds =
  let st = Random.State.make [| seed; Hashtbl.hash workload |] in
  let speed = Reference.create () in
  match workload with
  | "oneshot-cold" -> oneshot_cold env ~speed st ~seconds
  | "requery-warm" -> requery_warm env ~speed st ~seconds
  | "serve-mixed" -> serve_mixed env ~speed st ~seconds
  | "fuzz-campaign" -> fuzz_campaign env ~speed st ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- the traced run ------------------------------------------------------------ *)

(* Per-layer metrics: the in-process replay of layers.exe, plus the
   serve layer seen from the client in a short serve-mixed session.
   The same for every workload; [--workload] only seeds it. *)
let traced env ~workload ~seed ~seconds =
  let st = Random.State.make [| seed; Hashtbl.hash workload; 1 |] in
  let t = tally () in
  let serve_seconds = Float.max 2.7 (Float.min 8. (seconds *. 0.3)) in
  let out = Filename.concat env.work "layers.json" in
  let res =
    Child.run ~stderr:(Filename.concat env.work "layers.err") env.layers
      [ "trace"; "--cspc"; env.cspc; "--dir"; env.dir; "--work"; env.work;
        "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" (Float.max 1. (seconds -. serve_seconds));
        "--out"; out; "--chrome"; Filename.concat env.work "trace.json" ]
  in
  if res.exit_code <> 0 then
    failwith
      ("layers.exe trace failed: "
      ^ Child.tail_of_file (Filename.concat env.work "layers.err"));
  let report =
    match Json.parse (Cat.read_file out) with
    | Ok j -> j
    | Error m -> failwith ("layers.json: " ^ m)
  in
  (* layers.exe checks its answers against the same pinned file *)
  t.attempted <- Option.value ~default:0 (Json.mem_int "attempted" report);
  (match Json.mem_int "failed" report with
  | Some k ->
    t.failed <- k;
    t.notes <-
      List.filter_map Json.to_str
        (match Json.member "notes" report with Some (Json.Arr xs) -> xs | _ -> [])
  | None -> fail_one t "layers.json does not say how many answers failed");
  let layer_metrics =
    match Json.member "metrics" report with
    | Some (Json.Obj kvs) ->
      List.map
        (fun (name, v) ->
          metric name
            (Option.value ~default:"" (Json.mem_str "unit" v))
            (Option.value ~default:nan (Json.mem_float "value" v)))
        kvs
    | _ -> failwith "layers.json has no metrics"
  in
  let _, flights, backlog, _ =
    serve_session { env with setups = 1 } ~speed:(Reference.create ()) st t
      ~seconds:serve_seconds
  in
  finish ~workload t (layer_metrics @ serve_layer flights ~backlog) []
