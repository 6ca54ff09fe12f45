module Event = Csp_trace.Event
module History = Csp_trace.History
module Trace = Csp_trace.Trace
module Step = Csp_semantics.Step
module Assertion = Csp_assertion.Assertion
module Term = Csp_assertion.Term
module Compiled = Csp_semantics.Compiled

type monitor = { name : string; assertion : Assertion.t }

let monitor name assertion = { name; assertion }

type violation = {
  monitor_name : string;
  at_step : int;
  history : History.t;
}

type stop_reason = Deadlock | Max_steps | Scheduler_stopped

type result = {
  trace : Trace.t;
  events : (Event.t * Step.visibility) list;
  stop : stop_reason;
  stats : Stats.t;
  violations : violation list;
  final : Csp_lang.Process.t;
}

let check_monitors funs monitors hist step acc =
  List.fold_left
    (fun acc m ->
      let ctx = Term.ctx ~hist ~funs () in
      match Assertion.eval ctx m.assertion with
      | true -> acc
      | false -> { monitor_name = m.name; at_step = step; history = hist } :: acc
      | exception Term.Eval_error _ ->
        { monitor_name = m.name; at_step = step; history = hist } :: acc)
    acc monitors

(* The walk, over any kind of state.  At each state [s], [cands s] is
   its row as the scheduler's candidates, in row order; then, for the
   chosen move [i], [count s i vis] records it and [next s i] is the
   state it leads to. *)
let walk ~scheduler ~monitors ~funs ~max_steps ~cands ~next ~count ~stats
    ~final s0 =
  let finish s rev_events rev_trace violations stop =
    {
      trace = List.rev rev_trace;
      events = List.rev rev_events;
      stop;
      stats = stats ();
      violations = List.rev violations;
      final = final s;
    }
  in
  let rec go step s hist rev_events rev_trace violations =
    let violations = check_monitors funs monitors hist step violations in
    if step >= max_steps then finish s rev_events rev_trace violations Max_steps
    else
      let cs = cands s in
      if Array.length cs = 0 then
        finish s rev_events rev_trace violations Deadlock
      else
        match scheduler.Scheduler.pick ~step cs with
        | None -> finish s rev_events rev_trace violations Scheduler_stopped
        | Some i ->
          let ((e, vis) as c) = cs.(i) in
          count s i vis;
          (* only monitors read the history; a run without them (as
             [cspc deadlock]'s) builds none *)
          let hist =
            match monitors with [] -> hist | _ :: _ -> History.extend hist e
          in
          let rev_trace =
            match vis with
            | Step.Visible -> e :: rev_trace
            | Step.Hidden -> rev_trace
          in
          go (step + 1) (next s i) hist (c :: rev_events) rev_trace violations
  in
  go 0 s0 History.empty [] [] []

(* On interned terms, through the interpreter's row cache; [row] is
   the current state's, which [next] and [count] read. *)
let walk_terms ~scheduler ~monitors ~funs ~max_steps cfg p =
  let st = ref Stats.empty and row = ref [||] in
  walk ~scheduler ~monitors ~funs ~max_steps
    ~cands:(fun p ->
      row := Array.of_list (Step.transitions_i cfg p);
      Array.map (fun (e, vis, _) -> (e, vis)) !row)
    ~next:(fun _ i ->
      let _, _, q = !row.(i) in
      q)
    ~count:(fun _ i vis ->
      let e, _, _ = !row.(i) in
      st := Stats.observe !st e vis)
    ~stats:(fun () -> !st)
    ~final:Csp_lang.Proc.to_process p

(* On a compiled automaton's state ids: a step reads its row slice
   (each state's candidates are built once per run), and the counts
   go per (event id, visibility) until the run ends.  Only the final
   state is built as a term. *)
let walk_ids ~scheduler ~monitors ~funs ~max_steps c s0 =
  let grow a n fill =
    if n <= Array.length a then a
    else begin
      let b = Array.make (max n (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  let rows = ref [||] and counts = ref [||] in
  walk ~scheduler ~monitors ~funs ~max_steps
    ~cands:(fun s ->
      rows := grow !rows (s + 1) None;
      match !rows.(s) with
      | Some cs -> cs
      | None ->
        let cs = Array.init (Compiled.out_degree c s) (Compiled.label c s) in
        !rows.(s) <- Some cs;
        cs)
    ~next:(Compiled.target c)
    ~count:(fun s i vis ->
      let k =
        (2 * Compiled.event_id c s i)
        + match vis with Step.Visible -> 1 | Step.Hidden -> 0
      in
      counts := grow !counts (k + 1) 0;
      !counts.(k) <- !counts.(k) + 1)
    ~stats:(fun () ->
      let st = ref Stats.empty in
      Array.iteri
        (fun k n ->
          if n > 0 then
            let vis = if k land 1 = 1 then Step.Visible else Step.Hidden in
            st := Stats.observe_n !st (Compiled.event c (k / 2)) vis n)
        !counts;
      !st)
    ~final:(Compiled.process c)
    s0

let run ?scheduler ?(seed = 1) ?(monitors = []) ?(max_steps = 1000)
    ?(funs = Csp_assertion.Afun.default_env) ?compiled cfg p =
  let scheduler =
    (* the default scheduler is built from the explicit [seed] rather
       than self-initialising, so a run is reproducible from its
       arguments alone *)
    match scheduler with Some s -> s | None -> Scheduler.uniform ~seed
  in
  (* The walk stays on interned nodes, or on state ids when a compiled
     automaton holds the start state.  Both read the same rows in the
     same order, so the walk, trace, stop reason, statistics and final
     state are unchanged. *)
  let p = Csp_lang.Proc.intern p in
  match compiled with
  | Some c -> (
    match Compiled.state_of c p with
    | Some s -> walk_ids ~scheduler ~monitors ~funs ~max_steps c s
    | None -> walk_terms ~scheduler ~monitors ~funs ~max_steps cfg p)
  | None -> walk_terms ~scheduler ~monitors ~funs ~max_steps cfg p

let run_engine ?scheduler ?seed ?monitors ?max_steps ?funs ?compiled eng p =
  let seed = match seed with Some s -> s | None -> eng.Csp_semantics.Engine.seed in
  run ?scheduler ~seed ?monitors ?max_steps ?funs ?compiled
    (Csp_semantics.Engine.step_config eng)
    p

let pp_stop ppf = function
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Max_steps -> Format.pp_print_string ppf "step limit reached"
  | Scheduler_stopped -> Format.pp_print_string ppf "scheduler stopped"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>stopped: %a@,%a@,violations: %d@]" pp_stop r.stop
    Stats.pp r.stats (List.length r.violations)
