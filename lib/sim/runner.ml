module Event = Csp_trace.Event
module History = Csp_trace.History
module Trace = Csp_trace.Trace
module Step = Csp_semantics.Step
module Assertion = Csp_assertion.Assertion
module Term = Csp_assertion.Term

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

let run ?scheduler ?(seed = 1) ?(monitors = []) ?(max_steps = 1000)
    ?(funs = Csp_assertion.Afun.default_env) ?compiled cfg p =
  let scheduler =
    (* the default scheduler is built from the explicit [seed] rather
       than self-initialising, so a run is reproducible from its
       arguments alone *)
    match scheduler with Some s -> s | None -> Scheduler.uniform ~seed
  in
  (* The walk stays on interned nodes: each step is one successor
     query (a flat-row read when a compiled automaton is given, the
     memoised interpreter otherwise) instead of re-interning the
     plain-AST state every step.  Both sides return the same lists,
     so the walk, trace and stop reason are unchanged. *)
  let successors =
    match compiled with
    | Some c -> Csp_semantics.Compiled.transitions_i c
    | None -> Step.transitions_i cfg
  in
  let rec go step p hist rev_events rev_trace stats violations =
    let violations = check_monitors funs monitors hist step violations in
    if step >= max_steps then
      finish p rev_events rev_trace stats violations Max_steps
    else
      let transitions = successors p in
      match transitions with
      | [] -> finish p rev_events rev_trace stats violations Deadlock
      | _ -> (
        let cands =
          Array.of_list (List.map (fun (e, vis, _) -> (e, vis)) transitions)
        in
        match scheduler.Scheduler.pick ~step cands with
        | None ->
          finish p rev_events rev_trace stats violations Scheduler_stopped
        | Some i ->
          let e, vis, p' = List.nth transitions i in
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
          go (step + 1) p' hist ((e, vis) :: rev_events) rev_trace
            (Stats.observe stats e vis)
            violations)
  and finish p rev_events rev_trace stats violations stop =
    {
      trace = List.rev rev_trace;
      events = List.rev rev_events;
      stop;
      stats;
      violations = List.rev violations;
      final = Csp_lang.Proc.to_process p;
    }
  in
  go 0 (Csp_lang.Proc.intern p) History.empty [] [] Stats.empty []

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
