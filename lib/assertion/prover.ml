module Value = Csp_trace.Value
module History = Csp_trace.History
module Channel = Csp_trace.Channel
module Chan_expr = Csp_lang.Chan_expr
module Expr = Csp_lang.Expr
module Valuation = Csp_lang.Valuation
module Vset = Csp_lang.Vset

type goal = { hyps : Assertion.t list; concl : Assertion.t }

type verdict =
  | Proved of string
  | Refuted of { rho : Valuation.t; hist : History.t }
  | Unknown of { cases : int }

type config = {
  funs : Afun.env;
  alphabet : Value.t list;
  max_len : int;
  max_cases : int;
  random_trials : int;
  random_len : int;
  nat_bound : int;
  seed : int;
  syntactic_phase : bool;
}

let default_config =
  {
    funs = Afun.default_env;
    alphabet = [ Value.Int 0; Value.Int 1; Value.ack; Value.nack ];
    max_len = 3;
    max_cases = 20_000;
    random_trials = 200;
    random_len = 8;
    nat_bound = 16;
    seed = 42;
    syntactic_phase = true;
  }

let goal ?(hyps = []) concl = { hyps; concl }

(* --- syntactic phase ----------------------------------------------- *)

let rec flatten_hyp = function
  | Assertion.And (r, s) -> flatten_hyp r @ flatten_hyp s
  | Assertion.True -> []
  | h -> [ h ]

let flatten hyps = List.concat_map flatten_hyp hyps

let hyp_prefixes hyps =
  List.filter_map
    (function Assertion.Prefix (a, b) -> Some (a, b) | _ -> None)
    hyps

(* --- linear length arithmetic --------------------------------------- *)

(* Normal form of an integer term built from lengths: a constant plus a
   multiset of atoms, where an atom is a term whose length is opaque
   (a channel, variable, application, …).  [Len (Cons (x, s))]
   normalises to [1 + |s|], catenation to the sum, and sequence
   literals to their length. *)
let rec length_atoms t =
  match t with
  | Term.Const (Value.Seq vs) -> Some ([], List.length vs)
  | Term.Cons (_, s) ->
    Option.map (fun (ats, c) -> (ats, c + 1)) (length_atoms s)
  | Term.Cat (a, b) -> (
    match length_atoms a, length_atoms b with
    | Some (x, i), Some (y, j) -> Some (x @ y, i + j)
    | _ -> None)
  | _ -> Some ([ t ], 0)

let rec linear_norm t =
  match t with
  | Term.Const (Value.Int n) -> Some ([], n)
  | Term.Len s -> length_atoms s
  | Term.Add (a, b) -> (
    match linear_norm a, linear_norm b with
    | Some (x, i), Some (y, j) -> Some (x @ y, i + j)
    | _ -> None)
  | _ -> None

let multiset_sub xs ys =
  (* xs ⊆ ys as multisets (by structural term equality); returns the
     remainder of ys *)
  let rec remove x = function
    | [] -> None
    | y :: rest ->
      if Term.equal x y then Some rest
      else Option.map (fun r -> y :: r) (remove x rest)
  in
  List.fold_left
    (fun acc x -> match acc with None -> None | Some ys -> remove x ys)
    (Some ys) xs

let multiset_equal xs ys =
  List.length xs = List.length ys && multiset_sub xs ys = Some []

(* Is [lhs ≤ rhs] provable by length arithmetic, possibly through one
   Cmp(Le) hypothesis?  Directly: every atom of the left occurs on the
   right and the constants agree.  Through a hypothesis |A|+a ≤ |B|+b:
   the goal |A|+a' ≤ |B|+b' follows when a'−a ≤ b'−b. *)
let linear_le hyps lhs rhs =
  match linear_norm lhs, linear_norm rhs with
  | Some (la, lc), Some (ra, rc) ->
    if multiset_sub la ra <> None && lc <= rc then true
    else
      List.exists
        (function
          | Assertion.Cmp (Assertion.Le, hl, hr) -> (
            match linear_norm hl, linear_norm hr with
            | Some (ha, hc), Some (hb, hd) ->
              multiset_equal la ha && multiset_equal ra hb
              && lc - hc <= rc - hd
            | _ -> false)
          | _ -> false)
        hyps
  | _ -> false

(* --- unfolding by defining equations ---------------------------------- *)

(* Does every value the head can take meet the guard?  A constant is
   tested; a variable is decided by its binder's range.  [env] lists the
   ranges of the enclosing [Forall] binders, innermost first, so a
   rebound name hides the outer range. *)
let decided env guard head =
  match guard, head with
  | Afun.Any, _ -> true
  | Afun.In m, Term.Const v -> Vset.mem m v
  | Afun.In m, Term.Var x -> (
    match List.assoc_opt x env with
    | Some r -> Vset.subset r m
    | None -> false)
  | Afun.In _, _ -> false

let rec split_heads n t =
  if n = 0 then Some ([], t)
  else
    match t with
    | Term.Cons (x, s) ->
      Option.map (fun (xs, rest) -> (x :: xs, rest)) (split_heads (n - 1) s)
    | _ -> None

let cons_all heads tail = List.fold_right (fun x s -> Term.Cons (x, s)) heads tail

(* [name(arg)] rewritten by the first clause whose guards the heads of
   [arg] all meet.  Only clauses that pass back fewer heads than they
   match are used, so the cons spine of the argument shrinks and
   repeated unfolding terminates. *)
let unfold_app funs env name arg =
  match Afun.find funs name with
  | None -> None
  | Some fn ->
    List.find_map
      (fun (c : Afun.clause) ->
        let k = List.length c.guards in
        if List.length c.pass >= k then None
        else
          match split_heads k arg with
          | Some (heads, tail) when List.for_all2 (decided env) c.guards heads ->
            let pick = List.map (List.nth heads) in
            Some (cons_all (pick c.emit) (Term.App (name, cons_all (pick c.pass) tail)))
          | _ -> None)
      fn.equations

let rec unfold funs env t =
  let u = unfold funs env in
  match t with
  | Term.App (name, arg) -> (
    let arg = u arg in
    match unfold_app funs env name arg with
    | Some t' -> u t'
    | None -> Term.App (name, arg))
  | Term.Cons (a, b) -> Term.Cons (u a, u b)
  | Term.Cat (a, b) -> Term.Cat (u a, u b)
  | Term.Len a -> Term.Len (u a)
  | Term.Index (a, b) -> Term.Index (u a, u b)
  | Term.Neg a -> Term.Neg (u a)
  | Term.Add (a, b) -> Term.Add (u a, u b)
  | Term.Sub (a, b) -> Term.Sub (u a, u b)
  | Term.Mul (a, b) -> Term.Mul (u a, u b)
  | Term.Div (a, b) -> Term.Div (u a, u b)
  | Term.Mod (a, b) -> Term.Mod (u a, u b)
  | Term.Const _ | Term.Var _ | Term.Chan _ | Term.Sum _ -> t

let unfold_atom funs env = function
  | Assertion.Eq (a, b) -> Assertion.Eq (unfold funs env a, unfold funs env b)
  | Assertion.Cmp (c, a, b) -> Assertion.Cmp (c, unfold funs env a, unfold funs env b)
  | Assertion.Prefix (a, b) -> Assertion.Prefix (unfold funs env a, unfold funs env b)
  | r -> r

(* --- exact phase ------------------------------------------------------ *)

let rec syntactic funs env hyps concl =
  if List.exists (Assertion.equal Assertion.False) hyps then
    Some "ex falso quodlibet"
  else if List.exists (Assertion.equal concl) hyps then Some "hypothesis"
  else
    match concl with
    | Assertion.True -> Some "trivially true"
    | Assertion.And (r, s) -> (
      match syntactic funs env hyps r, syntactic funs env hyps s with
      | Some a, Some b -> Some (a ^ " & " ^ b)
      | _ -> None)
    | Assertion.Imp (r, s) -> syntactic funs env (flatten_hyp r @ hyps) s
    | Assertion.Forall (x, m, r) ->
      (* The body is proved for an arbitrary [x] in [m]; hypotheses about
         an outer [x] say nothing about this one. *)
      let hyps = List.filter (fun h -> not (List.mem x (Assertion.free_vars h))) hyps in
      Option.map
        (fun how -> "forall-generalisation; " ^ how)
        (syntactic funs ((x, m) :: env) hyps r)
    | Assertion.Eq _ | Assertion.Cmp _ | Assertion.Prefix _ ->
      let unfolded = unfold_atom funs env concl in
      if Assertion.equal unfolded concl then atomic hyps concl
      else
        Option.map
          (fun how -> "defining equations; " ^ how)
          (syntactic funs env hyps unfolded)
    | _ -> None

and atomic hyps = function
  | Assertion.Eq (a, b) when Term.equal a b -> Some "equality reflexivity"
  | Assertion.Cmp (Assertion.Le, a, b) when linear_le hyps a b ->
    Some "length arithmetic"
  | Assertion.Prefix (a, b) -> syntactic_prefix hyps a b
  | _ -> None

and syntactic_prefix hyps a b =
  if Term.equal a b then Some "prefix reflexivity"
  else if List.exists (Assertion.equal (Assertion.Prefix (a, b))) hyps then
    Some "hypothesis"
  else
    match a, b with
    | Term.Const (Value.Seq []), _ -> Some "empty sequence is least"
    | Term.Cons (x, a'), Term.Cons (y, b') when Term.equal x y ->
      Option.map
        (fun m -> "cons monotonicity; " ^ m)
        (syntactic_prefix hyps a' b')
    | _ ->
      (* transitivity: is b reachable from a in the graph of prefix
         hypotheses?  Depth-first search over distinct terms. *)
      let prefs = hyp_prefixes hyps in
      let rec reach seen x =
        Term.equal x b
        || List.exists
             (fun (x', y) ->
               Term.equal x x'
               && (not (List.exists (Term.equal y) seen))
               && reach (y :: seen) y)
             prefs
      in
      if reach [ a ] a then Some "prefix transitivity" else None

(* --- semantic (testing) phase -------------------------------------- *)

let all_seqs alphabet max_len =
  let rec exact len =
    if len = 0 then [ [] ]
    else
      List.concat_map
        (fun s -> List.map (fun v -> v :: s) alphabet)
        (exact (len - 1))
  in
  List.concat_map exact (List.init (max_len + 1) Fun.id)

(* Cartesian product with a budget; calls [k] on each tuple until it
   returns false or the budget runs out.  Returns the number of tuples
   visited and whether the space was exhausted. *)
let product_iter ~budget choices k =
  let visited = ref 0 and stop = ref false in
  let rec go acc = function
    | [] ->
      incr visited;
      if !visited > budget then stop := true
      else if not (k (List.rev acc)) then stop := true
    | c :: rest ->
      let rec each = function
        | [] -> ()
        | x :: xs ->
          if not !stop then begin
            go (x :: acc) rest;
            each xs
          end
      in
      each c
  in
  go [] choices;
  (min !visited budget, not !stop)

let formula { hyps; concl } =
  List.fold_right (fun h acc -> Assertion.Imp (h, acc)) hyps concl

exception Found of Valuation.t * History.t

let eval_case cfg rho g =
  (* Channels may depend on the variables just assigned. *)
  let chan_exprs = Assertion.free_chans g in
  let chans =
    List.filter_map
      (fun ce ->
        match Chan_expr.eval rho ce with
        | c -> Some c
        | exception Expr.Eval_error _ -> None)
      chan_exprs
  in
  let chans =
    List.fold_left
      (fun acc c -> if List.exists (Channel.equal c) acc then acc else acc @ [ c ])
      [] chans
  in
  (chans, fun hist ->
    let ctx = Term.ctx ~rho ~hist ~funs:cfg.funs ~nat_bound:cfg.nat_bound () in
    match Assertion.eval ctx g with
    | b -> Some b
    | exception Term.Eval_error _ -> None)

let semantic cfg g =
  let vars = Assertion.free_vars g in
  let cases = ref 0 in
  let seqs = all_seqs cfg.alphabet cfg.max_len in
  let run_case rho =
    let chans, evaluate = eval_case cfg rho g in
    let histories = List.map (fun _ -> seqs) chans in
    let budget = max 1 (cfg.max_cases / max 1 (List.length vars + 1)) in
    let _, _ =
      product_iter ~budget histories (fun hs ->
          let hist =
            List.fold_left2 (fun h c s -> History.set h c s) History.empty
              chans hs
          in
          (match evaluate hist with
          | Some false -> raise (Found (rho, hist))
          | Some true -> incr cases
          | None -> ());
          true)
    in
    ()
  in
  let var_choices = List.map (fun _ -> cfg.alphabet) vars in
  (try
     let _, _ =
       product_iter ~budget:cfg.max_cases var_choices (fun vs ->
           let rho =
             List.fold_left2
               (fun r x v -> Valuation.add x v r)
               Valuation.empty vars vs
           in
           run_case rho;
           true)
     in
     (* random longer histories *)
     let st = Random.State.make [| cfg.seed |] in
     let rand_of l = List.nth l (Random.State.int st (List.length l)) in
     let rand_seq () =
       let n = Random.State.int st (cfg.random_len + 1) in
       List.init n (fun _ -> rand_of cfg.alphabet)
     in
     for _ = 1 to cfg.random_trials do
       let rho =
         List.fold_left
           (fun r x -> Valuation.add x (rand_of cfg.alphabet) r)
           Valuation.empty vars
       in
       let chans, evaluate = eval_case cfg rho g in
       let hist =
         List.fold_left
           (fun h c -> History.set h c (rand_seq ()))
           History.empty chans
       in
       match evaluate hist with
       | Some false -> raise (Found (rho, hist))
       | Some true -> incr cases
       | None -> ()
     done;
     Unknown { cases = !cases }
   with Found (rho, hist) -> Refuted { rho; hist })

let prove ?(config = default_config) g =
  let hyps = flatten g.hyps in
  match
    if config.syntactic_phase then syntactic config.funs [] hyps g.concl
    else None
  with
  | Some how -> Proved how
  | None ->
    let f = formula { hyps; concl = g.concl } in
    if Assertion.free_chans f = [] && Assertion.free_vars f = [] then
      let ctx = Term.ctx ~funs:config.funs ~nat_bound:config.nat_bound () in
      match Assertion.eval ctx f with
      | true -> Proved "ground evaluation"
      | false -> Refuted { rho = Valuation.empty; hist = History.empty }
      | exception Term.Eval_error m -> failwith ("prover: ill-typed goal: " ^ m)
    else semantic config f

let verdict_ok = function Proved _ | Unknown _ -> true | Refuted _ -> false

let pp_verdict ppf = function
  | Proved how -> Format.fprintf ppf "proved (%s)" how
  | Refuted { rho; hist } ->
    Format.fprintf ppf "refuted at %a, %a" Valuation.pp rho History.pp hist
  | Unknown { cases } ->
    Format.fprintf ppf "not refuted (survived %d test cases)" cases
