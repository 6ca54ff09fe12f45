module Value = Csp_trace.Value
module Channel = Csp_trace.Channel
module Event = Csp_trace.Event
module Trace = Csp_trace.Trace
module History = Csp_trace.History
module Vset = Csp_lang.Vset
module Chan_expr = Csp_lang.Chan_expr
module Process = Csp_lang.Process
module Defs = Csp_lang.Defs
module Dot = Csp_semantics.Dot
module Term = Csp_assertion.Term
module Assertion = Csp_assertion.Assertion
module Obs = Csp_obs.Obs

type t = {
  fam : Counter.family;
  param : string;
  min_param : int;
  invariants : (string * Assertion.t) list;
  abstract_event : Event.t -> Event.t option;
  doc : string;
}

let c_family_checks = Obs.Counter.make "abstraction.family_checks"
let c_classes = Obs.Counter.make "abstraction.classes"

(* ---- building blocks --------------------------------------------------- *)

let v01 = Vset.Range (0, 1)
let vi n = Value.Int n

(* α for all three presets: forget channel indices, cap identifier
   values at 1 (the context keeps id 0, every replica collapses to 1). *)
let erase_cap ev =
  Some
    (Event.make
       (Channel.simple (Channel.base ev.Event.chan))
       (Chanabs.cap_value 1 ev.Event.value))

let abstract_trace (t : t) tr = List.filter_map t.abstract_event tr

let len name = Term.Len (Term.Chan (Chan_expr.simple name))
let le a b = Assertion.Cmp (Assertion.Le, a, b)

(* ---- token ring --------------------------------------------------------- *)

let token_ring =
  let token = Vset.Enum [ vi 0 ] in
  let defs =
    Defs.empty
    |> Defs.define "aring0"
         (Process.send "work" (Csp_lang.Expr.int 0)
            (Process.send "pass" (Csp_lang.Expr.int 0)
               (Process.recv "pass" "t" token (Process.ref_ "aring0"))))
    |> Defs.define "aring"
         (Process.recv "pass" "t" token
            (Process.send "work" (Csp_lang.Expr.int 1)
               (Process.send "pass" (Csp_lang.Expr.int 0)
                  (Process.ref_ "aring"))))
  in
  {
    fam =
      {
        Counter.name = "token-ring";
        context = Some (Process.ref_ "aring0");
        replicas = [ ("station", Process.ref_ "aring", fun n -> n - 1) ];
        defs;
        sync_bases = [ "pass" ];
        cutoff = 2;
      };
    param = "n";
    min_param = 2;
    invariants =
      [
        ("pass-behind-work", le (len "pass") (len "work"));
        ("work-window", le (len "work") (Term.Add (len "pass", Term.int 1)));
      ];
    abstract_event = erase_cap;
    doc =
      "token ring, indices erased: work values capped at 1, pass is the \
       pairwise rendezvous";
  }

(* ---- leader election ---------------------------------------------------- *)

let leader =
  let defs =
    Defs.empty
    |> Defs.define "anode0"
         (Process.send "elect" (Csp_lang.Expr.int 0)
            (Process.recv "elect" "v"
               (Vset.Enum [ vi 1 ])
               (Process.send "leader" (Csp_lang.Expr.int 1)
                  (Process.ref_ "anode0"))))
    |> Defs.define "anode"
         (Process.recv "elect" "v" v01
            (Process.send "elect" (Csp_lang.Expr.int 1) (Process.ref_ "anode")))
  in
  let tk = Term.Var "k" in
  let leader_is_max =
    Assertion.Forall
      ( "k",
        Vset.Nat,
        Assertion.Imp
          ( Assertion.And
              ( Assertion.Cmp (Assertion.Le, Term.int 1, tk),
                Assertion.Cmp (Assertion.Le, tk, len "leader") ),
            Assertion.Eq (Term.Index (Term.Chan (Chan_expr.simple "leader"), tk), Term.int 1)
          ) )
  in
  {
    fam =
      {
        Counter.name = "leader";
        context = Some (Process.ref_ "anode0");
        replicas = [ ("node", Process.ref_ "anode", fun n -> n - 1) ];
        defs;
        sync_bases = [ "elect" ];
        cutoff = 2;
      };
    param = "n";
    min_param = 2;
    invariants =
      [
        ("leader-is-max", leader_is_max);
        ("leader-after-election", le (len "leader") (len "elect"));
      ];
    abstract_event = erase_cap;
    doc =
      "max-collecting election ring, identifiers projected through cap 1: \
       the abstract maximum 1 must be the only announced leader";
  }

(* ---- dining philosophers ------------------------------------------------ *)

let philosophers =
  let grab_eat_put id tail =
    Process.send "left" (Csp_lang.Expr.int id)
      (Process.send "right" (Csp_lang.Expr.int id)
         (Process.send "eat" (Csp_lang.Expr.int id)
            (Process.send "lput" (Csp_lang.Expr.int id)
               (Process.send "rput" (Csp_lang.Expr.int id) tail))))
  in
  let defs =
    Defs.empty
    |> Defs.define "afork"
         (Process.Choice
            ( Process.recv "left" "p" v01
                (Process.recv "lput" "q" v01 (Process.ref_ "afork")),
              Process.recv "right" "p" v01
                (Process.recv "rput" "q" v01 (Process.ref_ "afork")) ))
    |> Defs.define "aphil0" (grab_eat_put 0 (Process.ref_ "aphil0"))
    |> Defs.define "aphil" (grab_eat_put 1 (Process.ref_ "aphil"))
  in
  {
    fam =
      {
        Counter.name = "philosophers";
        context = Some (Process.ref_ "aphil0");
        replicas =
          [
            ("fork", Process.ref_ "afork", fun n -> n);
            ("phil", Process.ref_ "aphil", fun n -> n - 1);
          ];
        defs;
        sync_bases = [ "left"; "right"; "lput"; "rput" ];
        cutoff = 2;
      };
    param = "n";
    min_param = 2;
    invariants = [];
    abstract_event = erase_cap;
    doc =
      "the paper's symmetric dining philosophers, seats erased: forks and \
       philosophers as two replica classes (bench/soundness family; no \
       erased invariant shipped)";
  }

(* ---- independent worker pool -------------------------------------------- *)

let workers =
  let cycle id name =
    Process.send "tick" (Csp_lang.Expr.int id)
      (Process.send "tock" (Csp_lang.Expr.int id) (Process.ref_ name))
  in
  let defs =
    Defs.empty
    |> Defs.define "atick0" (cycle 0 "atick0")
    |> Defs.define "atick" (cycle 1 "atick")
  in
  {
    fam =
      {
        Counter.name = "workers";
        context = Some (Process.ref_ "atick0");
        replicas = [ ("worker", Process.ref_ "atick", fun n -> n - 1) ];
        defs;
        (* pairwise-disjoint concrete alphabets: every erased channel
           is solo, nothing rendezvouses *)
        sync_bases = [];
        cutoff = 2;
      };
    param = "n";
    min_param = 1;
    invariants = [ ("tock-behind-tick", le (len "tock") (len "tick")) ];
    abstract_event = erase_cap;
    doc =
      "n independent two-phase cyclers, indices erased: concrete state \
       space is 2^n while the abstract one saturates at the cutoff — \
       the bench's superlinear-vs-flat exhibit";
  }

let presets = [ token_ring; leader; philosophers; workers ]

let find name =
  let canon = String.lowercase_ascii (String.trim name) in
  let alias = function
    | "ring" | "token_ring" | "tokenring" -> "token-ring"
    | "phils" | "philos" -> "philosophers"
    | "worker" | "pool" -> "workers"
    | s -> s
  in
  List.find_opt (fun t -> String.equal t.fam.Counter.name (alias canon)) presets

(* ---- whole-family verification ------------------------------------------ *)

type class_outcome = {
  rep : int;
  instances : int list;
  unbounded_tail : bool;
  abstract_states : int;
  truncated : bool;
  checked : (int, Trace.t * string) result;
}

type outcome = {
  formula : Formula.t;
  param : string;
  depth : int;
  classes : class_outcome list;
  certified : bool;
}

(* Smallest m ≥ lo with signature(m) = signature(m+1): replica counts
   are monotone in n and saturate at the cutoff, so beyond this point
   every instance shares one abstract LTS. *)
let stabilisation_point (t : t) ~lo =
  let sig_at m = Counter.initial_signature t.fam ~n:m in
  let rec scan m budget =
    if budget = 0 then None
    else if String.equal (sig_at m) (sig_at (m + 1)) then Some m
    else scan (m + 1) (budget - 1)
  in
  scan lo 64

let check_class (t : t) ~depth ~max_states rep =
  let g = (Counter.explore ~max_states t.fam ~n:rep).Counter.graph in
  let traces = Counter.visible_traces g ~depth in
  let check_trace tr =
    let ctx = Term.ctx ~hist:(History.of_trace tr) () in
    List.find_map
      (fun (name, a) ->
        match Assertion.eval ctx a with
        | true -> None
        | false -> Some (tr, name)
        | exception Term.Eval_error m -> Some (tr, name ^ ": " ^ m))
      t.invariants
  in
  let failure = List.find_map check_trace traces in
  let checked =
    match failure with
    | None -> Ok (List.length traces)
    | Some (tr, name) -> Error (tr, name)
  in
  (g.Dot.n_states, not g.Dot.complete, checked)

let check_family ?(depth = 6) ?(max_states = 4000) (t : t) ~formula =
  Obs.Counter.incr c_family_checks;
  match Formula.vars formula with
  | v :: _ when not (String.equal v t.param) ->
    Error
      (Printf.sprintf "formula parameter %s does not match the family's %s" v
         t.param)
  | _ :: _ :: _ -> Error "family formulae take a single parameter"
  | _ -> (
    if t.invariants = [] then
      Error
        (Printf.sprintf "family %s ships no erased invariants to check"
           t.fam.Counter.name)
    else
      let lo = t.min_param in
      let unbounded =
        try Formula.unbounded_above ~lo formula t.param
        with Invalid_argument m -> invalid_arg m
      in
      match stabilisation_point t ~lo with
      | None -> Error "abstract initial state does not stabilise in n"
      | Some n_sat ->
        let hi = max (Formula.max_const formula t.param) (n_sat + 1) in
        let sat =
          List.filter
            (fun n -> Formula.eval [ (t.param, n) ] formula)
            (List.init (max 0 (hi - lo + 1)) (fun i -> lo + i))
        in
        if sat = [] && not unbounded then
          Error "no instance satisfies the formula"
        else
          (* group the satisfying instances by abstract signature; the
             unbounded tail joins the stabilised signature's class *)
          let tail_sig = Counter.initial_signature t.fam ~n:(hi + 1) in
          let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
          let order = ref [] in
          let add sg n =
            match Hashtbl.find_opt groups sg with
            | Some l -> l := n :: !l
            | None ->
              Hashtbl.add groups sg (ref [ n ]);
              order := sg :: !order
          in
          List.iter
            (fun n -> add (Counter.initial_signature t.fam ~n) n)
            sat;
          if unbounded && not (Hashtbl.mem groups tail_sig) then
            (* every enumerated instance misses the saturated class:
               the tail still needs a representative *)
            add tail_sig (hi + 1);
          let classes =
            List.rev_map
              (fun sg ->
                let instances = List.rev !(Hashtbl.find groups sg) in
                let rep = List.fold_left min (List.hd instances) instances in
                let tail = unbounded && String.equal sg tail_sig in
                let abstract_states, truncated, checked =
                  check_class t ~depth ~max_states rep
                in
                {
                  rep;
                  instances;
                  unbounded_tail = tail;
                  abstract_states;
                  truncated;
                  checked;
                })
              !order
          in
          Obs.Counter.add c_classes (List.length classes);
          (* a truncated exploration leaves traces past the bound
             unchecked, so it cannot certify its class *)
          let certified =
            List.for_all
              (fun c ->
                (not c.truncated)
                && match c.checked with Ok _ -> true | Error _ -> false)
              classes
          in
          Ok { formula; param = t.param; depth; classes; certified })

let pp_outcome fmt o =
  let open Format in
  let pp_instances fmt c =
    match (c.instances, c.unbounded_tail) with
    | [ n ], false -> fprintf fmt "%s=%d" o.param n
    | ns, tail ->
      fprintf fmt "%s in {%s%s}" o.param
        (String.concat "," (List.map string_of_int ns))
        (if tail then ",..." else "")
  in
  fprintf fmt "@[<v>formula %s: %d class%s at depth %d@," (Formula.to_string o.formula)
    (List.length o.classes)
    (if List.length o.classes = 1 then "" else "es")
    o.depth;
  List.iter
    (fun c ->
      match c.checked with
      | Ok _ when c.truncated ->
        fprintf fmt "  class %a (rep %s=%d): truncated at %d abstract states@,"
          pp_instances c o.param c.rep c.abstract_states
      | Ok n ->
        fprintf fmt "  class %a (rep %s=%d): HOLDS on %d abstract traces (%d abstract states)@,"
          pp_instances c o.param c.rep n c.abstract_states
      | Error (tr, name) ->
        fprintf fmt "  class %a (rep %s=%d): FAILS %s on %s@," pp_instances c
          o.param c.rep name (Trace.to_string tr))
    o.classes;
  if o.certified then
    fprintf fmt "CERTIFIED for every %s satisfying %s@]" o.param
      (Formula.to_string o.formula)
  else fprintf fmt "NOT CERTIFIED@]"
