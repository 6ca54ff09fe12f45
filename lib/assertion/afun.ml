module Value = Csp_trace.Value
module Vset = Csp_lang.Vset
module M = Map.Make (String)

type guard = Any | In of Vset.t

type clause = { guards : guard list; emit : int list; pass : int list }

type t = {
  name : string;
  doc : string;
  apply : Value.t list -> Value.t list;
  equations : clause list;
}

type env = t M.t

let empty_env = M.empty
let register f env = M.add f.name f env
let find env name = M.find_opt name env
let to_list env = List.map snd (M.bindings env)

let protocol_cancel =
  let is_signal v = Value.equal v Value.ack || Value.equal v Value.nack in
  let rec apply = function
    | [] -> []
    | x :: s when is_signal x -> apply s (* stray signal at a data position *)
    | [ _ ] -> []
    | x :: a :: s ->
      if Value.equal a Value.ack then x :: apply s
      else if Value.equal a Value.nack then apply s
      else apply (a :: s)
  in
  {
    name = "f";
    doc = "cancel ACKs and <x,NACK> pairs (the protocol function of §2.2)";
    apply;
    (* [Sym] literals rather than [Value.ack], so the clauses are static
       constants, built at compile time *)
    equations =
      [
        (* f(a^s) = f(s), a ∈ {ACK, NACK} *)
        {
          guards = [ In (Vset.Enum [ Value.Sym "ACK"; Value.Sym "NACK" ]) ];
          emit = [];
          pass = [];
        };
        (* f(x^ACK^s) = x^f(s) *)
        {
          guards = [ In Vset.Nat; In (Vset.Enum [ Value.Sym "ACK" ]) ];
          emit = [ 0 ];
          pass = [];
        };
        (* f(x^NACK^s) = f(s) *)
        {
          guards = [ In Vset.Nat; In (Vset.Enum [ Value.Sym "NACK" ]) ];
          emit = [];
          pass = [];
        };
        (* f(x^y^s) = f(y^s): unacknowledged data is skipped *)
        { guards = [ In Vset.Nat; In Vset.Nat ]; emit = []; pass = [ 1 ] };
      ];
  }

let identity =
  {
    name = "id";
    doc = "identity";
    apply = Fun.id;
    equations = [ { guards = [ Any ]; emit = [ 0 ]; pass = [] } ];
  }

let odds =
  let rec apply = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: _ :: s -> x :: apply s
  in
  {
    name = "odds";
    doc = "elements at positions 1, 3, 5, …";
    apply;
    equations = [ { guards = [ Any; Any ]; emit = [ 0 ]; pass = [] } ];
  }

let evens =
  let rec apply = function
    | [] | [ _ ] -> []
    | _ :: y :: s -> y :: apply s
  in
  {
    name = "evens";
    doc = "elements at positions 2, 4, 6, …";
    apply;
    equations = [ { guards = [ Any; Any ]; emit = [ 1 ]; pass = [] } ];
  }

let default_env =
  List.fold_left
    (fun env f -> register f env)
    empty_env
    [ protocol_cancel; identity; odds; evens ]
