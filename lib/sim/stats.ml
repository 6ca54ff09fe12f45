module Channel = Csp_trace.Channel

type t = {
  steps : int;
  visible : int;
  hidden : int;
  per_channel : (Channel.t * int) list;
}

let empty = { steps = 0; visible = 0; hidden = 0; per_channel = [] }

let bump per_channel c k =
  let rec go = function
    | [] -> [ (c, k) ]
    | (c', n) :: rest ->
      let o = Channel.compare c c' in
      if o = 0 then (c', n + k) :: rest
      else if o < 0 then (c, k) :: (c', n) :: rest
      else (c', n) :: go rest
  in
  go per_channel

let observe_n t (e : Csp_trace.Event.t) vis k =
  {
    steps = t.steps + k;
    visible = (t.visible + match vis with Csp_semantics.Step.Visible -> k | _ -> 0);
    hidden = (t.hidden + match vis with Csp_semantics.Step.Hidden -> k | _ -> 0);
    per_channel = bump t.per_channel e.Csp_trace.Event.chan k;
  }

let observe t e vis = observe_n t e vis 1

let count t c =
  match List.find_opt (fun (c', _) -> Channel.equal c c') t.per_channel with
  | Some (_, n) -> n
  | None -> 0

let pp ppf t =
  Format.fprintf ppf "@[<v>steps=%d (visible=%d hidden=%d)@,%a@]" t.steps
    t.visible t.hidden
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (c, n) -> Format.fprintf ppf "  %a: %d" Channel.pp c n))
    t.per_channel
