open Csp
module Json = Csp_persist.Json
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer

(* ---- client ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; reader : Protocol.reader }

(* Responses can be much larger than requests (a stress graph's DOT
   output runs to megabytes), so the client reads with a far higher
   frame cap than the server accepts. *)
let response_max_frame = 64 * 1024 * 1024

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; reader = Protocol.reader ~max_frame:response_max_frame fd }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let request conn j =
  match Protocol.write_frame conn.fd j with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    match Protocol.read_frame conn.reader with
    | `Eof -> Error "server closed the connection"
    | `Too_large -> Error "response frame too large"
    | `Frame line -> (
      match Json.parse line with
      | Ok j -> Ok j
      | Error m -> Error (Printf.sprintf "response is not valid JSON: %s" m)))

let time_first ~socket j =
  match connect socket with
  | Error _ as e -> e |> Result.map (fun _ -> assert false)
  | Ok conn ->
    Fun.protect ~finally:(fun () -> close conn) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    (match request conn j with
    | Error _ as e -> e |> Result.map (fun _ -> assert false)
    | Ok resp -> Ok ((Unix.gettimeofday () -. t0) *. 1000., resp))

(* ---- workload items ---------------------------------------------------- *)

type item = { label : string; request : Json.t }

let req op kvs = Json.Obj (("op", Json.str op) :: kvs)
let src s = ("source", Json.str s)

(* A model back to concrete syntax: its definitions plus fresh names
   for the composite processes the requests will refer to. *)
let model_source defs extras =
  String.concat ""
    ((Printer.defs defs ^ "\n")
    :: List.map
         (fun (n, p) -> Printf.sprintf "%s = %s\n" n (Printer.process p))
         extras)

let model_items ~stress =
  let ring = Models.Token_ring.make ~n:(if stress then 10 else 3) in
  let commit = Models.Commit.make ~n:(if stress then 6 else 2) in
  let window = Models.Sliding_window.make ~w:2 in
  let ring_src =
    model_source ring.defs [ ("wlsys", ring.system); ("wlspec", ring.spec) ]
  in
  let commit_src =
    model_source commit.defs
      [ ("wlsys", commit.system); ("wlspec", commit.spec) ]
  in
  let window_src =
    model_source window.defs
      [ ("wlsys", window.system); ("wlspec", window.spec) ]
  in
  let states = if stress then 20_000 else 2_000 in
  let graph label source =
    {
      label = label ^ ":graph";
      request =
        req "graph"
          [ src source; ("process", Json.str "wlsys");
            ("max_states", Json.int states) ];
    }
  in
  let refine label source depth =
    {
      label = label ^ ":refine";
      request =
        req "refine"
          [ src source; ("impl", Json.str "wlsys");
            ("spec", Json.str "wlspec"); ("depth", Json.int depth) ];
    }
  in
  let ring_label = Printf.sprintf "ring%d" ring.n in
  let commit_label = Printf.sprintf "commit%d" commit.n in
  [
    graph ring_label ring_src;
    refine ring_label ring_src (if stress then 8 else 4);
    graph commit_label commit_src;
    refine commit_label commit_src (if stress then 6 else 4);
    graph "window2" window_src;
    refine "window2" window_src (if stress then 10 else 5);
    {
      label = "window2:weak";
      request =
        req "refine"
          [ src window_src; ("impl", Json.str "wlsys");
            ("spec", Json.str "wlspec"); ("weak", Json.Bool true) ];
    };
  ]

let corpus_items sources =
  List.concat_map
    (fun (name, text) ->
      match Parser.parse_file text with
      | Error _ -> []
      | Ok file ->
        let has_main = Defs.lookup file.Parser.defs "main" <> None in
        let has_asserts = file.Parser.decls <> [] in
        ({ label = name ^ ":parse"; request = req "parse" [ src text ] }
         :: (if has_main then
              [
                {
                  label = name ^ ":graph";
                  request =
                    req "graph"
                      [ src text; ("process", Json.str "main");
                        ("max_states", Json.int 2_000) ];
                };
              ]
            else []))
        @ (if has_asserts then
            [ { label = name ^ ":prove"; request = req "prove" [ src text ] } ]
          else []))
    sources

(* The paper's copier and ACK/NACK protocol (§1.3/§2.2), embedded so
   proof traffic needs no files on disk.  Repeating these is what
   exercises the proved-sequent cache: the first prove pays the tactic
   search, every later one re-checks the stored tree. *)
let copier_source =
  "copier = input?x:NAT -> output!x -> copier\n\
   assert copier sat output <= input\n"

let protocol_source =
  "sender = input?x:NAT -> q[x]\n\
   q[x:NAT] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])\n\
   receiver = wire?z:NAT -> (wire!ACK -> output!z -> receiver\n\
  \                         | wire!NACK -> receiver)\n\
   protocol = chan wire; (sender [ {input, wire} || {wire, output} ] receiver)\n\
   assert sender sat f(wire) <= input\n\
   assert forall x:NAT. q[x] sat f(wire) <= x^input\n\
   assert receiver sat output <= f(wire)\n\
   assert protocol sat output <= input\n"

let prove_items () =
  [
    { label = "copier:prove"; request = req "prove" [ src copier_source ] };
    { label = "protocol:prove"; request = req "prove" [ src protocol_source ] };
  ]

let fuzz_items ~stress =
  let count = if stress then 300 else 40 in
  let seeds = if stress then [ 101; 102; 103 ] else [ 101; 102 ] in
  List.map
    (fun seed ->
      {
        label = Printf.sprintf "fuzz:%d" seed;
        request =
          req "fuzz" [ ("seed", Json.int seed); ("count", Json.int count) ];
      })
    seeds

(* Deterministic round-robin interleave: the streams alternate, so
   cache-hitting repeats are separated by unrelated traffic the way
   real mixed load would separate them. *)
let interleave lists =
  let rec go acc lists =
    let heads, rests =
      List.fold_right
        (fun l (hs, ts) ->
          match l with [] -> (hs, ts) | x :: r -> (x :: hs, r :: ts))
        lists ([], [])
    in
    match heads with
    | [] -> List.rev acc
    | _ -> go (List.rev_append heads acc) rests
  in
  go [] lists

let mixed ?(stress = false) ~sources () =
  interleave
    [
      corpus_items sources;
      model_items ~stress;
      prove_items ();
      fuzz_items ~stress;
    ]

(* ---- replay ------------------------------------------------------------ *)

type timing = {
  label : string;
  ok : bool;
  client_ms : float;
  server_ms : float;
}

type summary = {
  requests : int;
  errors : int;
  wall_s : float;
  req_per_s : float;
  p50_ms : float;
  p99_ms : float;
}

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    List.nth sorted (min n (max 1 rank) - 1)

let summarise ~wall_s ts =
  let lats = List.map (fun t -> t.client_ms) ts in
  {
    requests = List.length ts;
    errors = List.length (List.filter (fun t -> not t.ok) ts);
    wall_s;
    req_per_s =
      (if wall_s > 0. then float_of_int (List.length ts) /. wall_s else 0.);
    p50_ms = percentile 50. lats;
    p99_ms = percentile 99. lats;
  }

let replay ?(connections = 1) ?(repeat = 1) ~socket items =
  let n = max 1 connections in
  let rec open_conns k acc =
    if k = 0 then Ok (List.rev acc)
    else
      match connect socket with
      | Ok c -> open_conns (k - 1) (c :: acc)
      | Error m ->
        List.iter close acc;
        Error m
  in
  match open_conns n [] with
  | Error m -> Error m
  | Ok conns ->
    let conns = Array.of_list conns in
    Fun.protect ~finally:(fun () -> Array.iter close conns) @@ fun () ->
    let timings = ref [] in
    let failure = ref None in
    let idx = ref 0 in
    let t_start = Unix.gettimeofday () in
    for _ = 1 to max 1 repeat do
      List.iter
        (fun it ->
          if !failure = None then begin
            let conn = conns.(!idx mod n) in
            incr idx;
            let request_json =
              match it.request with
              | Json.Obj kvs -> Json.Obj (("id", Json.int !idx) :: kvs)
              | j -> j
            in
            let t0 = Unix.gettimeofday () in
            match request conn request_json with
            | Error m -> failure := Some m
            | Ok resp ->
              let client_ms = (Unix.gettimeofday () -. t0) *. 1000. in
              let ok =
                Option.value ~default:false (Json.mem_bool "ok" resp)
              in
              let server_ms =
                Option.value ~default:0.
                  (Option.bind (Json.member "elapsed_ms" resp) Json.to_float)
              in
              timings :=
                { label = it.label; ok; client_ms; server_ms } :: !timings
          end)
        items
    done;
    let wall_s = Unix.gettimeofday () -. t_start in
    (match !failure with
    | Some m -> Error m
    | None ->
      let ts = List.rev !timings in
      Ok (ts, summarise ~wall_s ts))
