(* A [cspc serve] child and its newline-delimited JSON connections,
   spoken from the client side only. *)

module Json = Bench_common.Json
module Child = Bench_common.Child

let now = Child.now

(* Every server still running is killed and reaped at exit, so no
   failure path leaves one behind. *)
let live = ref []

let reap_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter reap_hard !live)

(* ---- connections ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;
  mutable len : int;
  mutable scanned : int;  (* no newline in data[0, scanned) *)
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; data = Bytes.create 65536; len = 0; scanned = 0 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_frame c s = ignore (Unix.write_substring c.fd s 0 (String.length s))
let send c json = send_frame c (Json.to_string json ^ "\n")

let take_line c =
  let rec newline i =
    if i >= c.len then None
    else if Bytes.unsafe_get c.data i = '\n' then Some i
    else newline (i + 1)
  in
  match newline c.scanned with
  | Some i ->
    let line = Bytes.sub_string c.data 0 i in
    let rest = c.len - i - 1 in
    Bytes.blit c.data (i + 1) c.data 0 rest;
    c.len <- rest;
    c.scanned <- 0;
    Some line
  | _ ->
    c.scanned <- c.len;
    None

(* One read into the buffer; [false] at end of stream. *)
let fill c =
  if Bytes.length c.data - c.len < 65536 then begin
    let bigger = Bytes.create (2 * Bytes.length c.data) in
    Bytes.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  match Unix.read c.fd c.data c.len (Bytes.length c.data - c.len) with
  | 0 -> false
  | k ->
    c.len <- c.len + k;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

let rec read_line c =
  match take_line c with
  | Some l -> Some l
  | None -> if fill c then read_line c else None

let reply_of_line line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> failwith ("serve reply is not JSON: " ^ m)

(* Closed-loop round trip: the reply and the client-side milliseconds. *)
let request c json =
  let t0 = now () in
  send c json;
  match read_line c with
  | None -> failwith "serve closed the connection"
  | Some line ->
    let ms = (now () -. t0) *. 1000. in
    (reply_of_line line, ms)

(* ---- the server process ----------------------------------------------------- *)

type t = { pid : int; socket : string }

let start ~cspc ~work ?warm () =
  let socket = Filename.concat work "serve.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let errfile = Filename.concat work "serve.err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile errfile
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let args =
    [ cspc; "serve"; "--socket"; socket ]
    @ match warm with Some f -> [ "--warm"; f ] | None -> []
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process cspc (Array.of_list args) null null err)
  in
  live := pid :: !live;
  let deadline = now () +. 120. in
  let rec wait () =
    match connect socket with
    | Some c -> close c
    | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
      | 0, _ ->
        reap_hard pid;
        live := List.filter (( <> ) pid) !live;
        failwith "cspc serve did not start listening within 120 s"
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith ("cspc serve exited: " ^ Child.tail_of_file errfile))
  in
  wait ();
  { pid; socket }

(* Peak resident set so far, from /proc. *)
let vm_hwm_kb t =
  match Bench_common.Catalogue.read_file (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> 0
  | status ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0

let stop t =
  (match connect t.socket with
  | Some c ->
    (try ignore (request c (Json.Obj [ ("op", Json.Str "shutdown") ]))
     with Failure _ | Unix.Unix_error _ -> ());
    close c
  | None -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ -> reap_hard t.pid
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) t.pid) !live
