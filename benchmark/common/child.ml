(* Running the shipped binary: one child per call, its stdout captured,
   its wall time and peak resident set measured. *)

external now : unit -> (float[@unboxed]) = "bench_now_byte" "bench_now"
[@@noalloc]
(** Monotonic clock, seconds. *)

external wait4 : int -> int * int = "bench_wait4"

external pin_last_cpu : unit -> int = "bench_pin_last_cpu"
(** Keep this process and its future children on one CPU; the CPU, or
    -1 when affinity cannot be set. *)

type result = {
  exit_code : int;  (** negative: killed by that signal *)
  stdout : string;
  wall_ms : float;  (** spawn to reap *)
  maxrss_kb : int;
}

let read_all fd =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* [stderr] receives the child's standard error (truncated first). *)
let run ~stderr prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile stderr
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null w err)
  in
  let stdout = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let exit_code, maxrss_kb = wait4 pid in
  { exit_code; stdout; wall_ms = (now () -. t0) *. 1000.; maxrss_kb }

let tail_of_file ?(max = 2000) path =
  match Catalogue.read_file path with
  | s when String.length s > max -> String.sub s (String.length s - max) max
  | s -> s
  | exception Sys_error _ -> ""
