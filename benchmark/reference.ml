(* The host-speed reference.

   The machines this benchmark runs on are shared: for tens of seconds
   at a time every process on them runs up to 1.7x slower, longer than
   a whole run, so even the best of many repetitions within a run
   moves by 15% between runs.  Each run therefore also times this
   fixed kernel — a miniature explicit-state exploration (hash table
   of visited states, successor lists, a formatted edge list), the
   same kind of work as the verifier's, but frozen here so that no
   change to the verifier moves it — and scales its timings by
   [nominal_ms / best kernel time].  A gated timing is thus the
   verifier's time on a host where the kernel takes [nominal_ms]. *)

let kernel () =
  let n = 5 in
  let visited = Hashtbl.create 2048 in
  let queue = Queue.create () in
  let start = Array.make n 0 in
  Hashtbl.add visited start 0;
  Queue.push start queue;
  let buf = Buffer.create 65536 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let id = Hashtbl.find visited s in
    List.iter
      (fun t ->
        let target =
          match Hashtbl.find_opt visited t with
          | Some k -> k
          | None ->
            let k = Hashtbl.length visited in
            Hashtbl.add visited t k;
            Queue.push t queue;
            k
        in
        Buffer.add_string buf (Printf.sprintf "s%d -> s%d;\n" id target))
      (List.init n (fun i ->
           let t = Array.copy s in
           t.(i) <- (t.(i) + 1) mod 4;
           t))
  done;
  ignore (Sys.opaque_identity (Digest.string (Buffer.contents buf)))

(* The kernel's best time on an uncontended host when the benchmark
   was calibrated; only the scale of the gated timings depends on it. *)
let nominal_ms = 2.25

type t = { mutable samples : (float * float) list  (** (clock, ms) *) }

let create () = { samples = [] }

let sample r =
  let t0 = Bench_common.Child.now () in
  kernel ();
  let t1 = Bench_common.Child.now () in
  r.samples <- (t0, (t1 -. t0) *. 1000.) :: r.samples

let factor_of = function
  | [] -> 1.
  | times -> nominal_ms /. List.fold_left Float.min infinity times

(* Multiply a duration measured during the run by this. *)
let factor r = factor_of (List.map snd r.samples)
