(* Fixed-size domain pool: n workers = (n-1) spawned domains + the
   submitting domain.  A batch is a task count claimed through an
   atomic cursor; the submitting domain publishes the batch under the
   pool mutex (bumping a generation counter so sleeping workers can
   tell a new batch from a spurious wakeup), helps drain it, and then
   blocks on the join condition until the completion counter reaches
   the task count.  Workers go back to sleep between batches, so an
   idle pool costs nothing. *)

module Obs = Csp_obs.Obs

(* Global counters, exported through the [pool] snapshot source.
   [Atomic]: tasks complete on arbitrary domains. *)
let pools_created = Atomic.make 0
let workers_spawned = Atomic.make 0
let batches_run = Atomic.make 0
let tasks_run = Atomic.make 0
let caller_tasks_run = Atomic.make 0

(* Contended acquisitions of a pool mutex, probed with
   [try_lock] so the uncontended path pays one extra branch.  A worker
   parked on a condition variable does not count — only acquisitions
   that actually found the mutex held. *)
let lock_waits = Atomic.make 0

let lock_mutex m =
  if not (Mutex.try_lock m) then begin
    Atomic.incr lock_waits;
    Mutex.lock m
  end

type stats = {
  pools : int;
  workers : int;
  batches : int;
  tasks : int;
  caller_tasks : int;
  lock_waits : int;
}

let stats () =
  {
    pools = Atomic.get pools_created;
    workers = Atomic.get workers_spawned;
    batches = Atomic.get batches_run;
    tasks = Atomic.get tasks_run;
    caller_tasks = Atomic.get caller_tasks_run;
    lock_waits = Atomic.get lock_waits;
  }

(* Telemetry: the registry snapshot exposes the same counters, so
   `--stats-json` sees the pool. *)
let () =
  Obs.register_source "pool" (fun () ->
      let s = stats () in
      [
        ("pools", Obs.Int s.pools);
        ("workers", Obs.Int s.workers);
        ("batches", Obs.Int s.batches);
        ("tasks", Obs.Int s.tasks);
        ("caller_tasks", Obs.Int s.caller_tasks);
        ("lock_waits", Obs.Int s.lock_waits);
      ])

type batch = {
  ntasks : int;
  task : int -> unit;  (* records its exception in [failures.(i)] *)
  failures : exn option array;
  cursor : int Atomic.t;     (* next unclaimed task *)
  completed : int Atomic.t;  (* tasks finished, across all workers *)
}

let make_batch ntasks task =
  Atomic.incr batches_run;
  let failures = Array.make ntasks None in
  {
    ntasks;
    task = (fun i -> try task i with e -> failures.(i) <- Some e);
    failures;
    cursor = Atomic.make 0;
    completed = Atomic.make 0;
  }

(* The lowest-indexed exception, re-raised in the submitting domain. *)
let reraise b = Array.iter (function Some e -> raise e | None -> ()) b.failures

type t = {
  n : int;  (* worker count including the submitting domain *)
  mutex : Mutex.t;
  wake : Condition.t;   (* workers: a new batch (or shutdown) is here *)
  join : Condition.t;   (* submitter: the batch may be complete *)
  mutable current : batch option;
  mutable generation : int;  (* bumped per batch; identifies wakeups *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Drain the batch: claim tasks until the cursor runs off the end.
   The worker that completes the last task signals the join. *)
let drain t ~as_caller b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.cursor 1 in
    if i < b.ntasks then begin
      b.task i;
      Atomic.incr tasks_run;
      if as_caller then Atomic.incr caller_tasks_run;
      if Atomic.fetch_and_add b.completed 1 + 1 = b.ntasks then begin
        lock_mutex t.mutex;
        Condition.broadcast t.join;
        Mutex.unlock t.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker_loop t =
  let rec wait_for_work my_gen =
    lock_mutex t.mutex;
    while (not t.stop) && t.generation = my_gen do
      Condition.wait t.wake t.mutex
    done;
    let gen = t.generation and b = t.current and stop = t.stop in
    Mutex.unlock t.mutex;
    if not stop then begin
      (match b with
      | Some b ->
        (* claim tasks until the batch cursor runs dry; one span per
           batch per worker keeps the trace proportional to barriers,
           not tasks *)
        Obs.span ~cat:"pool" "drain" (fun () -> drain t ~as_caller:false b)
      | None -> ());
      wait_for_work gen
    end
  in
  wait_for_work 0

(* Hand a batch to the spawned workers. *)
let publish t b =
  lock_mutex t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: batch submitted after shutdown"
  end;
  t.current <- Some b;
  t.generation <- t.generation + 1;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex

(* Block until every task of the published batch has finished. *)
let await t b =
  Obs.span ~cat:"pool" "join-wait" (fun () ->
      lock_mutex t.mutex;
      while Atomic.get b.completed < b.ntasks do
        Condition.wait t.join t.mutex
      done;
      t.current <- None;
      Mutex.unlock t.mutex)

let shutdown t =
  lock_mutex t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

let create ~domains =
  let n = max 1 domains in
  let t =
    {
      n;
      mutex = Mutex.create ();
      wake = Condition.create ();
      join = Condition.create ();
      current = None;
      generation = 0;
      stop = false;
      workers = [];
    }
  in
  Atomic.incr pools_created;
  t.workers <- List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  ignore (Atomic.fetch_and_add workers_spawned (n - 1));
  (* Safety net: a pool the program forgot to shut down must not keep
     blocked worker domains alive across process exit. *)
  if n > 1 then at_exit (fun () -> shutdown t);
  t

let domains t = t.n

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Execute [ntasks] tasks, each writing its own slot.  Tasks that raise
   record their exception; the batch always runs to completion (the
   join counter must reach the task count), then the lowest-indexed
   exception is re-raised in the submitting domain. *)
let exec_batch t ntasks task =
  if ntasks > 0 then begin
    let b = make_batch ntasks task in
    Obs.span ~cat:"pool" "batch"
      ~args:(fun () ->
        [ ("tasks", Obs.Int ntasks); ("domains", Obs.Int t.n) ])
      (fun () ->
        if t.n = 1 || ntasks = 1 then
          for i = 0 to ntasks - 1 do
            b.task i;
            Atomic.incr tasks_run;
            Atomic.incr caller_tasks_run
          done
        else begin
          publish t b;
          drain t ~as_caller:true b;
          (* the submitting domain ran out of claimable tasks; wait for
             stragglers on other domains to finish theirs *)
          await t b
        end);
    reraise b
  end

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    exec_batch t n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some y -> y | None -> assert false) out
  end
