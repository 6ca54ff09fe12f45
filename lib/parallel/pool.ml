(* Fixed-size domain pool: n workers = (n-1) spawned domains + the
   submitting domain.  A batch is an array of tasks claimed through an
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

(* Contended acquisitions of a pool mutex, probed with [try_lock] so
   the uncontended path pays one extra branch.  A worker parked on the
   condition variable does not count — only acquisitions that actually
   found the mutex held. *)
let lock_waits = Atomic.make 0

(* Work-stealing counters (see the [Deque] module and stealing
   sessions below). *)
let steals_done = Atomic.make 0
let tasks_stolen = Atomic.make 0
let stealing_tasks_run = Atomic.make 0

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
  steals : int;
  stolen : int;
  stealing_tasks : int;
}

let stats () =
  {
    pools = Atomic.get pools_created;
    workers = Atomic.get workers_spawned;
    batches = Atomic.get batches_run;
    tasks = Atomic.get tasks_run;
    caller_tasks = Atomic.get caller_tasks_run;
    lock_waits = Atomic.get lock_waits;
    steals = Atomic.get steals_done;
    stolen = Atomic.get tasks_stolen;
    stealing_tasks = Atomic.get stealing_tasks_run;
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
        ("steals", Obs.Int s.steals);
        ("stolen", Obs.Int s.stolen);
        ("stealing_tasks", Obs.Int s.stealing_tasks);
      ])

(* ---- parallel-phase hooks -------------------------------------------- *)

(* Subsystems with domain-local cache overlays (e.g. the closure
   kernel's memo arenas) register an [enter]/[exit] pair here.  The
   pool brackets every multi-domain fork-join batch with them: [enter]
   runs on the submitting domain before any worker touches a task,
   [exit] after every worker is quiescent again.  Single-domain pools
   and single-task batches run no hooks (there is no concurrency to
   protect against).  Work-stealing sessions open no phase: a session
   may stay open for a server's whole life, and a phase that never
   closes would never flush what it memoised; code running inside a
   session takes the overlays' shared, locked path instead. *)
let phase_hooks : ((unit -> unit) * (unit -> unit)) list ref = ref []
let phase_hooks_lock = Mutex.create ()

let register_phase_hooks ~enter ~exit =
  lock_mutex phase_hooks_lock;
  phase_hooks := (enter, exit) :: !phase_hooks;
  Mutex.unlock phase_hooks_lock

let enter_phase () = List.iter (fun (enter, _) -> enter ()) !phase_hooks
let exit_phase () = List.iter (fun (_, exit) -> exit ()) !phase_hooks

(* ---- work-stealing deques -------------------------------------------- *)

(* Per-worker double-ended queues in the Chase–Lev layout: the owner
   pushes and pops at the bottom (newest first), thieves take from the
   top (oldest first) — and take *half* the deque per steal, so a
   freshly-stolen-from deque does not immediately need stealing from
   again.  Structural operations are guarded by a per-deque mutex
   rather than the full lock-free protocol: contention is per deque
   (an owner only ever meets a thief that chose it), and an atomic
   size mirror lets thieves scan for victims without touching any
   lock.  Steals drain into a plain list while holding only the
   victim's lock, so no operation ever holds two deque locks — two
   thieves stealing from each other's deques cannot deadlock. *)
module Deque = struct
  type 'a t = {
    d_lock : Mutex.t;
    mutable buf : 'a option array;  (* circular; length is a power of 2 *)
    mutable head : int;  (* steal end: first occupied slot *)
    mutable tail : int;  (* owner end: one past the last occupied slot *)
    d_size : int Atomic.t;  (* published mirror of [tail - head] *)
  }

  let create () =
    {
      d_lock = Mutex.create ();
      buf = Array.make 32 None;
      head = 0;
      tail = 0;
      d_size = Atomic.make 0;
    }

  let size d = Atomic.get d.d_size

  let[@inline] locked d f =
    lock_mutex d.d_lock;
    match f () with
    | v ->
      Mutex.unlock d.d_lock;
      v
    | exception e ->
      Mutex.unlock d.d_lock;
      raise e

  let grow d =
    let cap = Array.length d.buf in
    let buf' = Array.make (2 * cap) None in
    for i = 0 to d.tail - d.head - 1 do
      buf'.(i) <- d.buf.((d.head + i) land (cap - 1))
    done;
    d.tail <- d.tail - d.head;
    d.head <- 0;
    d.buf <- buf'

  let push d x =
    locked d (fun () ->
        let cap = Array.length d.buf in
        if d.tail - d.head = cap then grow d;
        d.buf.(d.tail land (Array.length d.buf - 1)) <- Some x;
        d.tail <- d.tail + 1;
        Atomic.incr d.d_size)

  let pop d =
    if size d = 0 then None
    else
      locked d (fun () ->
          if d.tail = d.head then None
          else begin
            let i = (d.tail - 1) land (Array.length d.buf - 1) in
            let x = d.buf.(i) in
            d.buf.(i) <- None;
            d.tail <- d.tail - 1;
            Atomic.decr d.d_size;
            x
          end)

  (* Take the oldest ⌈size/2⌉ entries, oldest first.  Only [from]'s
     lock is held; the caller pushes the result into its own deque (or
     processes it directly). *)
  let steal_half from =
    if size from = 0 then []
    else
      locked from (fun () ->
          let n = from.tail - from.head in
          if n = 0 then []
          else begin
            let take = (n + 1) / 2 in
            let mask = Array.length from.buf - 1 in
            let out = ref [] in
            for i = take - 1 downto 0 do
              let j = (from.head + i) land mask in
              (match from.buf.(j) with
              | Some x -> out := x :: !out
              | None -> assert false);
              from.buf.(j) <- None
            done;
            from.head <- from.head + take;
            ignore (Atomic.fetch_and_add from.d_size (-take));
            Atomic.incr steals_done;
            ignore (Atomic.fetch_and_add tasks_stolen take);
            !out
          end)
end

type batch = {
  tasks : (int -> unit) array;
      (* each task writes its own result slot; the int is the index *)
  cursor : int Atomic.t;     (* next unclaimed task *)
  completed : int Atomic.t;  (* tasks finished, across all workers *)
}

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
let drain t ~as_caller (b : batch) =
  let len = Array.length b.tasks in
  let rec loop () =
    let i = Atomic.fetch_and_add b.cursor 1 in
    if i < len then begin
      b.tasks.(i) i;
      Atomic.incr tasks_run;
      if as_caller then Atomic.incr caller_tasks_run;
      if Atomic.fetch_and_add b.completed 1 + 1 = len then begin
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
let exec_batch t ntasks (task : int -> unit) =
  if ntasks > 0 then begin
    Atomic.incr batches_run;
    let failures : exn option array = Array.make ntasks None in
    let guarded i =
      try task i with e -> failures.(i) <- Some e
    in
    Obs.span ~cat:"pool" "batch"
      ~args:(fun () ->
        [ ("tasks", Obs.Int ntasks); ("domains", Obs.Int t.n) ])
      (fun () ->
        if t.n = 1 || ntasks = 1 then
          for i = 0 to ntasks - 1 do
            guarded i;
            Atomic.incr tasks_run;
            Atomic.incr caller_tasks_run
          done
        else begin
          enter_phase ();
          Fun.protect ~finally:exit_phase @@ fun () ->
          let b =
            {
              tasks = Array.make ntasks guarded;
              cursor = Atomic.make 0;
              completed = Atomic.make 0;
            }
          in
          lock_mutex t.mutex;
          if t.stop then begin
            Mutex.unlock t.mutex;
            invalid_arg "Pool: batch submitted after shutdown"
          end;
          t.current <- Some b;
          t.generation <- t.generation + 1;
          Condition.broadcast t.wake;
          Mutex.unlock t.mutex;
          drain t ~as_caller:true b;
          (* the submitting domain ran out of claimable tasks; wait for
             stragglers on other domains to finish theirs *)
          Obs.span ~cat:"pool" "join-wait" (fun () ->
              lock_mutex t.mutex;
              while Atomic.get b.completed < ntasks do
                Condition.wait t.join t.mutex
              done;
              t.current <- None;
              Mutex.unlock t.mutex)
        end);
    Array.iter (function Some e -> raise e | None -> ()) failures
  end

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    exec_batch t n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some y -> y | None -> assert false) out
  end

(* ---- asynchronous batches (internal) --------------------------------- *)

(* Like the multi-domain branch of [exec_batch], but the submitting
   domain does not drain: tasks run only on spawned workers, leaving
   the caller free to coordinate concurrently.  The stealing sessions
   below use this to run one long-lived driver loop per spawned
   worker.  Requires [t.n > 1] and an otherwise idle pool; the batch
   must be awaited before the pool is used again. *)
type async = { a_batch : batch; a_failures : exn option array }

let submit_async t ntasks (task : int -> unit) =
  Atomic.incr batches_run;
  let failures : exn option array = Array.make ntasks None in
  let guarded i = try task i with e -> failures.(i) <- Some e in
  let b =
    {
      tasks = Array.init ntasks (fun _ -> guarded);
      cursor = Atomic.make 0;
      completed = Atomic.make 0;
    }
  in
  lock_mutex t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: batch submitted after shutdown"
  end;
  t.current <- Some b;
  t.generation <- t.generation + 1;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  { a_batch = b; a_failures = failures }

let await_async t a =
  let ntasks = Array.length a.a_batch.tasks in
  Obs.span ~cat:"pool" "join-wait" (fun () ->
      lock_mutex t.mutex;
      while Atomic.get a.a_batch.completed < ntasks do
        Condition.wait t.join t.mutex
      done;
      t.current <- None;
      Mutex.unlock t.mutex);
  a.a_failures

(* ---- work-stealing sessions ------------------------------------------ *)

(* A stealing session turns the pool's spawned workers into a
   speculative frontier scheduler: every worker owns a deque, processes
   its own newest item first, steals half of the nearest non-empty
   neighbour when it runs dry, and parks on a condition variable when
   the whole session looks empty.  The caller owns deque [n - 1]: it
   seeds work with [stealing_push] (round-robin so the first steal is
   never needed) and coordinates concurrently; termination is external
   — the caller decides it has what it needs and calls
   [stealing_stop].

   Exceptions raised by the worker function are swallowed: the
   coordinator re-derives deterministically and hits the same
   exception on the states that matter, and speculation past a
   truncation bound may legitimately fail where the coordinator never
   goes.

   Idle protocol (lost-wakeup-free): a pusher bumps the [activity]
   counter after publishing and broadcasts iff a waiter is registered;
   a worker snapshots [activity] before its scan and only parks while
   the snapshot is still current.  Both counters are seq-cst atomics,
   so either the pusher sees the waiter or the waiter sees the new
   activity value. *)
type 'a stealing = {
  st_pool : t;
  deques : 'a Deque.t array;  (* length n; index [n - 1] is the caller's *)
  st_f : worker:int -> push:('a -> unit) -> 'a -> unit;
  st_stop : bool Atomic.t;
  activity : int Atomic.t;  (* bumped per push; versions idle parking *)
  st_waiters : int Atomic.t;
  st_mutex : Mutex.t;
  st_wake : Condition.t;
  mutable st_async : async option;
  mutable rr : int;  (* caller's round-robin seed target *)
  mutable closed : bool;
}

let st_signal s =
  if Atomic.get s.st_waiters > 0 then begin
    lock_mutex s.st_mutex;
    Condition.broadcast s.st_wake;
    Mutex.unlock s.st_mutex
  end

let st_request_stop s =
  Atomic.set s.st_stop true;
  lock_mutex s.st_mutex;
  Condition.broadcast s.st_wake;
  Mutex.unlock s.st_mutex

let st_push s ~worker x =
  Deque.push s.deques.(worker) x;
  Atomic.incr s.activity;
  st_signal s

(* The driver loop: runs on every spawned worker for the session's
   lifetime. *)
let st_drive s ~worker =
  let my = s.deques.(worker) in
  let n = Array.length s.deques in
  let push x = st_push s ~worker x in
  let process x =
    (try s.st_f ~worker ~push x with _ -> ());
    Atomic.incr stealing_tasks_run
  in
  let try_steal () =
    let rec scan k =
      if k >= n then false
      else
        match Deque.steal_half s.deques.((worker + k) mod n) with
        | [] -> scan (k + 1)
        | xs ->
          (* plain [Deque.push]: the items are owned by this (awake)
             worker, so no activity bump or wakeup is needed *)
          List.iter (Deque.push my) xs;
          true
    in
    n > 1 && scan 1
  in
  let rec loop () =
    if not (Atomic.get s.st_stop) then begin
      let a0 = Atomic.get s.activity in
      match Deque.pop my with
      | Some x ->
        process x;
        loop ()
      | None ->
        if try_steal () then loop ()
        else begin
          lock_mutex s.st_mutex;
          Atomic.incr s.st_waiters;
          while
            (not (Atomic.get s.st_stop)) && Atomic.get s.activity = a0
          do
            Condition.wait s.st_wake s.st_mutex
          done;
          Atomic.decr s.st_waiters;
          Mutex.unlock s.st_mutex;
          loop ()
        end
    end
  in
  Obs.span ~cat:"pool" "steal-drive" (fun () -> loop ())

let stealing_start t f =
  let s =
    {
      st_pool = t;
      deques = Array.init t.n (fun _ -> Deque.create ());
      st_f = f;
      st_stop = Atomic.make false;
      activity = Atomic.make 0;
      st_waiters = Atomic.make 0;
      st_mutex = Mutex.create ();
      st_wake = Condition.create ();
      st_async = None;
      rr = 0;
      closed = false;
    }
  in
  if t.n > 1 then
    s.st_async <- Some (submit_async t (t.n - 1) (fun i -> st_drive s ~worker:i));
  s

let stealing_push s x =
  let w = s.rr in
  s.rr <- (w + 1) mod Array.length s.deques;
  st_push s ~worker:w x

let stealing_stop s =
  if not s.closed then begin
    s.closed <- true;
    st_request_stop s;
    (match s.st_async with
    | None -> ()
    | Some a ->
      (* driver-machinery failures only: the worker function's own
         exceptions are swallowed above *)
      Array.iter
        (function Some e -> raise e | None -> ())
        (await_async s.st_pool a))
  end
