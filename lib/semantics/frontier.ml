(* Speculative derivation service for work-stealing exploration.

   The per-state transition relation is a pure function of the interned
   state and the configuration (samplers are pure), so its results may
   be computed in ANY order by ANY domain without affecting what the
   coordinator will see — only when.  A frontier session exploits this:
   pool workers race ahead of the coordinator over the state graph,
   claiming states from work-stealing deques, deriving their transition
   lists through domain-local {!Step.view}s, and publishing the results
   in a sharded derived-map.  The coordinator — {!Compiled}'s
   exploration walk, appending rows — consumes published results where
   speculation got there first and derives inline where it did not, so
   state numbering, transition order and truncation are byte-identical
   to the sequential exploration by construction, at any domain count.

   Shared [Step] caches are frozen for the whole session: every domain
   (the coordinator included) derives through its own view, and all
   views are folded back into the shared caches at {!stop}, when every
   worker is quiescent. *)

module Proc = Csp_lang.Proc
module Pool = Csp_parallel.Pool
module Obs = Csp_obs.Obs

(* Speculation effectiveness: a hit is a coordinator [get] answered
   from the derived-map, a miss is derived inline. *)
let spec_hits = Obs.Counter.make "frontier.hits"
let spec_misses = Obs.Counter.make "frontier.misses"

type derived = (Csp_trace.Event.t * Step.visibility * Proc.t) list

(* Claim/derived maps are sharded by node id so workers and the
   coordinator contend per shard; critical sections are single hash
   operations. *)
let n_shards = 64
let shard_mask = n_shards - 1

type shard = {
  lock : Mutex.t;
  claimed : (int, unit) Hashtbl.t;  (* node id → derivation owned *)
  derived : derived Step.Trans_tbl.t;  (* node id → transitions *)
}

type session = {
  shards : shard array;
  views : Step.view array;  (* per worker; index [n-1] is the coordinator *)
  steal : Proc.t Pool.stealing;
  cap : int;  (* soft bound on claims: speculation past it is cut off *)
  claims : int Atomic.t;
}

let[@inline] shard_of s id = s.shards.(id land shard_mask)

let[@inline] with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

(* Claim a node for derivation.  Returns [true] if the caller now owns
   it.  The soft cap stops speculation from outrunning a bounded
   exploration into parts of the graph the coordinator will never
   visit. *)
let try_claim s id =
  Atomic.get s.claims < s.cap
  &&
  let sh = shard_of s id in
  with_lock sh.lock (fun () ->
      if Hashtbl.mem sh.claimed id then false
      else begin
        Hashtbl.add sh.claimed id ();
        Atomic.incr s.claims;
        true
      end)

let publish s id ts =
  let sh = shard_of s id in
  with_lock sh.lock (fun () -> Step.Trans_tbl.replace sh.derived id ts)

let find_derived s id =
  let sh = shard_of s id in
  with_lock sh.lock (fun () -> Step.Trans_tbl.find_opt sh.derived id)

let seen s id =
  let sh = shard_of s id in
  with_lock sh.lock (fun () -> Hashtbl.mem sh.claimed id)

(* The worker function: claim, derive through the worker's own view,
   publish, speculate on unclaimed successors. *)
let worker_step s ~worker ~push (p : Proc.t) =
  let id = Proc.id p in
  if try_claim s id then begin
    let ts = Step.transitions_view s.views.(worker) p in
    publish s id ts;
    List.iter (fun (_, _, q) -> if not (seen s (Proc.id q)) then push q) ts
  end

let start ~pool ?(cap = max_int) cfg =
  let n = Pool.domains pool in
  (* the session record and the stealing session reference each other;
     tie the knot through a ref the worker closure reads *)
  let s_ref = ref None in
  let steal =
    Pool.stealing_start pool (fun ~worker ~push p ->
        match !s_ref with
        | Some s -> worker_step s ~worker ~push p
        | None -> ())
  in
  let s =
    {
      shards =
        Array.init n_shards (fun _ ->
            {
              lock = Mutex.create ();
              claimed = Hashtbl.create 64;
              derived = Step.Trans_tbl.create 64;
            });
      views = Array.init n (fun _ -> Step.view cfg);
      steal;
      cap;
      claims = Atomic.make 0;
    }
  in
  s_ref := Some s;
  s

(* Coordinator-side derivation.  On a speculation miss the coordinator
   derives inline through its own view, marks the node claimed (so
   workers stop wasting time on it) and seeds speculation with the
   successors — the first [get] of a session starts the workers this
   way, and without the re-seeding one miss would starve them of the
   whole subtree below it. *)
let get s (p : Proc.t) =
  let id = Proc.id p in
  match find_derived s id with
  | Some ts ->
    Obs.Counter.incr spec_hits;
    ts
  | None ->
    Obs.Counter.incr spec_misses;
    let sh = shard_of s id in
    with_lock sh.lock (fun () ->
        if not (Hashtbl.mem sh.claimed id) then Hashtbl.add sh.claimed id ());
    let ts = Step.transitions_view s.views.(Array.length s.views - 1) p in
    List.iter
      (fun (_, _, q) ->
        if not (seen s (Proc.id q)) then Pool.stealing_push s.steal q)
      ts;
    ts

let stop s =
  Pool.stealing_stop s.steal;
  (* every driver has left its loop: folding the views back into the
     shared config caches is safe, and later phases (or sequential
     queries) reuse everything speculation derived *)
  Array.iter Step.merge_view s.views
