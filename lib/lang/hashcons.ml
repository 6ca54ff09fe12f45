(* The unique table behind [Proc] and [Closure].  It keeps every node
   it interns, so ids stay stable for the life of the process.

   16 shards, one mutex each.  A shard is an open-addressing table with
   linear probing: an [int array] of hashes beside a value array whose
   free slots hold [N.sentinel].  Nothing is deleted, so a slot is
   filled at most once.  Lookups probe without the lock: a node is
   published under the lock, hash before value, and [N.equal] has the
   last word, so an unlocked probe returns the canonical node or stops
   at a free (or half-seen) slot and retries under the lock.  A shard
   grows under its lock, before it passes half full, into a copy
   published through an [Atomic.t]; a reader still on the old copy
   sees a frozen table that has free slots.

   The stored hash is [N.hash] times an odd constant.  The shard comes
   from its top bits and the slot from its low bits: taking both from
   the same low bits leaves each shard using 1/16 of its slots. *)

module type NODE = sig
  type key
  type extra
  type t

  val hash : key -> int
  val equal : key -> t -> bool
  val make : hash:int -> key -> extra -> t
  val sentinel : t
end

module Make (N : NODE) = struct
  type table = { hashes : int array; slots : N.t array }
  type shard = { lock : Mutex.t; table : table Atomic.t; mutable count : int }

  let empty_table n =
    { hashes = Array.make n 0; slots = Array.make n N.sentinel }

  let shards =
    Array.init 16 (fun _ ->
        let table = Atomic.make (empty_table 256) in
        { lock = Mutex.create (); table; count = 0 })

  let n_hits = Atomic.make 0
  let n_waits = Atomic.make 0 (* contended acquisitions of a shard lock *)
  let[@inline] slot tb h = h land (Array.length tb.slots - 1)

  (* The node equal to [key], or [N.sentinel] at the first free slot.
     Each slot is read once, so a value seen filled is the one compared. *)
  let rec find tb h key i =
    let v = tb.slots.(i) in
    if v == N.sentinel || (tb.hashes.(i) = h && N.equal key v) then v
    else find tb h key (slot tb (i + 1))

  (* Under the lock: fill the first free slot from [i]. *)
  let rec place tb h v i =
    if tb.slots.(i) != N.sentinel then place tb h v (slot tb (i + 1))
    else begin
      tb.hashes.(i) <- h;
      tb.slots.(i) <- v
    end

  let insert sh hk h key extra =
    let tb = Atomic.get sh.table in
    let v = find tb h key (slot tb h) in
    if v != N.sentinel then begin
      Atomic.incr n_hits;
      v
    end
    else begin
      let tb =
        if 2 * (sh.count + 1) <= Array.length tb.slots then tb
        else begin
          let grown = empty_table (2 * Array.length tb.slots) in
          Array.iteri
            (fun i v ->
              let h = tb.hashes.(i) in
              if v != N.sentinel then place grown h v (slot grown h))
            tb.slots;
          Atomic.set sh.table grown;
          grown
        end
      in
      let v = N.make ~hash:hk key extra in
      place tb h v (slot tb h);
      sh.count <- sh.count + 1;
      v
    end

  let intern key extra =
    let hk = N.hash key in
    let h = (hk * 0x2545F4914F6CDD1D) land max_int in
    let sh = shards.(h lsr 58) (* the top 4 of the 62 bits *) in
    let tb = Atomic.get sh.table in
    let v = find tb h key (slot tb h) in
    if v != N.sentinel then begin
      Atomic.incr n_hits;
      v
    end
    else begin
      if not (Mutex.try_lock sh.lock) then begin
        Atomic.incr n_waits;
        Mutex.lock sh.lock
      end;
      match insert sh hk h key extra with
      | v ->
        Mutex.unlock sh.lock;
        v
      | exception e ->
        Mutex.unlock sh.lock;
        raise e
    end

  let hits () = Atomic.get n_hits
  let lock_waits () = Atomic.get n_waits
end
