(* Cooperative slices on one domain.  [slice] runs a job under an
   effect handler; the job's [yield] points perform [Pause] once the
   job has held the domain for a quantum, and the handler hands the
   caller the continuation.  The per-domain state says whether the
   code now running is such a job and when it last resumed, so a
   [yield] outside any slice is one DLS read and one branch. *)

module Obs = Csp_obs.Obs

type _ Effect.t += Pause : unit Effect.t

exception Cancelled

type 'a status =
  | Done of 'a
  | Paused of (unit, 'a status) Effect.Deep.continuation

(* How long a job runs before its next [yield] pauses it. *)
let quantum = 0.001

(* [outer_depth] is the span depth of whoever started or last resumed
   the running job. *)
type state = {
  mutable sliced : bool;
  mutable resumed : float;
  mutable outer_depth : int;
}

let state =
  Domain.DLS.new_key (fun () ->
      { sliced = false; resumed = 0.; outer_depth = 0 })

(* The job re-arms itself when its continuation is resumed, and also
   when it is discontinued: a job that catches the exception keeps
   pausing, so whoever cancels it can discontinue it again.  The
   domain's span depth is the job's while it runs and the caller's
   while it is paused, so a job started meanwhile nests its spans
   from the caller's depth. *)
let pause s =
  s.sliced <- false;
  let depth = Obs.span_depth () in
  Obs.set_span_depth s.outer_depth;
  Fun.protect
    ~finally:(fun () ->
      s.outer_depth <- Obs.span_depth ();
      Obs.set_span_depth depth;
      s.sliced <- true;
      s.resumed <- Unix.gettimeofday ())
    (fun () -> Effect.perform Pause)

let yield () =
  let s = Domain.DLS.get state in
  if s.sliced && Unix.gettimeofday () -. s.resumed >= quantum then pause s

(* A failed [try_lock] pauses whatever the quantum says: the holder is
   a paused job on this domain, and it cannot release the lock until
   the caller's loop resumes it. *)
let rec lock m =
  if not (Mutex.try_lock m) then begin
    let s = Domain.DLS.get state in
    if s.sliced then begin
      pause s;
      lock m
    end
    else Mutex.lock m
  end

let slice f =
  let s = Domain.DLS.get state in
  if s.sliced then Done (f ())
  else begin
    s.sliced <- true;
    s.resumed <- Unix.gettimeofday ();
    s.outer_depth <- Obs.span_depth ();
    let finish () =
      s.sliced <- false;
      Obs.set_span_depth s.outer_depth
    in
    Effect.Deep.match_with f ()
      {
        retc =
          (fun v ->
            finish ();
            Done v);
        exnc =
          (fun e ->
            finish ();
            raise e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Pause ->
              Some (fun (k : (b, _) Effect.Deep.continuation) -> Paused k)
            | _ -> None);
      }
  end
