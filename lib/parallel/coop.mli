(** Cooperative slices: long jobs that share one domain.

    [cspc serve] runs every request through {!slice}.
    A job pauses only at its {!yield} points (every 16th row of a
    walk, each fuzz case), and only once it has run for {!quantum}
    seconds since it last resumed; the caller then resumes it, or
    another paused job, for one more slice.  Outside a slice, and on
    any other domain, {!yield} costs one [Domain.DLS] read.

    A paused job keeps whatever it holds: a job that needs a mutex a
    paused job holds waits with {!lock}, which pauses on every failed
    attempt.  It does not keep the domain's span depth
    ({!Csp_obs.Obs.span_depth}): a pause restores the depth of the
    caller, and a resume the job's own, so each job's spans record
    the depths they have when it runs alone.  Slices do not nest:
    {!slice} under a slice runs the job to completion. *)

type 'a status =
  | Done of 'a
  | Paused of (unit, 'a status) Effect.Deep.continuation
      (** [Effect.Deep.continue k ()] runs the job for one more slice;
          [Effect.Deep.discontinue k Cancelled] raises at the job's
          pause point, so its [Fun.protect] finalisers run. *)

exception Cancelled
(** What a caller discontinues a job with.  A catch-all in job code
    (an oracle that reports any exception as a failure) must let it
    through.  A job that swallows it anyway pauses again at its next
    {!yield} once a quantum has passed. *)

val quantum : float
(** 0.001: a job runs at least one millisecond per slice. *)

val slice : (unit -> 'a) -> 'a status
(** [slice f] runs [f] until it returns or pauses.  An exception from
    [f] propagates. *)

val yield : unit -> unit
(** Pause the running job if it runs under {!slice} and has used a
    quantum since it last resumed; otherwise return at once. *)

val lock : Mutex.t -> unit
(** [Mutex.lock], except under {!slice}: there a failed [try_lock]
    pauses the job, quantum or not, and retries when it resumes. *)
