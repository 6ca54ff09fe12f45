(** Process-wide observability: one registry, one event log, one
    snapshot.

    Three instruments, all safe under OCaml 5 domains:

    - {e metrics} — named {!Counter}s, {!Gauge}s and {!Timer}s backed
      by atomics, registered on first use and enumerated in full by
      {!snapshot}.  Counters and gauges are always live (an increment
      is one atomic RMW); timers only read the clock while telemetry
      is {!enabled}.
    - {e spans} — hierarchical wall-clock intervals recorded into
      per-domain buffers, exportable as a Chrome [trace_event] file
      ({!chrome_trace}, load it in [chrome://tracing] or Perfetto) or
      a flat JSONL event log ({!events_jsonl}).  When telemetry is
      disabled a span is a single atomic load followed by the wrapped
      call: no clock read, no event allocation.
    - {e snapshot sources} — modules that keep their own counters
      (interning tables, memo caches, the domain pool) register a
      thunk with {!register_source}; {!snapshot} folds them in under a
      prefixed key, so one call sees every statistic in the process.

    Telemetry starts disabled; it is switched on by {!set_enabled},
    or at program start by setting [CSP_OBS=1] in the environment.
    Determinism contract: instruments only ever {e observe} — nothing
    in this module feeds time or counter values back into scheduling,
    so user-visible outputs are byte-identical with telemetry on or
    off. *)

type value = Int of int | Float of float | Bool of bool | String of string

val enabled : unit -> bool
(** One atomic load — this is the whole disabled-path cost. *)

val set_enabled : bool -> unit
(** Also set at startup by [CSP_OBS=1] (or [true]/[on]) in the
    environment. *)

val now_ns : unit -> float
(** Wall clock in nanoseconds (from [Unix.gettimeofday]; resolution
    ~1µs).  Used for every span and timer measurement. *)

(** {1 Metrics}

    [make name] registers the metric on first use and returns the
    existing instrument on every later call with the same name —
    metrics are process-global, like the cache counters they sit
    beside.  Every registered metric appears in {!snapshot}. *)

module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val get : t -> float
end

(** Monotonic duration accumulators with a log₂ histogram.  Recording
    is always allowed ({!Timer.observe_ns}); the convenience wrapper
    {!Timer.time} reads the clock only when telemetry is enabled and
    otherwise just runs the thunk. *)
module Timer : sig
  type t

  val make : string -> t

  val time : t -> (unit -> 'a) -> 'a
  (** [time t f] runs [f], recording its wall-clock duration when
      telemetry is enabled; when disabled it is [f ()] after one
      atomic load. *)

  val observe_ns : t -> float -> unit
  val count : t -> int
  val total_ns : t -> float
  val max_ns : t -> float

  val buckets : t -> int array
  (** Occupancy of the log₂(ns) histogram: slot [i] counts durations
      in [[2{^i}, 2{^i+1}) ns]. *)
end

(** {1 Spans} *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["explore"], ["step"], ["pool"] *)
  ts_ns : float;  (** start, relative to process telemetry start *)
  dur_ns : float;
  tid : int;  (** domain id that ran the span *)
  depth : int;  (** nesting depth within its domain at start *)
  args : (string * value) list;
}

val span : ?cat:string -> ?args:(unit -> (string * value) list) -> string -> (unit -> 'a) -> 'a
(** [span ~cat ~args name f] runs [f] inside a named interval.  The
    event (a Chrome complete event) is recorded when [f] returns or
    raises; [args] is a thunk so argument lists are only built when
    telemetry is enabled.  Spans nest per domain: concurrent spans on
    other domains land in their own buffers. *)

val span_depth : unit -> int
(** The calling domain's span nesting depth: the [depth] a span
    started now would record. *)

val set_span_depth : int -> unit
(** Set the calling domain's depth, for code that switches between
    jobs on one domain ([Csp_parallel.Coop]): each job's spans then
    nest from its own depth, not from the depth another job paused
    at. *)

val events : unit -> event list
(** Every recorded event, across all domains, sorted by start time
    (ties by domain then name).  Call while the process is quiescent
    (between parallel phases); per-domain buffers are not locked. *)

val event_count : unit -> int
val clear_events : unit -> unit

val dropped_events : Counter.t
(** Events discarded after a per-domain buffer reached its cap
    (1,000,000 events); exported as [obs.dropped_events]. *)

(** {1 Snapshot} *)

val register_source : string -> (unit -> (string * value) list) -> unit
(** [register_source prefix f] adds an external statistics source:
    {!snapshot} appends [f ()] with every key prefixed by
    [prefix ^ "."].  Registering the same prefix again replaces the
    source (idempotent at module-initialisation time). *)

val snapshot : unit -> (string * value) list
(** Every registered metric (counters and gauges under their own
    name; timers as [.count], [.total_ms], [.mean_ms], [.max_ms])
    followed by every registered source, merged and sorted by key. *)

val delta_snapshot : (unit -> 'a) -> 'a * (string * int) list
(** [delta_snapshot f] runs [f] and diffs the integer counters of
    {!snapshot} around it, returning [f]'s result and every counter
    that increased, as [(key, delta)] pairs in snapshot (key) order.
    Serialised by a mutex so concurrent probes cannot attribute one
    job's counter movement to another — this is how the coverage map
    and the [cspc serve] per-request statistics isolate one job's
    telemetry without {!reset}.  Probes nest on one domain: an inner
    probe's deltas are also counted by the outer one.  Counters are live even while
    telemetry is disabled, so the deltas do not require
    {!set_enabled}. *)

val timer_buckets : unit -> (string * int array) list
(** The log₂(ns) histogram of every registered timer, sorted by name.
    Not folded into {!snapshot} (48 buckets per timer would swamp the
    key space); the coverage map reads occupancy from here and treats
    each occupied slot as one feature. *)

val reset : unit -> unit
(** Zero every registered counter, gauge and timer.  External sources
    and the event log are untouched (see {!clear_events}). *)

val pp_snapshot : Format.formatter -> unit -> unit
(** One [key = value] line per snapshot entry — the [--stats]
    rendering. *)

(** {1 Machine-readable exports} *)

val string_of_value : value -> string
(** The value as a JSON literal. *)

val snapshot_json : unit -> string
(** The snapshot as one compact JSON object ([--stats-json]). *)

val chrome_trace : unit -> string
(** The event log in Chrome [trace_event] format: an object whose
    ["traceEvents"] array holds one ["ph":"X"] complete event per
    span, with microsecond [ts]/[dur], [pid] 1 and [tid] the domain
    id ([--trace-out]). *)

val events_jsonl : unit -> string
(** The event log flattened to one JSON object per line, durations in
    nanoseconds. *)
