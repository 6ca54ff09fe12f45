(** Per-run statistics collected by the runner. *)

type t = {
  steps : int;              (** communications performed *)
  visible : int;
  hidden : int;
  per_channel : (Csp_trace.Channel.t * int) list;
      (** communication counts, sorted by channel *)
}

val empty : t
val observe : t -> Csp_trace.Event.t -> Csp_semantics.Step.visibility -> t

val observe_n :
  t -> Csp_trace.Event.t -> Csp_semantics.Step.visibility -> int -> t
(** [observe_n t e vis k] is [observe] applied [k] times. *)

val count : t -> Csp_trace.Channel.t -> int
val pp : Format.formatter -> t -> unit
