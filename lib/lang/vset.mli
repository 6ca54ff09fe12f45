(** Value-set expressions: the paper's message types.

    These are the sets [M] appearing in input prefixes [c?x:M → P], in
    process-array definitions [q[x:M] ≜ Q] and in bounded quantifiers of
    assertions.  [Nat] is infinite; bounded enumeration of infinite sets
    is delegated to samplers (see {!Csp_semantics.Sampler}). *)

type t =
  | Nat                          (** the natural numbers 0, 1, 2, … *)
  | Range of int * int           (** the finite range [{lo..hi}], inclusive *)
  | Enum of Csp_trace.Value.t list  (** an explicit finite set, e.g. [{ACK}] *)
  | Union of t * t
  | Bools

val mem : t -> Csp_trace.Value.t -> bool

val is_finite : t -> bool

val subset : t -> t -> bool
(** [subset a b]: every element of [a] is in [b]. *)

val enumerate : t -> Csp_trace.Value.t list option
(** [enumerate m] lists the elements of [m] (deduplicated) when [m] is
    finite, [None] otherwise. *)

val enumerate_bounded : bound:int -> t -> Csp_trace.Value.t list
(** Like {!enumerate}, but infinite sets contribute their first [bound]
    naturals; always terminates.  This is the default sampler. *)

val signals : string list -> t
(** [signals ["ACK"; "NACK"]] is the enumeration of those symbols. *)

val equal : t -> t -> bool

val hash : t -> int
(** Deep structural hash, consistent with structural equality. *)

val pp : Format.formatter -> t -> unit
