(** Communication events.

    An event is a pair [c.m] of a channel name and a message value — the
    paper does not distinguish the direction of communication, so
    transmission and receipt on a channel are the same event. *)

type t = { chan : Channel.t; value : Value.t }

val make : Channel.t -> Value.t -> t
val v : string -> Value.t -> t
(** [v name m] is the event [name.m] on the unsubscripted channel [name]. *)

val vi : string -> int -> t
(** [vi name n] is the event [name.n] with integer message [n]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with {!equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by events, under {!equal} and {!hash}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
