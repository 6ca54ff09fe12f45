(** Hash-consing unique tables, the one implementation behind {!Proc}
    and [Csp_semantics.Closure].  A table keeps every node it interns,
    so a node (and any id its [make] stored) is stable for the life of
    the process.  Sharded 16 ways, one mutex per shard: lookups take no
    lock, and only inserting a node locks its shard.  Domain-safe. *)

module type NODE = sig
  type key
  (** What interning compares: a node's shallow contents, children
      already interned. *)

  type extra
  (** Data [make] needs beyond the key; never compared. *)

  type t

  val hash : key -> int
  (** Non-negative; equal keys hash equally. *)

  val equal : key -> t -> bool
  val make : hash:int -> key -> extra -> t
  (** The node of a key not yet interned, given [hash key].  Called
      once per interned node, under its shard's lock. *)

  val sentinel : t
  (** Never returned by [make]; marks free slots. *)
end

module Make (N : NODE) : sig
  val intern : N.key -> N.extra -> N.t
  (** The interned node with this key, or else [make]'s, interned. *)

  val hits : unit -> int
  (** Calls of {!intern} answered by an already interned node. *)

  val lock_waits : unit -> int
  (** Contended shard-lock acquisitions. *)
end
