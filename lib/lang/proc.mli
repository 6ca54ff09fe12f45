(** Hash-consed process IR — the process-side analogue of the closure
    kernel's unique table.

    Interning canonicalises {!Process.equal}: two process terms intern
    to the same (physically equal) node exactly when they are equal, so
    {!equal} is pointer comparison and {!hash}/{!id} are precomputed
    field reads.  Semantic pipelines key their state tables on {!id}
    instead of rehashing deep terms, and rebuild successor states with
    the smart constructors, which intern in O(1) given interned
    children.

    Node ids are allocated monotonically and never reused.  The unique
    table ({!Hashcons}) keeps every node it interns, so ids are stable
    for the life of the process: re-interning a term, however long
    after, yields the same node and id.

    [Par] and [Hide] nodes carry interned alphabets ({!Alphabet}):
    rebuilding a network state hashes and compares its alphabets in
    O(1), and channel membership is a lookup, not a list scan. *)

(** Interned channel sets — the alphabets of [Par] and [Hide] nodes. *)
module Alphabet : sig
  type t

  val make : Chan_set.t -> t
  (** The interned alphabet of a channel set: [make a == make b] iff
      [Chan_set.equal a b].  Builds the membership index on first
      interning. *)

  val set : t -> Chan_set.t
  val id : t -> int
  (** Unique, never reused; distinct alphabets have distinct ids. *)

  val hash : t -> int
  (** [Chan_set.hash] of {!set}, precomputed. *)

  val mem : t -> Csp_trace.Channel.t -> bool
  (** [mem a c = Chan_set.mem (set a) c]: an index by base name, built
      once per alphabet, answers it without evaluating subscripts. *)

  val subst_value : string -> Csp_trace.Value.t -> t -> t
  (** [make (Chan_set.subst_value x v (set a))], and [a] itself when
      [x] is not free in it. *)
end

type t
(** An interned process node.  Abstract: obtain one via {!intern} or
    the smart constructors, never by direct construction. *)

type node =
  | Stop
  | Output of Chan_expr.t * Expr.t * t
  | Input of Chan_expr.t * string * Vset.t * t
  | Choice of t * t
  | Par of Alphabet.t * Alphabet.t * t * t
  | Hide of Alphabet.t * t
  | Ref of string * Expr.t option
      (** One-level view: constructors mirror {!Process.t} with interned
          children and alphabets. *)

val node : t -> node
(** One-level pattern-matching view of the node. *)

val id : t -> int
(** Unique id, O(1).  Distinct nodes have distinct ids. *)

val hash : t -> int
(** Precomputed structural hash, O(1); equal nodes hash equally. *)

val equal : t -> t -> bool
(** Pointer equality — sound and complete for structural equality
    thanks to interning. *)

val compare : t -> t -> int
(** Total order by {!id} (arbitrary but fixed for the life of the
    process). *)

val intern : Process.t -> t
(** Bottom-up interning of a plain AST.  [intern p == intern q] iff
    [Process.equal p q]. *)

val to_process : t -> Process.t
(** The plain-AST view, O(1): every node carries its [Process.t]
    representation, built incrementally with maximal sharing. *)

(** {1 Smart constructors} — intern in O(1) given interned children. *)

val stop : t
val output : Chan_expr.t -> Expr.t -> t -> t
val input : Chan_expr.t -> string -> Vset.t -> t -> t
val choice : t -> t -> t
val par : Alphabet.t -> Alphabet.t -> t -> t -> t
val hide : Alphabet.t -> t -> t
val ref_ : string -> Expr.t option -> t

val subst_value : string -> Csp_trace.Value.t -> t -> t
(** Substitution of a value for a free variable, mirroring
    {!Process.subst_value}: [Input] rebinding stops the descent. *)

type stats = {
  nodes : int;
  hits : int;
  misses : int;
  lock_waits : int;
      (** contended shard-lock acquisitions (several domains only) *)
}

val stats : unit -> stats
(** Interning statistics since program start: nodes created, unique-
    table hits/misses and lock contention.  No table is scanned, so a
    snapshot stays cheap as the table grows. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
