(** The one implementation of [cspc]'s parse/graph/refine/prove/fuzz
    subcommands.

    The one-shot CLI builds a cold {!ctx} per invocation and prints
    {!outcome.output}; [cspc serve] keeps one warm ctx per source —
    so the two surfaces print the same bytes by construction, which
    the differential suite in [test_server.ml] re-checks against the
    real binary.  The difference is purely economic: a served ctx
    survives across requests, so the parsed file, the per-[nat_bound]
    engines (with their interned IR, step/denote memos and compiled
    automata) and the proved sequents are paid for once and reused by
    every later job on the same source.

    A [ctx] additionally records what would be needed to rebuild its
    warm state — the compile calls it has issued and the certificates
    of the sequents it has proved — which is exactly what
    {!Csp_persist.Snapshot} persists. *)

open Csp

type ctx = {
  digest : string;  (** MD5 of the source text — the cache key *)
  source : string;
  file : Csp_syntax.Parser.file;
  engines : (int, Engine.t) Hashtbl.t;  (** keyed by [nat_bound] *)
  mutable compiled_roots : Csp_persist.Snapshot.compiled_root list;
      (** compile calls issued so far, newest first, deduplicated *)
  mutable proofs : (string * (Sequent.judgment * Proof.t)) list;
      (** proved sequents, keyed by {!Sequent.judgment_to_string} *)
  lock : Mutex.t;
      (** held for the duration of any job on this context: the
          engine caches are single-writer *)
}

val ctx_of_source : string -> (ctx, string) result
(** Parse and cache-key a source; [Error] is the parser's message. *)

val engine : ctx -> nat_bound:int -> Engine.t
(** The shared engine of this context for the given sampler bound,
    created on first use. *)

val find_process : ctx -> string -> (Process.t, string) result
(** A reference to a defined process; [Error] names an undefined one,
    or a process array named without a subscript.  The CLI dies with
    that message (exit 1), and [cspc serve] answers [bad-request]. *)

val unguarded : string -> string
(** The error a job answers when a definition is unguarded
    ({!Step.Unproductive}): it names the process whose unfolding ran
    out of fuel.  [graph] and [refine] return it as their [Error]; the
    CLI's other subcommands print it too.  An unguarded definition is
    bad input, so [cspc] exits 1 and [cspc serve] answers
    [bad-request]. *)

val tables_of : Csp_syntax.Parser.file -> Tactic.tables
(** The file's assertion declarations as the tactic's invariant
    tables. *)

type outcome = { output : string; exit_code : int }
(** Exactly the stdout text and exit status of the one-shot CLI. *)

val parse : ctx -> outcome

val graph :
  ctx ->
  process:string ->
  max_states:int ->
  nat_bound:int ->
  compiled:bool ->
  (outcome, string) result
(** One status line ({!status_line}), then the DOT text.  [Error]
    when [process] is not defined, is a process array or is unguarded
    (the CLI dies with the same message on stderr).  The CLI and the
    server pass [compiled:true]: the exploration reads the engine's
    cached automaton, whose rows are BFS-numbered, in place (a cold
    call walks once, in the compile; a warm one derives nothing), and
    {!Dot.render} writes the reply from those rows, with no transition
    list, state array, edge copy or [Lts.t] in between.
    [compiled:false] is the reference: it explores without the
    automaton (the interpreted loop on one domain), takes the status
    facts from {!Lts.is_deterministic}, {!Lts.deadlock_states} and
    {!Lts.truncated_states}, renders with {!Lts.to_dot}, and yields
    the same bytes. *)

val graph_writer :
  ctx ->
  process:string ->
  max_states:int ->
  nat_bound:int ->
  (escape:(string -> string) -> Buffer.t -> unit, string) result
(** [graph ~compiled:true] with its render left to the caller: the
    exploration runs now, and the writer appends [escape] of that
    call's [output] to a buffer through {!Dot.write}, reading the
    automaton's rows in place.  [cspc serve] writes a [graph] reply's
    output this way, JSON-escaped straight into the connection's
    output buffer.  No reply is cached: each call explores (on a warm
    automaton, a bounds check) and its writer renders that
    exploration. *)

val status_line : Dot.facts -> string
(** [cspc graph]'s first line: state and transition counts, the
    truncation note, determinism and the deadlock count. *)

val graph_abstract :
  model:string -> n:int -> max_states:int -> (outcome, string) result
(** The counter-abstract quotient of a preset family at size [n]: a
    summary line and one legend line per local state, then the DOT
    text.  [Error] on an unknown family. *)

val refine :
  ctx ->
  impl:string ->
  spec:string ->
  depth:int ->
  nat_bound:int ->
  weak:bool ->
  (outcome, string) result
(** Trace refinement up to [depth] ({!Equiv.trace_refines}), or with
    [weak] bounded weak bisimilarity over both sides' compiled
    automata, explored to 2000 states each: [true] or [false] when both
    explorations complete, [unknown (truncated at 2000 states)] when
    either stops there.  [Error] names an undefined or unguarded
    process. *)

val prove : ctx -> verbose:bool -> outcome
(** Proves every declared assertion; [verbose] adds each proof's
    obligation table after its [PROVED] line.  Sequents already proved through
    this context (including ones admitted from a warm snapshot) skip
    the tactic search: the stored proof tree is re-checked with
    {!Check.check}, which yields the identical report — and therefore
    the identical output — at a fraction of the cost. *)

val prove_family :
  model:string -> formula:string -> depth:int -> (outcome, string) result
(** Certify a preset family's invariants for every parameter value
    satisfying [formula]; exit 1 unless certified.  [Error] on an
    unknown family or an unparsable formula. *)

val fuzz :
  ?jobs:int ->
  ?coverage:bool ->
  ?replay:string ->
  ?save:string ->
  seed:int ->
  count:int ->
  budget:float option ->
  oracle_names:string list ->
  unit ->
  (outcome, string) result
(** [Error] on an unknown oracle name.  [jobs] (default 1) shards the
    cases over worker domains; [coverage] runs the coverage-guided
    campaign and prints its curve first.  [replay] first re-examines
    every corpus entry of that directory; [save] writes each shrunk
    counterexample into that corpus directory.  Exit 1 on any corpus
    failure or counterexample.  The wall-clock [budget] is the
    per-request time budget. *)

val record_compile :
  ctx -> process:string -> budget:int option -> nat_bound:int -> unit
(** Note a compile call for snapshot purposes (deduplicated). *)

val admit_proofs : ctx -> (Sequent.judgment * Proof.t) list -> unit
(** Admit certificate-loaded proofs into the proved-sequent cache
    (existing keys win — they were proved in this process). *)
