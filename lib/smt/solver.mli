(** Top-level SMT interface: QF_ABV satisfiability and model enumeration.

    This module plays the role Z3 plays in the original Scam-V pipeline
    (Sec. 5.2): relation formulas come in, concrete register/memory
    valuations (test cases) come out.

    Thread-safety: enumeration sessions wrap a mutable {!Blaster} context
    and are {e domain-confined} — create, use and discard a session within
    a single domain.  Parallel campaigns get their parallelism by running
    whole per-program pipelines (each with its own session) on separate
    domains; nothing in this module is shared between them. *)

type result = Sat of Model.t | Unsat

exception Solver_invariant of string
(** An internal enumeration invariant was violated (e.g. the lexicographic
    minimizer could not restore a model it had just pinned).  Unlike a bare
    [assert] this survives [-noassert] builds and carries a description, so
    the campaign fault-capture layer can record it as a per-program failure
    instead of the process dying. *)

type model_result =
  | Model of Model.t
  | Exhausted  (** no further distinct model exists *)
  | Budget_exceeded
      (** the session's SAT budget ran out before this call could decide;
          the session stays usable but the caller should quarantine it *)

val solve :
  ?seed:int64 -> ?default_phase:bool -> ?graph:Blaster.graph -> Term.t list -> result
(** One-shot satisfiability of the conjunction of the given formulas.
    The returned model assigns every variable occurring in the formulas,
    including partial memory contents for every address the formulas
    read.  [graph] as in {!make_session}. *)

type session
(** An enumeration session over a fixed set of assertions. *)

val make_session :
  ?seed:int64 ->
  ?default_phase:bool ->
  ?restart_base:int ->
  ?track:(string * Sort.t) list ->
  ?budget:Sat.budget ->
  ?graph:Blaster.graph ->
  Term.t list ->
  session
(** [make_session fs] prepares enumeration of models of [/\ fs].
    The session holds one live SAT state for its whole life: enumeration
    blocking clauses live in a pushed scope (see {!extend}) and the model
    minimizer's per-bit pins are assumptions over that state, so no query
    ever re-blasts or re-solves from scratch.

    [restart_base] is forwarded to {!Sat.create}; portfolio
    configurations use it to vary the restart series.

    [track] lists the variables over which models must differ (default:
    every free variable of [fs], with memories tracked through the cells
    they read).  Tracking matters: the paper enumerates *distinct test
    cases*, i.e. assignments that differ on program-visible state.

    [budget] bounds every underlying SAT call of this session (including
    the per-bit calls of the model minimizer); when it is exceeded,
    {!next_model} reports [Budget_exceeded].

    [graph] is a shared {!Blaster.graph}: sessions of the same program
    pass one graph so the bit-blaster reuses hash-consed circuit nodes
    (and hence the folding work) across candidate relations and
    enumeration sessions, reported as [smt.blast_cache_cross_hits].  The
    graph and all its sessions must stay on one domain. *)

val next_model : ?diversify:bool -> session -> model_result
(** Next model, [Exhausted] when the space is empty, or [Budget_exceeded]
    when the session budget ran out mid-search.  With [diversify] the
    solver randomizes decision phases first, spreading consecutive models
    across the state space instead of walking it in lexicographic order
    (used by the refinement-guided campaigns). *)

val push : session -> unit
(** Open a retractable scope on the session's SAT state ({!Sat.push}):
    clauses asserted until the matching {!pop} — including blocking
    clauses of models enumerated meanwhile — are retracted together. *)

val pop : session -> unit
(** Close the innermost scope opened by {!push}.  Learnt knowledge,
    activities and phases survive; only the scope's clauses are retired. *)

val solve_assuming : session -> Term.t list -> model_result
(** [solve_assuming s assumptions] decides satisfiability of the
    session's assertions (including accumulated blocking clauses) under
    the given boolean terms, without asserting them: the terms are
    blasted once and passed to the SAT core as assumption literals, so
    repeated calls with varying assumptions reuse one live state.
    [Exhausted] here means "unsatisfiable under these assumptions" — the
    session itself remains usable and is not marked exhausted. *)

val extend : ?track:(string * Sort.t) list -> session -> Term.t list -> session
(** [extend s fs] conjoins further assertions onto the live session —
    the refinement-chain step: a candidate relation's session becomes the
    refined relation's session without re-blasting or re-solving what the
    two share.  Blocking clauses accumulated by enumeration of the
    previous assertions are retracted (they blocked models of the {e old}
    relation); CNF, learnt clauses, variable activities and saved phases
    carry over.  Array elimination continues against the session's read
    table, adding exactly the cross-batch consistency conditions.
    [track] replaces the tracked-variable set (default: the old set
    merged with the new formulas' free variables).  Cache hits while
    blasting the extension are flushed as [smt.incremental_reuse_hits].
    Returns the same (mutated) session for chaining. *)

val blocked_models : session -> Model.t list
(** Raw input valuations blocked by this session's enumeration so far,
    oldest first.  Feeding them to {!block_model} on a second session
    over the same assertions reproduces the enumeration frontier — the
    handoff a portfolio challenger needs to continue where a budget-
    exhausted configuration stopped. *)

val block_model : session -> Model.t -> unit
(** Assert the blocking clause for one raw valuation (an element of
    another session's {!blocked_models}) and count it as a found model,
    so a challenger session never re-enumerates a handed-over model. *)

val models_found : session -> int

val stats : session -> int * int * int
(** (conflicts, decisions, propagations) of the underlying SAT solver. *)

val var_count : session -> int
(** Number of SAT variables allocated (inputs + gates). *)

val clause_count : session -> int
(** Problem clauses currently held by the SAT solver (see
    {!Sat.num_clauses}). *)
