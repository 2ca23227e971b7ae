(** Connector-coloring round resolution (the coloring backend's core).

    Connector coloring ("Correlating Formal Semantic Models of Reo
    Connectors: Connector Coloring and Constraint Automata") decides each
    synchronization round by assigning every vertex one of two colors —
    {e flow} or {e no-flow} — such that every primitive agrees with the
    coloring. A primitive's agreement is captured by its {e color table}:
    one row per local transition (the transition's sync set flows, the rest
    of the primitive's vertices do not), plus the implicit all-no-flow row
    (the primitive idles). A consistent coloring of the whole graph is a
    fixed point of propagating these rows along shared vertices; each
    consistent coloring with at least one flowing primitive is one
    executable {e round}.

    This module computes rounds by propagation over the connector graph:
    seed a row of one primitive, push its flow vertices onto a worklist,
    and pull in each owner of a fired vertex, branching over its compatible
    rows. The cost of finding one round is proportional to the size of the
    connected synchronization region it covers — {e not} to the number of
    global transitions — which is what lets the coloring backend escape the
    product-automaton blow-up (§V-C): it never enumerates all rounds of a
    state, only the first [max_rounds] of them per resolution.

    Two colors cannot express context-sensitive behaviour (a primitive that
    fires only when the environment {e cannot} accept, e.g. the
    context-sensitive LossySync, needs a third color). This runtime's
    constraint-automata semantics are already context-insensitive, so
    2-coloring coincides with them exactly — certified by {!lts} +
    [Preo_verify.Bisim] over the connector catalog. *)

open Preo_support
open Preo_automata

type t
(** Color tables for one connector: prepared medium automata (slot order),
    a boundary, per-(medium, local state) row arrays over a dense
    per-connector vertex numbering, a vertex → owning mediums index, the
    internal-capable rows, and the scratch state one resolution propagates
    in. The tables never change (rebuild after an elastic splice), but the
    scratch does: {!resolve} is not reentrant, so callers hold the owning
    engine's lock. *)

type round = {
  r_sync : Iset.t;  (** union of the participating rows' flow sets *)
  r_constr : Constr.t;  (** conjunction of their data constraints *)
  r_moves : (int * int) array;
      (** (medium slot, local target state) for each participant, in
          ascending slot order; non-participants keep their state *)
  r_key : string;
      (** canonical identity of the coloring: the participating
          (slot, local state, row) triples — stable across resolutions, so
          callers can memoize per-round work (e.g. solved commands) *)
}

exception Propagation_budget of string
(** A single resolution exceeded its iteration budget. With two colors this
    cannot happen on well-formed connectors resolved with a finite
    [max_rounds] cap — the budget is a backstop against adversarial
    structures, mirroring the JIT expander's expansion budget. *)

val make : sources:Iset.t -> sinks:Iset.t -> Automaton.t array -> t
(** Build the color tables. The mediums must already be prepared (hidden /
    trimmed / cell-renumbered) exactly as the caller's runtime uses them. *)

val mediums : t -> Automaton.t array
(** The medium array [make] was given (not a copy), in slot order. *)

val boundary : t -> Iset.t

val resolve :
  t ->
  current:int array ->
  pending:Iset.t ->
  rot:int ->
  max_rounds:int ->
  budget:int ->
  round list * int
(** [resolve t ~current ~pending ~rot ~max_rounds ~budget] finds up to
    [max_rounds] distinct rounds enabled at local states [current] whose
    boundary flow is covered by [pending], and returns them with the number
    of propagation iterations spent (one per row tried).

    Seeds come from [pending], not from every medium. A row with boundary
    flow is seeded only through its least boundary vertex, among the owners
    of each pending vertex. A row without boundary flow seeds only fully
    internal rounds, and only if {!make} found it internal-capable: every
    other owner of each vertex it fires has an internal-capable row firing
    that vertex. Finding those seeds scans one precomputed flag per medium,
    the only term proportional to the connector; everything else costs the
    pending set plus the closure each seed propagates over, so a round
    costs the mediums and ports it touches.

    Each round is enumerated exactly once: a round with boundary flow from
    its minimum-slot participant among rows with boundary flow, a fully
    internal round from its minimum slot. Pending vertices are scanned
    starting at position [rot mod |pending|], internal seeds starting at
    medium [rot mod k], the two kinds alternate going first with [rot]'s
    parity, and row preference rotates with [rot]; callers bump [rot]
    across resolutions so rounds beyond the cap are not starved. When fewer
    than [max_rounds] rounds exist the scan is exhaustive: an empty result
    means nothing is enabled. Raises {!Propagation_budget} if [budget]
    iterations are exceeded; the scratch state is cleared on every exit,
    that one included. *)

val lts :
  ?max_states:int ->
  ?max_iters:int ->
  sources:Iset.t ->
  sinks:Iset.t ->
  Automaton.t list ->
  Automaton.t
(** The full labelled transition system the coloring semantics induces:
    breadth-first exploration of reachable local-state vectors, taking every
    round of every state (no [max_rounds] cap, all boundary vertices
    pending). Used by the verification suite to certify coloring ≡ product
    by bisimulation — it deliberately pays the exponential cost the runtime
    path avoids, guarded by [max_states] (default 20000) and [max_iters]
    (default 5e6). Raises {!Propagation_budget} when a guard trips. *)
