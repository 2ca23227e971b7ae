(** Verification of composed connectors — a lightweight stand-in for the
    model-checking tool chain of the Reo ecosystem that the paper's workflow
    relies on (Fig. 11: "formally verified through model checking, fully
    automatically").

    All checks run on an explicit (composed) automaton, so they are
    exhaustive over its reachable state space, and treat every transition
    they are given as firable. Drop the transitions the runtime can never
    fire first ([Automaton.optimize_labels], the [Command.firable] filter
    the composer applies), as [preoc verify] does; guards stay ignored,
    which keeps the checks conservative for data-sensitive connectors. *)

open Preo_automata

type counterexample = {
  path : (int * Preo_support.Iset.t) list;
      (** (state, sync label) steps from the initial state *)
  state : int;  (** offending state *)
}

val deadlocks : Automaton.t -> counterexample list
(** Reachable states with no outgoing transition. A connector automaton is
    deadlock-free iff this is empty. Note that boundary transitions only
    fire when tasks are willing; this check is about {e structural}
    deadlock. *)

val unreachable_states : Automaton.t -> int list

val never_together : Automaton.t -> Vertex.t -> Vertex.t -> bool
(** No reachable transition fires both vertices in the same step (mutual
    exclusion of two ports). *)

val always_together : Automaton.t -> Vertex.t -> Vertex.t -> bool
(** Every reachable transition firing either vertex fires both (strict
    synchrony of two ports). *)

val precedes : Automaton.t -> Vertex.t -> Vertex.t -> bool
(** On every path from the initial state, the first firing of [b] cannot
    happen before the first firing of [a]. *)

val eventually_enabled : Automaton.t -> Vertex.t -> bool
(** Some reachable transition fires the vertex (the port is not dead). *)

val check_fig5_properties : Automaton.t -> a:Vertex.t -> b:Vertex.t -> (unit, string) result
(** The paper's Example 1 contract on a composed connector: [a]'s first
    communication precedes [b]'s, and neither port is dead. Used by the
    quickstart example and tests. *)
