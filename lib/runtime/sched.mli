(** Round-scheduler (execution backend) selection.

    The engine is backend-agnostic: each drive iteration asks its composer
    for the rounds enabled by the pending operations, fires one, commits.
    {!S} is that contract — the slice of [Composer]'s interface the engine
    actually consumes. Both backends implement it through [Composer]'s
    strategies:

    - {!Automata} — the constraint-automata backends: ahead-of-time product
      ([Config.Existing] / [Composer.aot]) and lazy product expansion
      ([Config.New] / [Composer.jit]). A round is a transition of the
      (possibly lazily expanded) product automaton; expanding one state
      enumerates {e all} its rounds, which blows up exponentially on
      synchronized-choice connectors (§V-C).
    - {!Coloring} — connector coloring ([Composer.coloring], backed by
      [Preo_coloring.Coloring]): each resolution propagates flow/no-flow
      colors over the connector graph and stops after the first few
      consistent colorings, so per-round cost is proportional to graph
      size, not product size.

    Selection precedence: explicit [?backend] argument (to
    [Preo.instantiate] / [Connector.create] / [Driver.run_noop]) >
    process-wide default ({!set_backend}, or the [PREO_BACKEND] environment
    variable read at startup) > {!Automata}. *)

type backend = Automata | Coloring

val of_string : string -> backend option
(** Case-insensitive ["automata"] / ["coloring"]; [None] otherwise. *)

val to_string : backend -> string

val backend : backend option ref
(** Process-wide default, initialized from [PREO_BACKEND] (unrecognized
    values are ignored). [None] means {!Automata}. *)

val set_backend : backend option -> unit

val effective : ?requested:backend -> unit -> backend
(** Resolve the backend for one instantiation: [requested] wins, else the
    process-wide default, else {!Automata}. *)

(** The round-scheduler contract both backends implement (via [Composer]'s
    strategies — see [Sched.Conformance] in the implementation for the
    static check). [candidates] may raise the implementation's budget
    exception; the engine treats it as poison. *)
module type S = sig
  type t
  type xtrans

  val candidates : t -> pending:Preo_support.Iset.t -> xtrans array
  val commit : t -> xtrans -> unit
  val ncells : t -> int
  val sources : t -> Preo_support.Iset.t
  val sinks : t -> Preo_support.Iset.t

  val splice :
    t ->
    sources:Preo_support.Iset.t ->
    sinks:Preo_support.Iset.t ->
    retire:int list ->
    add:Preo_automata.Automaton.t list ->
    Preo_support.Iset.t
end
