(** Composition strategies: how the "medium automata" of a connector become
    the "large automaton" that the runtime walks.

    [aot] receives the large automaton already composed ahead of time (the
    existing compiler's approach, §IV-D "ahead-of-time composition");
    [jit] keeps the medium automata apart and expands the product state
    space lazily, one state at a time, as execution reaches it ("just-in-time
    composition"); [coloring] also keeps them apart but never expands a
    product state at all — each candidate request resolves up to a handful
    of synchronization rounds by flow/no-flow color propagation over the
    connector graph ([Preo_coloring.Coloring]), so per-round cost tracks
    the pending ports and the mediums a round touches rather than product
    size. All three present the same stateful interface to the engine and
    to [Sim]. *)

open Preo_support
open Preo_automata

type xtrans = {
  sync : Iset.t;
  needs_send : Iset.t;  (** boundary source vertices that must have a pending send *)
  needs_recv : Iset.t;  (** boundary sink vertices that must have a pending receive *)
  constr : Constr.t;
  mutable cmd : cmd_state;
      (** solved at expansion time under label optimization, otherwise
          by {!fire} on the first firing attempt *)
  target : target;
}

and cmd_state =
  | C_unsolved
  | C_solved of Command.t
  | C_compiled of Command.t * Command.compiled
      (** solved and lowered into closed closures ([Command.compile]); the
          engine fires the compiled form without walking guard/move trees *)
  | C_unsat

and target =
  | T_aot of int
  | T_jit of int array
  | T_color of (int * int) array
      (** participating (medium slot, local target state) pairs *)

type t

exception Expansion_budget of string
(** Raised when a single JIT state expansion enumerates more than the
    configured number of candidate transition combinations — the blow-up of
    the paper's §V-C finding 3 — or when a coloring resolution exceeds its
    propagation budget. The message names the connector and reports the
    counts reached. *)

val aot :
  ?name:string ->
  ?use_dispatch:bool ->
  ?optimize_labels:bool ->
  ?compile:bool ->
  Automaton.t ->
  t
(** The automaton's [sources]/[sinks] are the connector boundary.
    [use_dispatch] builds the per-state vertex index (the whole-automaton
    optimization); [optimize_labels] pre-solves all commands. Both default
    to [true] (the existing compiler applies both). [compile] lowers solved
    commands into closed closures (default [Config.effective_compile]).
    [name] labels budget errors (default ["connector"]). *)

val jit :
  ?name:string ->
  ?cache_capacity:int ->
  ?optimize_labels:bool ->
  ?expansion_budget:int ->
  ?true_synchronous:bool ->
  ?compile:bool ->
  sources:Iset.t ->
  sinks:Iset.t ->
  Automaton.t list ->
  t
(** [cache_capacity]: bound on memoized expanded states (LRU eviction);
    unbounded by default. [optimize_labels] (default [true]) solves each
    expanded transition's constraint once at expansion time. Vertices
    internal to a single medium and not on the boundary are hidden before
    composition. [true_synchronous] (default [false]) additionally
    enumerates joint firings of independent mediums, as the textbook ×
    does — exponentially many in wide states (the paper's §V-C finding). *)

val coloring :
  ?name:string ->
  ?cache_capacity:int ->
  ?optimize_labels:bool ->
  ?expansion_budget:int ->
  ?max_rounds:int ->
  ?compile:bool ->
  sources:Iset.t ->
  sinks:Iset.t ->
  Automaton.t list ->
  t
(** The connector-coloring backend: mediums get the same preparation as
    {!jit}, but {!candidates} resolves at most [max_rounds] (default 16)
    synchronization rounds per request by color propagation instead of
    expanding the product state — a resolution costs the pending set plus
    the closures it propagates over. Resolutions rotate their seed scan so
    enabled rounds beyond the cap are not starved. [expansion_budget] bounds propagation iterations
    {e per resolution} (same knob as the JIT expander's per-state budget);
    [cache_capacity] bounds the per-round command cache (LRU; unbounded by
    default). Always interleaving semantics: 2-coloring cannot express the
    textbook synchronous product's joint independent firings (request
    [true_synchronous] via {!jit} instead). *)

val backend_of : Config.t -> Sched.backend -> Sched.backend
(** The backend a configuration actually runs on: the requested one for
    interleaving [Config.New], {!Sched.Automata} for [Config.Existing] (the
    precomposed product) and for [true_synchronous] (2-coloring cannot
    express joint independent firings). *)

val of_config :
  ?name:string ->
  backend:Sched.backend ->
  compile:bool ->
  sources:Iset.t ->
  sinks:Iset.t ->
  Config.t ->
  Automaton.t list ->
  t
(** The composer a configuration prescribes for these mediums and this
    boundary: [Config.Existing] composes them ahead of time
    ([Product.all] under the configured budgets, internal vertices hidden,
    then {!aot}); [Config.New] builds {!coloring} or {!jit} as
    {!backend_of} resolves [backend]. [partition] is the caller's concern
    (it composes each region separately). Raises
    [Product.Budget_exceeded] when the ahead-of-time product exceeds its
    budgets. *)

val candidates : t -> pending:Iset.t -> xtrans array
(** Transitions leaving the current state whose needed boundary vertices are
    covered by [pending]; silent transitions are always included. Guards are
    not yet checked. The returned array is a shared buffer memoized on the
    expanded state, keyed by [pending] restricted to the vertices the
    state's transitions test — callers must not mutate it. *)

val commit : t -> xtrans -> unit
(** Advance the current state. The transition must come from the latest
    {!candidates} call. *)

val fire : t -> xtrans -> Command.env -> bool
(** One firing attempt: check the transition's guards against [env] and,
    if they hold, execute its moves into [env]. The command is solved on
    the first attempt unless label optimization precompiled it; when the
    composer compiles ([?compile]) and lowering succeeded, the closed
    closures run instead of the interpreted guard/move walk. [false] means
    the transition is not enabled (a guard failed, or its constraint can
    never fire) and [env] saw no write. Counted in {!compiled_fires} or
    {!interp_fires}. *)

val ncells : t -> int
(** Number of (densely renumbered) memory cells; engine memory size. Grows
    when {!splice} adds mediums (fresh slots are appended, retired slots are
    not reclaimed). *)

exception Not_quiescent of string
(** A medium slated for retirement by {!splice} is mid-protocol: its current
    local state is not label-bisimilar to its initial state. Retry once the
    in-flight exchanges drain. *)

val live_mediums : t -> Automaton.t array
(** JIT/coloring: the current (prepared: hidden, cell-renumbered) medium
    automata, in slot order — positionally aligned with the raw medium list
    the caller composed. Empty for AOT. *)

val splice :
  t ->
  sources:Iset.t ->
  sinks:Iset.t ->
  retire:int list ->
  add:Automaton.t list ->
  Iset.t
(** Elastic splice: retire the medium slots at the given indices (current
    slot order, as in {!live_mediums}) and append the [add] automata (raw;
    they get the same hiding/trimming/cell-renumbering as at {!jit} time).
    [sources]/[sinks] become the new connector boundary. The expanded-state
    cache is flushed; the JIT expander discovers the new product states
    lazily — no global rebuild. Surviving mediums keep their current local
    states; added mediums start from their initial states. Returns the set
    of vertices that vanished (belonging only to retired mediums). Raises
    {!Not_quiescent} if a retired medium is mid-protocol (nothing is mutated
    in that case), [Invalid_argument] on AOT composers or bad indices. *)

val sources : t -> Iset.t
val sinks : t -> Iset.t

(** Instrumentation *)

val expansions : t -> int
(** JIT: number of distinct state expansions performed (0 for AOT). *)

val cache_hits : t -> int
(** JIT: how often the current state's expansion was found memoized. *)

val cache_evictions : t -> int

val solver_calls : t -> int
(** Runtime (firing-loop) [Command.solve] calls: solves that label
    optimization did not precompile. *)

val compiled_fires : t -> int
(** Successful {!fire}s through compiled (closure) commands. *)

val interp_fires : t -> int
(** Successful {!fire}s through the interpreted guard/move walk. *)

val cand_hits : t -> int
(** Hits in the (state, pending-set) candidate cache consulted by
    {!candidates}. *)

val cand_evictions : t -> int

val color_rounds : t -> int
(** Coloring: synchronization rounds resolved by color propagation across
    all resolutions (0 for the automata strategies). *)

val color_iters : t -> int
(** Coloring: total propagation iterations (color-table row trials) — the
    fixed-point work; [color_iters / color_rounds] is the mean propagation
    cost of one round. *)

val current_out_degree : t -> int
(** Out-degree of the current state. Coloring: a lower bound, capped at the
    per-resolution round limit (debug paths only). *)
