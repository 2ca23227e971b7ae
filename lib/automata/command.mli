(** Executable data-flow commands, compiled from transition constraints.

    Solving a constraint once — at compile/composition time — and replaying
    the resulting command on every firing is the transition-label
    optimization of the existing Reo compiler (Jongmans & Arbab, "Take
    Command of Your Constraints!", COORDINATION 2015). The runtime can also
    call {!solve} on every firing to model the unoptimized baseline. *)

open Preo_support

type expr =
  | Read_port of Vertex.t  (** value offered by the pending send at a source vertex *)
  | Read_cell of int
  | Lit of Value.t
  | Apply of string * expr  (** function looked up in {!Datafun} at evaluation *)

type guard =
  | G_pred of { g_pred : string; g_positive : bool; g_arg : expr }
  | G_eq of expr * expr
      (** runtime data equality, emitted when one equivalence class has
          several independent sources (e.g. equality-testing drains, or a
          port constrained to a constant) *)

type move =
  | To_sink of Vertex.t * expr  (** complete the pending receive at a sink vertex *)
  | To_cell of int * expr

type t = { guards : guard array; moves : move array }

type env = {
  read_send : Vertex.t -> Value.t;
      (** value of the pending send operation at a firing source vertex *)
  read_cell : int -> Value.t;
  write_cell : int -> Value.t -> unit;
  deliver : Vertex.t -> Value.t -> unit;
      (** complete the pending receive at a firing sink vertex *)
}

val solve :
  readable:Iset.t ->
  writable:Iset.t ->
  Constr.t ->
  (t, string) result
(** [solve ~readable ~writable c] turns constraint [c] into a command.
    [readable] are the boundary source vertices (their port terms denote
    values available from pending sends); [writable] are the boundary sink
    vertices (their port terms must be assigned). Port terms outside both
    sets are internal glue. [Error] means the constraint is structurally
    unsatisfiable (conflicting constants) or under-determined (some sink or
    cell write has no data source) — such a transition can never fire. *)

val firable : sources:Iset.t -> sinks:Iset.t -> Constr.t -> t option
(** The firability filter shared by the runtime and the static checks:
    [solve] with the connector's [sources] readable and [sinks] writable.
    [None] means no firing can ever take the transition; the composer drops
    it and {!Automaton.optimize_labels} removes it. *)

val guards_hold : t -> env -> bool
(** Evaluate the guards only (cheap pre-check before committing a firing). *)

type compiled
(** A command lowered into closed OCaml closures: [Datafun] names resolved
    once at compile time, constant guards folded, guard check and move
    execution fused into a single call. Observationally identical to
    {!guards_hold} + {!execute} on the same [env]. *)

val compile : t -> compiled option
(** Lower a command. [None] when a [Datafun] name it mentions is not yet
    registered — such "exotic" commands stay on the interpreted path, which
    late-binds names per evaluation. Data functions and predicates are
    treated as pure (the Reo contract), so a predicate applied to a literal
    is decided here, at compile time. *)

val fire_compiled : compiled -> env -> bool
(** Check the residual guards; when they hold, run the moves (reads before
    writes, exactly as {!execute}) and return [true]. A [false] performs no
    writes — safe against envs that stage effects. *)

val compiled_nguards : compiled -> int
(** Number of guards that survived constant folding — tests whose verdict
    can still change between firings. 0 means unconditionally enabled
    (modulo synchronization). *)

val execute : t -> env -> unit
(** Run the moves: all source values are read first, then all writes and
    deliveries are performed, so a cell may be both read and overwritten in
    the same step. Guards are {e not} re-checked. *)

val map_vertices : (Vertex.t -> Vertex.t) -> t -> t
val map_cells : (int -> int) -> t -> t
val pp : Format.formatter -> t -> unit
