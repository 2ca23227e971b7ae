(** Deterministic, single-threaded connector simulation.

    The engine runs protocols under real threads, which makes traces
    nondeterministic. The simulator drives the same composed state machine
    directly: the caller scripts pending operations ([offer]/[demand]) and
    advances the protocol one global step at a time with a deterministic
    (or seeded-random) choice policy. Used by tests and anyone debugging a
    protocol.

    It runs the runtime's own path: the composer is built by
    [Composer.of_config] as [Connector.create] builds one, resolved against
    the same process defaults (the [PREO_BACKEND] round scheduler and the
    [PREO_COMPILE] compiled-dispatch switch), and every firing attempt goes
    through [Composer.fire], the engine's compiled-or-interpreted step. *)

open Preo_support
open Preo_automata

type t

type policy =
  | First  (** lowest-indexed enabled transition (deterministic) *)
  | Random of int  (** seeded pseudo-random choice *)

val create :
  ?config:Config.t ->
  ?policy:policy ->
  sources:Vertex.t array ->
  sinks:Vertex.t array ->
  Automaton.t list ->
  t
(** Only the composition strategy of [config] matters (no engines or
    threads are involved); partitioned configs are simulated monolithically.
    Raises [Product.Budget_exceeded] when a [Config.Existing] product
    exceeds its budgets. *)

val offer : t -> Vertex.t -> Value.t -> unit
(** Queue a pending send at a source vertex. *)

val demand : t -> Vertex.t -> unit
(** Queue a pending receive at a sink vertex. *)

type event = {
  ev_sync : Iset.t;  (** vertices of the fired transition *)
  ev_delivered : (Vertex.t * Value.t) list;  (** completed receives *)
  ev_consumed : Vertex.t list;  (** completed sends *)
}

val step : t -> event option
(** Fire one enabled transition, or [None] if the protocol is stuck given
    the current pending operations. *)

val run : ?max_steps:int -> t -> event list
(** Step until stuck (or [max_steps], default 10_000). *)

val pending_sends : t -> Vertex.t list
val pending_recvs : t -> Vertex.t list
val steps : t -> int

val compiled_fires : t -> int
(** Firings through compiled (closure) commands. *)

val interp_fires : t -> int
(** Firings through the interpreted guard/move walk. *)
