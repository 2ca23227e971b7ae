(** Connector execution engine.

    One engine owns one composed protocol (via a {!Composer.t}) plus the
    connector memory. Tasks interact through blocking [send]/[recv]
    operations on boundary vertices; the state machine runs inside the
    calling threads, under the engine lock, exactly like the generated code
    of the Reo-to-Java runtime: whenever an operation is registered, the
    caller repeatedly tries to fire enabled transitions until its own
    operation completes, and otherwise waits to be woken by another firing.

    External gates let a vertex be driven by another engine instead of a
    task (used by the partitioned runtime). *)

open Preo_support

type t

exception Poisoned of string
(** Raised by pending operations when the engine is shut down or a JIT state
    expansion blows its budget. *)

type gate = {
  gate_ready : unit -> bool;  (** may the gated vertex fire right now? *)
  gate_peek : unit -> Value.t;  (** for source gates: the value offered *)
  gate_commit : Value.t option -> unit;
      (** called on firing: [Some v] delivers to a sink gate, [None] consumes
          from a source gate *)
  gate_dump : unit -> string;
      (** one-line state description for stall reports (e.g. bridge-slot
          occupancy); must not block *)
}

(** {1 Deadlines and stall diagnosis} *)

type engine_snapshot = {
  es_steps : int;
  es_waits : int;
  es_kicks : int;
  es_pending : string list;  (** pending boundary vertices, ["name#id"] *)
  es_candidates : int;
      (** transitions enabled by the pending set; -1 if the composer's
          expansion budget is exhausted *)
  es_gates : string list;  (** per-gate dumps (partitioned bridge slots) *)
  es_poisoned : string option;
}

type stall_report = {
  sr_op : string;  (** ["send"] or ["recv"] *)
  sr_vertex : string;
  sr_waited : float;  (** seconds the operation had been parked *)
  sr_engines : engine_snapshot list;
      (** the blocked operation's engine first, then its partitioned peers *)
}
(** Snapshot of a blocked operation's engine (and its peers) taken when a
    deadline expired or the stall watchdog tripped: the runtime counterpart
    of [preoc verify]'s static deadlock counterexample. *)

exception Timed_out of stall_report
(** Raised by [send]/[recv] whose [?deadline] expired. *)

val pp_stall_report : Format.formatter -> stall_report -> unit
val string_of_stall_report : stall_report -> string

val last_stall : t -> stall_report option
(** Most recent stall report recorded against this engine (by a deadline
    expiry, or by the watchdog when {!Config.stall_threshold} is set). *)

val stalls : t -> int
(** Stall reports recorded so far (watchdog trips + deadline expiries). *)

val create :
  ?gates:(Preo_automata.Vertex.t * gate) list -> ?name:string -> Composer.t -> t
(** [name] (default ["engine"]) labels this engine's trace lane in
    {!Preo_obs} exports. *)

val obs_ring : t -> Preo_obs.Obs.ring
(** This engine's trace ring (created on first use). Events are recorded
    only while [Preo_obs.Obs.tracing] is set. *)

val send : ?deadline:float -> t -> Preo_automata.Vertex.t -> Value.t -> unit
(** Blocking send at a boundary source vertex. [deadline] is an absolute
    Unix time; when it expires before the protocol fires, the pending
    operation is withdrawn (later firings cannot complete into the dead
    slot) and {!Timed_out} is raised with a stall report. *)

val recv : ?deadline:float -> t -> Preo_automata.Vertex.t -> Value.t
(** Blocking receive at a boundary sink vertex (deadline as in {!send}). *)

val send_opt :
  ?deadline:float ->
  t ->
  Preo_automata.Vertex.t ->
  Value.t ->
  (unit, stall_report) result
(** Like {!send} but returns [Error report] instead of raising on expiry. *)

val recv_opt :
  ?deadline:float ->
  t ->
  Preo_automata.Vertex.t ->
  (Value.t, stall_report) result

val send_many : t -> Preo_automata.Vertex.t -> Value.t list -> unit
(** Batch send: publish every value's operation in one shot (submission
    order preserved) and block behind the {e last} one only — operations on
    one vertex complete in FIFO order, so the last completing implies all
    did. One lock-free publication per op, at most one park path for the
    whole batch. No deadline: a partially completed batch has no sensible
    withdraw semantics — under the global stall watchdog
    ({!Config.stall_threshold}) a slow batch records stall reports
    ({!last_stall}, the [st_stalls] counter) and keeps waiting. The empty
    batch ([[]]) is a no-op: callers computing batch sizes at run time (as
    churn code does) need no special-casing. *)

val recv_many : t -> Preo_automata.Vertex.t -> int -> Value.t list
(** Batch receive of [k] values, in arrival order (see {!send_many}).
    [k <= 0] is a no-op returning [[]]. *)

val try_send : t -> Preo_automata.Vertex.t -> Preo_support.Value.t -> bool
(** Nonblocking send: fires whatever the offer enables and reports whether
    the operation completed; otherwise the offer is withdrawn. *)

val try_recv : t -> Preo_automata.Vertex.t -> Preo_support.Value.t option
(** Nonblocking receive (see {!try_send}). *)

val try_step : t -> bool
(** Fire at most one enabled transition without registering any operation
    (used by the partitioned runtime to react to gate changes and by tests).
    Returns whether a transition fired.
    @raise Poisoned if the engine has been shut down. *)

val steps : t -> int
(** Number of global execution steps (fired transitions) so far. *)

val cond_waits : t -> int
(** How often a blocked operation parked on its vertex's condition
    variable (cheap always-on counter). *)

val peer_kicks : t -> int
(** Peer-engine nudges issued after firings (partitioned runtime). *)

val wakes_targeted : t -> int
(** Per-vertex wake signals issued by drive loops: each counts one vertex
    whose waiters were signalled because their operation completed. *)

val wakes_spurious : t -> int
(** Wakes after which the woken operation re-parked without the engine
    having made progress — the thundering-herd cost targeted wakeups
    exist to eliminate. *)

val wakes_broadcast : t -> int
(** Fallback broadcasts that woke every parked operation (poison delivery,
    kick-round cap, shutdown); correctness backstop, not a fast path. *)

val mpsc_ops : t -> int
(** Operations that went through the lock-free submission queue (every
    blocking send/recv; try-ops and gate traffic bypass it). *)

val mpsc_batches : t -> int
(** Nonempty drains of the submission queue; [mpsc_ops / mpsc_batches] is
    the mean submission batch size — the amortization the MPSC queue
    buys. *)

val mpsc_fast : t -> int
(** Operations completed on the lock-free fast path: the submitting task
    polled its op's completion flag and never took the engine mutex. *)

val compiled_fires : t -> int
(** Firings executed through a closure-compiled command
    ([Command.compile]): guard check + moves in one pre-bound call. *)

val interp_fires : t -> int
(** Firings executed through the interpreted guard/move walk — the
    fallback for unsolved-lazily or exotic (late-bound Datafun) commands,
    and everything when compilation is off ([PREO_COMPILE=0]). *)

val splice :
  t ->
  sources:Iset.t ->
  sinks:Iset.t ->
  retire:int list ->
  add:Preo_automata.Automaton.t list ->
  unit
(** Elastic splice (see {!Composer.splice}): retire the given medium slots,
    add the raw automata, move the boundary to [sources]/[sinks] — all
    under the engine lock, against the live product. Quiescence of retired
    mediums is validated before anything mutates, so
    {!Composer.Not_quiescent} leaves the engine unchanged (retry once
    in-flight exchanges drain). On success: operations pending on vanished
    vertices fail with {!Poisoned} {e individually} (targeted poison — the
    rest of the connector keeps running), later operations on them (stale
    ports) fail at submission-drain time, the connector memory grows to
    cover the added mediums' cells, and every parked operation is woken to
    re-examine the rewired engine. *)

val retired_vertices : t -> Iset.t
(** Vertices removed by elastic splices so far: operations on them fail
    immediately instead of queueing forever. *)

val poison : t -> string -> unit
(** Wake all blocked operations with {!Poisoned}. Propagates transitively
    to partitioned peer engines, so the message (including any attached
    stall report) reaches tasks blocked on sibling regions. *)

val poisoned_reason : t -> string option

val composer : t -> Composer.t

val set_peers : t -> t list -> unit
(** Other engines this one may need to nudge (partitioned runtime): the
    poison-propagation set and the fallback kick target when a gate commit
    cannot be attributed to a specific peer. *)

val set_gate_peers : t -> (Preo_automata.Vertex.t * t) list -> unit
(** Which peer engine shares each gate's bridge. A firing that commits to a
    mapped gate kicks exactly that peer; gates left unmapped degrade to
    kicking every peer from {!set_peers}. *)

val set_on_fire : t -> (Preo_support.Iset.t -> unit) option -> unit
(** Tracing hook: called with each fired sync set, under the engine lock —
    keep it fast and reentrancy-free. *)

(**/**)

val debug_dump : t -> string
(** Engine state snapshot (pending vertices, candidate count) for
    diagnosing stuck protocols; not part of the stable API. *)
