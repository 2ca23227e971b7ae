(** Structured tracing core: per-lane fixed-size rings of binary events.

    The runtime records transition firings, port-operation lifecycles, JIT
    expansions, stalls, poisonings and partition-bridge slot traffic into
    rings registered here — but only while {!tracing} is set, so the firing
    fast path pays a single branch when tracing is off. Exporters
    ({!Export}) turn the rings into human-readable dumps or Chrome
    trace-event JSON; {!Metrics} aggregates counters and latency histograms
    alongside.

    Enable via {!set_tracing} (facade: [Preo.set_tracing]) or the
    [PREO_TRACE] environment variable. Ring capacity (events per lane,
    default 65536, oldest overwritten) comes from [PREO_TRACE_CAP]. *)

val tracing : bool ref
(** The single runtime flag. Instrumented code guards every recording with
    [if !Obs.tracing then ...]; read it directly, never through a closure. *)

val set_tracing : bool -> unit

(** {1 Events} *)

type kind =
  | Fire  (** transition fired; [a] = |sync|, [b] = least sync vertex or -1 *)
  | Submit_send  (** blocking send registered; [a] = vertex, [b] = thread id *)
  | Submit_recv
  | Park  (** operation parked on the engine condition; [a] = vertex, [b] = tid *)
  | Wake
  | Complete_send  (** blocking op completed; [a] = vertex, [b] = tid *)
  | Complete_recv
  | Expansion  (** JIT state expansion; [a] = total expansions, [b] = delta *)
  | Stall  (** watchdog trip or deadline expiry; [a] = vertex, [b] = tid *)
  | Poison  (** engine poisoned *)
  | Slot_put  (** partition bridge slot filled; [a] = tail vertex *)
  | Slot_take  (** partition bridge slot drained; [a] = head vertex *)
  | Abort
      (** blocking op left without completing (poisoned, failed, or
          withdrawn at its deadline); [a] = vertex, [b] = tid *)
  | Wake_targeted
      (** waker-side: signalled the waiters parked on one vertex;
          [a] = vertex, [b] = number of parked operations *)
  | Wake_broadcast
      (** waker-side: fallback woke every waiter of the engine (poison,
          kick-round cap, shutdown); [a] = waiter count *)

val kind_name : kind -> string

type ring
type event = {
  e_ts : float;
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_dom : int;  (** id of the domain that recorded the event *)
}

val create_ring : ?locked:bool -> ?cap:int -> string -> ring
(** Register a new lane. [locked] (default false) adds an internal mutex —
    required when multiple threads emit without an external lock (engine
    rings are written under the engine lock and skip it). *)

val emit : ring -> kind -> a:int -> b:int -> unit
(** Record one event, stamped with {!Preo_support.Clock.now}. Constant-time,
    allocation-free; overwrites the oldest event when the ring is full.
    Callers are expected to guard with [if !Obs.tracing]. *)

val events : ring -> event list
(** Snapshot, oldest first (at most the ring capacity). *)

val rings : unit -> ring list
(** All registered rings, in creation order. *)

val ring_name : ring -> string
val ring_id : ring -> int

val ring_label : ring -> string
(** ["name#id"] — unique across rings with colliding names. *)

val recorded : ring -> int
(** Events ever emitted (including overwritten ones). *)

val dropped : ring -> int
(** Events lost to ring overwrite. *)

val reset : unit -> unit
(** Unregister all rings (for tests and benchmarks). Handles already held
    by engines keep accepting events but no longer appear in exports. *)

val vertex_namer : (int -> string) ref
(** How exporters render vertex identifiers; the runtime installs a
    [Vertex.name]-based resolver at init. *)

val set_vertex_namer : (int -> string) -> unit

(** {1 Trace correlation} *)

val correlation : unit -> int
(** This process's trace correlation ID: from [PREO_TRACE_CORR], else
    generated once from pid and clock. Written into every Chrome export so
    exports from cooperating processes merge on a shared ID. *)

val set_correlation : int -> unit
