(** Connector instances: medium automata + a boundary, compiled into running
    engines according to a {!Config.t}, exposing task-facing ports (the
    [Connector.connect] of the paper's Fig. 3). *)

open Preo_automata

exception Compile_failure of string
(** The existing approach exceeded its ahead-of-time composition budget
    (Fig. 12's "existing approach fails" cells). *)

exception Splice_error of string
(** An elastic splice was rejected structurally: the connector is not
    elastic (AOT composition), a retired medium is unknown or owned by a
    partition bridge, or the delta spans several partition regions. Distinct
    from {!Composer.Not_quiescent}, which is transient (retry once traffic
    drains) — a [Splice_error] will not succeed on retry. *)

type t

val create :
  ?config:Config.t ->
  ?backend:Sched.backend ->
  ?name:string ->
  ?domains:int ->
  ?compile:bool ->
  ?local:(int -> bool) ->
  ?cut_gates:
    (int ->
    Partition.cut_shape ->
    tail_region:int ->
    head_region:int ->
    (Engine.gate * Engine.gate) option) ->
  sources:Vertex.t array ->
  sinks:Vertex.t array ->
  Automaton.t list ->
  t
(** [create ~sources ~sinks mediums] compiles and starts a connector whose
    boundary vertices are [sources] (tasks send there) and [sinks] (tasks
    receive there). Default config: {!Config.new_jit}.

    [?backend] selects the round scheduler for JIT-composed configs
    (resolution follows {!Sched.effective}: explicit argument, else
    [Sched.backend] / [PREO_BACKEND], else {!Sched.Automata}).
    {!Sched.Coloring} resolves each synchronization round by color
    propagation over the connector graph instead of expanding product
    states — per-round cost proportional to graph size. The request is
    ignored (automata used) for [Config.Existing] (the ahead-of-time
    product {e is} the automata backend) and for configs with
    [true_synchronous] set (2-coloring cannot express joint independent
    firings). [?name] labels compile/expansion budget errors and stall
    diagnostics with the connector's name (default ["connector"]).

    [?domains] is the parallelism target: it feeds the partitioner (relay
    fan-out/fan-in cuts are only made when > 1) and selects the task
    scheduling policy ({!sched}). Resolution follows
    {!Config.effective_domains}: an explicit argument wins, else the
    process-wide [Config.domains] / [PREO_DOMAINS], else
    [Domain.recommended_domain_count], clamped to [Config.max_domains].

    [?compile] controls compiled transition dispatch and region
    sequentialization together (resolution follows
    {!Config.effective_compile}: explicit argument, else [Config.compile] /
    [PREO_COMPILE], else on): solved commands are lowered into closed
    closures fired without interpretation, and the partitioner fuses region
    pairs whose cross-cut traffic is provably strictly alternating.
    [false] gives the interpreted, unfused reference semantics.

    [?local] and [?cut_gates] are the shard fabric's placement hooks (only
    meaningful for partitioned configs). [local i] elects whether plan
    region [i] runs in this process: non-local regions get no engine — the
    process that owns them pays their composition and drive cost — and peer
    edges into them are dropped. [cut_gates] is forwarded to
    {!Partition.split} as [gate_for], substituting bridge-backed gates at
    cross-process cuts. A placed connector ([?local] given) is not elastic.
    Ports of non-local boundary vertices do not exist here: {!outport} /
    {!inport} raise [Invalid_argument] for them (probe with {!has_port}). *)

val backend : t -> Sched.backend
(** The backend this connector actually runs on (after the resolution and
    downgrade rules above). *)

val outport : t -> Vertex.t -> Port.outport
val inport : t -> Vertex.t -> Port.inport
val outports : t -> Port.outport array
(** In [sources] order. *)

val inports : t -> Port.inport array

val has_port : t -> Vertex.t -> bool
(** Whether this boundary vertex is routed to a local engine (always true
    for unplaced connectors; on a placed one, false for vertices whose
    region runs in another process). *)

val engine_for_region : t -> int -> Engine.t option
(** The engine running plan region [i], if local. For unpartitioned
    connectors region 0 is the single engine. The shard fabric uses this to
    kick the engine owning a channel's gate when wire traffic flips the
    gate's readiness. *)

val plan_regions : t -> int
(** Total regions in the partition plan, local or not ({!nregions} counts
    only local engines). *)

(** {1 Elastic splicing}

    Run-time task join/leave: rewire a {e live} connector for one task slot
    without a global rebuild. Only JIT-composed connectors (the default
    {!Config.new_jit} and partitioned {!Config.new_partitioned}) are
    elastic. On partitioned connectors the whole delta must fall inside one
    region and away from cut bridges; anything wider raises {!Splice_error}
    (the splice-vs-rebuild boundary). Retired mediums must be quiescent —
    {!Composer.Not_quiescent} is transient: retry once in-flight exchanges
    drain. Pending operations of retired boundary vertices fail individually
    with [Engine.Poisoned] (targeted poison); the rest of the connector
    keeps running throughout. *)

val live_mediums : t -> Automaton.t list
(** The raw medium automata currently composing this connector, including
    any the partitioner turned into bridges. Callers diff fresh template
    instantiations against this list by physical identity. *)

val splice :
  t ->
  add:Automaton.t list ->
  retire:Automaton.t list ->
  add_sources:Vertex.t array ->
  add_sinks:Vertex.t array ->
  retire_vertices:Vertex.t array ->
  unit
(** Core rewiring primitive. [retire] members must be physically identical
    ([==]) to elements of {!live_mediums}; [add] automata arrive raw.
    [add_sources]/[add_sinks] join the boundary; [retire_vertices] leave it
    (their pending ops get targeted poison). Serialized per connector. *)

val attach :
  t ->
  ?retire:Automaton.t list ->
  sources:Vertex.t array ->
  sinks:Vertex.t array ->
  Automaton.t list ->
  unit
(** [attach t ~sources ~sinks mediums]: a task joins — register its fresh
    boundary vertices and splice in its medium automata. [?retire] drops
    mediums the new wiring replaces (e.g. a ring-closing fifo that moves). *)

val detach :
  t ->
  ?add:Automaton.t list ->
  ?retire:Automaton.t list ->
  vertices:Vertex.t array ->
  unit ->
  unit
(** [detach t ~retire ~vertices ()]: a task leaves — retire its mediums,
    withdraw its boundary [vertices] (only {e its} pending ops are poisoned),
    [?add] splices in any rewiring the remaining topology needs. *)

val splices : t -> int
(** Completed splices so far. *)

val steps : t -> int
(** Total global execution steps across all engines. *)

val compile_seconds : t -> float
(** Time spent composing/preparing before execution started. *)

val engines : t -> Engine.t list
val nregions : t -> int

val regions_fused : t -> int
(** Region pairs the sequentializer merged back at split time (0 for
    unpartitioned configs or when compilation is off). *)

val expansions : t -> int
val cache_evictions : t -> int

val domains : t -> int
(** The effective domain count this connector was instantiated for. *)

val pool : t -> Preo_support.Pool.t option
(** The shared domain pool, when [domains t > 1]. *)

val sched : t -> Task.sched
(** Where this connector's tasks should run: [Task.Domains pool] when built
    for more than one domain, [Task.Threads] otherwise. Pass to
    [Task.spawn ~on] / [Task.run_all ~on]. *)

val poison : ?stall:Engine.stall_report -> t -> string -> unit
(** Shut every engine down. [stall] (defaulting to the most recent recorded
    stall report, if any, unless [msg] is plain ["shutdown"]) is appended to
    the poison message so released tasks — including those blocked on other
    partitioned regions — see the diagnosis in their [Poisoned] payload. *)

val close : t -> unit
(** Orderly shutdown: [poison t "shutdown"]. Wakes every blocked task with
    [Engine.Poisoned "shutdown"] and clears per-thread engine-trace entries,
    so a closed connector leaves no operation bookkeeping behind. *)

val last_stall : t -> Engine.stall_report option
(** The longest-waited stall report recorded by any engine, from a deadline
    expiry or the {!Config.stall_threshold} watchdog. *)

val failure : t -> string option
(** The first engine-poisoning reason other than plain shutdown, if any
    (e.g. a JIT expansion blow-up). *)

type stats = {
  st_steps : int;  (** fired transitions across all engines *)
  st_regions : int;
  st_expansions : int;  (** JIT state expansions (0 under the existing approach) *)
  st_cache_hits : int;
  st_cache_evictions : int;
  st_compile_seconds : float;
  st_solver_calls : int;
      (** firing-loop [Command.solve] calls (0 when labels are optimized) *)
  st_cond_waits : int;  (** blocked operations parked on a condition variable *)
  st_peer_kicks : int;  (** cross-engine nudges (partitioned runtime) *)
  st_cand_hits : int;  (** candidate-cache hits in the firing loop *)
  st_stalls : int;  (** stall reports recorded (watchdog trips + deadline expiries) *)
  st_wakes_targeted : int;
      (** per-vertex wake signals issued after firings (one per woken vertex) *)
  st_wakes_spurious : int;
      (** wakes after which the woken operation re-parked without engine
          progress; the spurious fraction is [st_wakes_spurious /
          st_cond_waits] *)
  st_wakes_broadcast : int;
      (** fallback wake-everyone broadcasts (poison, kick-round cap,
          shutdown) *)
  st_mpsc_ops : int;
      (** blocking operations published through the lock-free submission
          queues (try-ops and gate traffic bypass them) *)
  st_mpsc_batches : int;
      (** nonempty submission-queue drains; [st_mpsc_ops /
          st_mpsc_batches] is the mean installed batch size *)
  st_mpsc_fast : int;
      (** operations completed without the submitting task ever taking an
          engine mutex (lock-free fast path) *)
  st_domains : int;  (** effective domain count (see {!domains}) *)
  st_splices : int;  (** elastic splices completed (see {!splices}) *)
  st_color_rounds : int;
      (** synchronization rounds resolved by color propagation (coloring
          backend; 0 under automata) *)
  st_color_iters : int;
      (** color-propagation iterations — row trials, counting each seed row
          tried (from the owners of pending vertices, or internal-capable)
          and each row tried for a pulled medium. Failed probes and
          confirmations that nothing more is enabled count too, so
          [st_color_iters / st_color_rounds] is the mean propagation cost
          per resolved round *)
  st_compiled_fires : int;
      (** firings executed through closure-compiled commands
          ([Command.compile]): guard check + moves in one pre-bound call *)
  st_interp_fires : int;
      (** firings through the interpreted guard/move walk — everything when
          [PREO_COMPILE=0], otherwise only unsolved-lazily or exotic
          (late-bound Datafun) commands *)
  st_regions_fused : int;
      (** region pairs the sequentializer merged back (see
          {!regions_fused}) *)
  st_shard_batches : int;
      (** [Sh_batch] frames sent by the shard fabric (each coalesces one
          channel's whole flush). Process-wide, like all [st_shard_*]
          fields: they aggregate every shard link in the process (see
          {!Shard_stats}); in-process connectors report 0. *)
  st_shard_items : int;  (** values carried inside those batch frames *)
  st_shard_acks : int;  (** values acknowledged by remote shards *)
  st_shard_reconnects : int;
      (** successful reconnect+resume cycles after link failures *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {1 Trace export}

    Both exporters render every trace lane registered in the process: this
    connector's engines (one lane each, present even if empty) plus shared
    lanes — partition-bridge slots. Events are recorded only
    while tracing is enabled ([Preo.set_tracing] / [PREO_TRACE]). *)

val dump_trace : t -> string
(** Human-readable event listing. *)

val chrome_trace : t -> string
(** Chrome trace-event JSON (load in Perfetto or [chrome://tracing]). *)
