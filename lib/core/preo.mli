(** Public facade of the parametrized-Reo library.

    Typical use:

    {[
      let compiled = Preo.compile ~source ~name:"OrderedMergerN" in
      let inst =
        Preo.instantiate compiled ~lengths:[ ("tl", 8); ("hd", 1) ]
      in
      let producers = Preo.outports inst "tl" in
      let consumer = (Preo.inports inst "hd").(0) in
      ...spawn tasks using Preo.Port.send / Preo.Port.recv...
    ]}

    or, with a [main] definition in the DSL source, register the task bodies
    and call {!run_main}. *)

module Ast = Preo_lang.Ast
module Parser = Preo_lang.Parser
module Sema = Preo_lang.Sema
module Flatten = Preo_lang.Flatten
module Normalize = Preo_lang.Normalize
module Template = Preo_lang.Template
module Eval = Preo_lang.Eval
module Value = Preo_support.Value
module Pool = Preo_support.Pool
module Port = Preo_runtime.Port
module Task = Preo_runtime.Task
module Config = Preo_runtime.Config
module Sched = Preo_runtime.Sched
module Connector = Preo_runtime.Connector
module Engine = Preo_runtime.Engine
module Datafun = Preo_automata.Datafun
module Obs = Preo_obs.Obs
module Metrics = Preo_obs.Metrics
module Trace_export = Preo_obs.Export

exception Error of string

(** {1 Compilation} *)

type compiled = {
  program : Ast.program;
  def : Ast.conn_def;  (** the chosen connector definition *)
  flat : Ast.conn_def;  (** after flattening *)
  template : Template.t;  (** compile-time share of the new approach *)
}

val parse_check : string -> Ast.program
(** Parse and semantically check DSL source. Raises {!Error} with the parser
    or checker message. *)

val compile : source:string -> name:string -> compiled
val compile_program : Ast.program -> name:string -> compiled

(** {1 Instantiation} *)

type instance

val instantiate :
  ?config:Config.t ->
  ?backend:Sched.backend ->
  ?domains:int ->
  ?compile:bool ->
  compiled ->
  lengths:(string * int) list ->
  instance
(** Create boundary vertices ([lengths] sizes each array parameter), run the
    run-time share (or, under [Config.Existing], evaluate and compose
    everything), and start the connector. Default config: [Config.new_jit].
    [?backend] picks the round scheduler — [Sched.Coloring] resolves rounds
    by color propagation instead of product-state expansion; resolution and
    downgrade rules in {!Connector.create}. [?domains] sets the parallelism
    target (see {!Connector.create}). [?compile] toggles compiled transition
    dispatch and region sequentialization (default on; see
    {!Connector.create}). Raises {!Connector.Compile_failure}
    if the existing approach exceeds its composition budget. *)

val groups : instance -> (string * bool) list
(** Parameter groups of the instance: (name, is_source). *)

(** {1 Elastic grow/shrink}

    Run-time task join/leave on an instance built by {!instantiate} under the
    new approach: resizing a parameter group re-runs the run-time share
    against the updated environment and splices only the difference into the
    live connector ({!Connector.splice}) — mediums whose wiring is unchanged
    keep their run-time state, no global rebuild. Raises {!Error} on
    instances built by {!run_main} or under [Config.Existing] (ahead-of-time
    composition freezes the product).

    Retiring a medium requires it to be quiescent; a transient
    {!Connector.Composer.Not_quiescent} means some in-flight exchange still
    occupies the affected wiring — let traffic drain and retry the call
    (instance bookkeeping is rolled back, so retrying is always safe). *)

val grow : instance -> string -> int
(** [grow inst name] adds one port slot to parameter group [name] and
    returns its index (groups are 1-based, so the first [grow] on a group of
    [n] returns [n + 1]). Fetch the new port with {!outport_at} /
    {!inport_at}. *)

val shrink : ?index:int -> instance -> string -> unit
(** [shrink inst name] removes the port slot [?index] (default: the last) of
    parameter group [name]. The leaving slot's pending operations fail with
    [Engine.Poisoned] (targeted poison — other tasks keep running); its
    mediums are retired once quiescent. Remaining slots keep their indices
    below [index] and shift down above it, mirroring the group array. *)

val group_size : instance -> string -> int
(** Current number of ports in a parameter group. *)

val outport_at : instance -> string -> int -> Port.outport
(** Port of a tail-side group at a 1-based index (fresh lookup — valid
    across {!grow}/{!shrink}). *)

val inport_at : instance -> string -> int -> Port.inport

val outports : instance -> string -> Port.outport array
(** Ports of a tail-side parameter group, in index order. *)

val inports : instance -> string -> Port.inport array
val connector : instance -> Connector.t
val steps : instance -> int

val sched : instance -> Task.sched
(** Where this instance's tasks should run: the shared domain pool when the
    connector was built for more than one domain, inline threads otherwise.
    Pass to [Task.spawn ~on] / [Task.run_all ~on]. *)

val shutdown : instance -> unit
(** Poison the connector, releasing any blocked task. *)

val set_domains : int option -> unit
(** Configure the process-wide default domain count
    ({!Config.domains} / [PREO_DOMAINS]): [Some n] makes subsequent
    connector instantiations target [n] domains (clamped to
    [Config.max_domains]); [None] falls back to
    [Domain.recommended_domain_count]. *)

val set_backend : Sched.backend option -> unit
(** Configure the process-wide default execution backend
    ({!Sched.backend} / [PREO_BACKEND]): [Some Sched.Coloring] makes
    subsequent instantiations resolve rounds by connector coloring,
    [Some Sched.Automata] by (JIT) product automata; [None] falls back to
    the environment variable, then automata. *)

val backend : instance -> Sched.backend
(** The backend the instance actually runs on (a coloring request degrades
    to automata under [Config.Existing] or [true_synchronous]). *)

val set_compile : bool option -> unit
(** Configure the process-wide default for compiled transition dispatch and
    region sequentialization ({!Config.compile} / [PREO_COMPILE]):
    [Some false] makes subsequent instantiations interpret every command and
    skip sequentialization (the reference semantics); [Some true] forces
    compilation on; [None] falls back to the environment variable, then on. *)

val set_stall_threshold : float option -> unit
(** Configure the global stall watchdog ({!Config.stall_threshold}): a port
    operation blocked longer than this many seconds has a stall report
    recorded against its engine (see {!last_stall}); [None] turns the
    watchdog off. *)

val last_stall : instance -> Engine.stall_report option
(** The most significant stall report recorded by the instance's engines —
    what was pending, how many transitions were enabled, and the engine
    counters at the moment a deadline expired or the watchdog tripped. *)

(** {1 Observability}

    Structured tracing and metrics ({!Obs}, {!Metrics}, {!Trace_export}).
    When tracing is enabled — here or via the [PREO_TRACE] environment
    variable — every engine records firings, port-operation lifecycles, JIT
    expansions, stalls and poisonings into a fixed-size ring; partition
    bridges record slot traffic. When it is off (the default), the runtime
    pays one branch per recording site. *)

val set_tracing : bool -> unit
val tracing_enabled : unit -> bool

val dump_trace : instance -> string
(** Human-readable listing of all recorded trace events. *)

val chrome_trace : instance -> string
(** Chrome trace-event JSON (load in Perfetto or [chrome://tracing]);
    includes every trace lane registered in the process. *)

(** {1 Running a [main] definition} *)

type port_arg =
  | Outs of Port.outport array
  | Ins of Port.inport array
      (** what a task signature argument denotes: one or more ports of a
          single group, in the order written *)

val out1 : port_arg -> Port.outport
(** Convenience: the single outport of an argument (raises {!Error} if the
    argument is not exactly one outport). *)

val in1 : port_arg -> Port.inport

val run_main :
  ?config:Config.t ->
  ?backend:Sched.backend ->
  ?domains:int ->
  ?compile:bool ->
  program:Ast.program ->
  params:(string * int) list ->
  (string * (port_arg list -> unit)) list ->
  instance
(** Instantiate the [main] connector with the given integer parameters,
    spawn one task per task instance ([forall] items expand) — on the shared
    domain pool when the connector targets more than one domain — wait for
    all of them, and return the finished instance (for inspecting step
    counts). [tasks] maps the task names used in [main] (e.g. ["Tasks.pro"])
    to OCaml functions. *)

val run_main_source :
  ?config:Config.t ->
  ?backend:Sched.backend ->
  ?domains:int ->
  ?compile:bool ->
  source:string ->
  params:(string * int) list ->
  (string * (port_arg list -> unit)) list ->
  instance
