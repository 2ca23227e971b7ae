(** Sharded multi-process connector fabric.

    Partition a connector's regions across worker processes: each
    cross-process cut of the {!Preo_runtime.Partition} plan becomes a
    batched, backpressured, exactly-once wire channel over a loopback TCP
    socket. The host (process 0) owns the boundary ports and the worker
    lifecycle; workers are [preoc worker] processes that rebuild the same
    plan from the same DSL source and run only their assigned regions.

    Guarantees per channel:
    - {b batching}: all values committed since the last flush travel in one
      frame;
    - {b backpressure}: at most [window] unacknowledged values are in
      flight — beyond that the producing region's gate closes and the
      producer task parks;
    - {b resume}: on link failure the host retries with exponential
      backoff, respawning dead workers; a reconnecting worker resumes each
      consuming channel at the greater of its journal's recovered count
      and the ack floor the host ships in the configuration frame — so a
      respawned worker without a journal picks up exactly where the host's
      replay starts — reports that position, and the unacked window is
      replayed (duplicates are dropped by sequence number). With a journal
      the channel is exactly-once with respect to the journal contents;
    - {b escalation}: an exhausted retry budget poisons every region in
      every process with a structured diagnosis — parked producers are
      released, nothing hangs. The budget is only refunded by sessions
      that do useful work (progress or a minimum lifetime), and total
      respawns per link are capped, so a worker that repeatedly dies
      after resume still escalates rather than respawning forever.

    Topology is a star: every cross-process cut must keep one side on the
    host, and only queue-shaped cuts (async fifo boundaries) may cross
    processes. {!host} rejects other placements with [Invalid_argument]. *)

(** {1 Placement plan} *)

val plan :
  ?domains:int ->
  ?compile:bool ->
  source:string ->
  name:string ->
  lengths:(string * int) list ->
  unit ->
  Preo_runtime.Partition.plan
(** Compile [name] from [source], instantiate with [lengths], and return
    the partition plan the fabric will shard — inspect [plan.cuts] (each
    cut's tail/head region) to choose a [place] function before calling
    {!host}. Deterministic: every process building the same (source, name,
    lengths, domains, compile) sees identical region and cut indices. *)

val boundary_regions :
  ?domains:int ->
  ?compile:bool ->
  source:string ->
  name:string ->
  lengths:(string * int) list ->
  unit ->
  (string * int array) list
(** For each boundary group, the plan region index owning each element —
    the map a [place] function needs ("put [hd[i]]'s region on worker
    [1 + i mod W]"). [-1] if an element landed in no region (does not
    happen for realizable boundaries). Deterministic like {!plan}. *)

(** {1 Workloads}

    Worker task code cannot be shipped as closures, so it is named. *)

type workload =
  | Produce of { w_group : string; w_indices : int list; w_count : int }
      (** One task per index of boundary group [w_group], each sending
          [Value.int 0 .. w_count-1] ([w_count < 0]: unbounded). *)
  | Consume of { w_group : string; w_indices : int list; w_clients : int }
      (** One task per index draining the port; every delivery increments
          [w_clients] simulated per-client counters. *)

(** {1 Host} *)

type host

val host :
  ?window:int ->
  ?domains:int ->
  ?compile:bool ->
  ?retries:int ->
  ?backoff:float ->
  ?hello_timeout:float ->
  ?journal_dir:string ->
  ?latency_every:int ->
  ?exe:string ->
  nworkers:int ->
  place:(int -> int) ->
  workloads:(int -> workload list) ->
  source:string ->
  name:string ->
  lengths:(string * int) list ->
  unit ->
  host
(** Build the sharded instance and spawn [nworkers] worker processes.

    [place r] maps plan region [r] to a process: [0] is the host, [1 ..
    nworkers] are workers. [workloads w] names the tasks worker [w] runs.
    [window] (default 1024) bounds unacked values per channel. [retries]
    (default 3) and [backoff] (default 0.25s, doubling) govern reconnect
    attempts per link failure. [journal_dir] enables a journal per
    worker-consumed channel under that directory (create it first).
    [latency_every] samples every Nth producer send for round-trip
    latency (0: off, see {!latencies}). [exe] is the worker binary
    (default: [$PREO_PREOC], else [preoc.exe] next to the running
    executable's [../bin], else [preoc] from [$PATH]). *)

val connector : host -> Preo_runtime.Connector.t
(** The host's placed connector (for stats, poison, port access). *)

val outport_at : host -> string -> int -> Preo_runtime.Port.outport
(** [outport_at h group i]: port of boundary vertex [group[i]]. Raises
    [Invalid_argument] if that vertex's region is placed on a worker. *)

val inport_at : host -> string -> int -> Preo_runtime.Port.inport

val latencies : host -> float list
(** Drain collected producer-send → ack round-trip samples (seconds). *)

val worker_pids : host -> int array

val kill_worker : host -> int -> unit
(** [kill_worker h w]: SIGKILL worker [w] (1-based) — crash injection for
    tests; the manager respawns it within the retry budget. *)

val shutdown : host -> (int * Unix.process_status) list
(** Orderly teardown: flush and send [Sh_close] on every link, close the
    connector, reap the workers (SIGKILL after a bounded wait) and join the
    fabric threads. Returns each worker's pid and exit status — a worker
    that saw the close exits 0. *)

(** {1 Worker} *)

val worker_main : ?retries:int -> ?backoff:float -> port:int -> token:string -> unit -> int
(** Body of [preoc worker]: connect to the host, handshake (hello → cfg →
    resume), rebuild the plan locally, run assigned regions and workloads
    until the host closes the link. Returns the process exit code: 0 clean
    close, 1 link lost (the host respawns us), 2 structural mismatch,
    3 poisoned. *)

(** {1 Journals} *)

val journal_path : dir:string -> ch:int -> string
(** Where the channel [ch] journal lives under [dir]. *)

val read_journal : string -> Preo_support.Value.t list
(** Decode a journal's complete lines ([] if the file does not exist). *)

val recover_journal : string -> int
(** Durable value count; truncates a torn trailing line in place. *)

val journal_line : Preo_support.Value.t -> string
(** The hex line {!read_journal} decodes (exposed for tests). *)
