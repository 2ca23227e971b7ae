open Preo_support
open Preo_automata
module Obs = Preo_obs.Obs
module Metrics = Preo_obs.Metrics

exception Poisoned of string

(* Teach the exporters how to render vertex ids; obs itself cannot depend on
   the automata layer. *)
let () = Obs.set_vertex_namer (fun v -> Printf.sprintf "%s#%d" (Vertex.name v) v)

(* Registered eagerly (cheap, once) so `preoc trace --metrics` always has the
   full set; recording sites still guard on !Obs.tracing. *)
let m_port_wait =
  Metrics.histogram ~help:"blocking port-operation wait time"
    ~buckets:Metrics.seconds_buckets "port_wait_seconds"

let m_fire_batch =
  Metrics.histogram ~help:"transitions fired per drive batch"
    ~buckets:Metrics.size_buckets "fire_batch_size"

let m_fires = Metrics.counter ~help:"transitions fired" "transitions_fired_total"
let m_parks = Metrics.counter ~help:"operation parks" "port_parks_total"
let m_stalls = Metrics.counter ~help:"stall reports" "stalls_total"

type gate = {
  gate_ready : unit -> bool;
  gate_peek : unit -> Value.t;
  gate_commit : Value.t option -> unit;
  gate_dump : unit -> string;
}

(* Structured diagnosis of a blocked operation: what the engine (and its
   partitioned peers) looked like when a deadline expired or the stall
   watchdog tripped. *)
type engine_snapshot = {
  es_steps : int;
  es_waits : int;
  es_kicks : int;
  es_pending : string list;
  es_candidates : int;  (** -1 when the composer budget is exhausted *)
  es_gates : string list;
  es_poisoned : string option;
}

type stall_report = {
  sr_op : string;
  sr_vertex : string;
  sr_waited : float;
  sr_engines : engine_snapshot list;
}

exception Timed_out of stall_report

(* Per-vertex parking list: every blocked operation waits on its vertex's
   own condition variable (all sharing the engine mutex), so a firing can
   wake exactly the tasks whose operations completed instead of the whole
   herd. [w_parked] counts operations currently inside Condition.wait; a
   waker skips vertices with nobody parked. [w_queued] dedups membership in
   the engine's wake-list without a set structure. *)
type waiter = {
  w_cond : Condition.t;
  w_vertex : Vertex.t;
  mutable w_parked : int;
  mutable w_queued : bool;
}

(* Blocking ops carry their vertex's waiter (resolved by whichever thread
   drains the submission queue) so completion inside the firing loop
   reaches the right condition variable with no lookup at all; nonblocking
   try-ops leave it [None] — their issuing thread is the one driving,
   nobody needs a wake.

   Completion ([s_done] / [r_result]) is atomic, not a plain mutable: on
   the lock-free fast path the submitting task polls it from outside the
   engine lock while the current lock holder completes it inside, possibly
   on another domain. The waiter field stays plain mutable — it is only
   touched under the engine lock (set at drain, read at completion).

   [s_tid]/[r_tid] record the submitting thread so the drainer — a
   different thread — can still emit this op's Submit trace event under
   the original task's id. *)
type send_op = {
  sv : Value.t;
  s_done : bool Atomic.t;
  mutable s_w : waiter option;
  s_tid : int;
  s_fail : string option Atomic.t;
      (* targeted failure: set when the op's vertex is retired by an elastic
         splice (at drain time or while queued); the owner raises [Poisoned]
         for just this op — the rest of the connector keeps running *)
}

type recv_op = {
  r_result : Value.t option Atomic.t;
  mutable r_w : waiter option;
  r_tid : int;
  r_fail : string option Atomic.t;
}

(* An operation published to the lock-free submission queue, before the
   drainer has installed it into the per-vertex queues. *)
type sub = Sub_send of Vertex.t * send_op | Sub_recv of Vertex.t * recv_op

type t = {
  lock : Mutex.t;
  comp : Composer.t;
  mutable cells : Value.t option array;
      (** mutable: {!splice} grows the cell store when added mediums bring
          fresh slots (never shrunk; retired slots are simply cleared) *)
  subs : sub Mpsc.t;
      (** lock-free submission queue: tasks publish operations here with a
          CAS; whichever thread next drives the engine (under the lock)
          drains them in one batch into the per-vertex queues *)
  send_q : (Vertex.t, send_op Queue.t) Hashtbl.t;
  recv_q : (Vertex.t, recv_op Queue.t) Hashtbl.t;
  mutable base_pending : Iset.t;  (** vertices with nonempty queues *)
  mutable retired : Iset.t;
      (** vertices removed by elastic splices; operations arriving on them
          (from tasks holding stale ports) fail immediately at drain time
          instead of queueing forever *)
  gates : (Vertex.t * gate) array;
  gate_tbl : (Vertex.t, gate_entry) Hashtbl.t;
      (** O(1) view of [gates], each entry fused with the peer engine behind
          its bridge so the firing loop resolves gate + kick target in one
          lookup *)
  mutable gate_pending : Iset.t;
      (** cached gate-readiness; meaningful only while [gate_valid].
          External gate changes only ever turn readiness ON (the peer that
          consumes a slot re-drives us via a kick), so a stale cache can
          under-report but never over-report enabledness. *)
  mutable gate_valid : bool;
  waiters : (Vertex.t, waiter) Hashtbl.t;
      (** per-vertex parking lists; entries are created lazily and kept for
          the engine's lifetime (boundary vertices are a small fixed set) *)
  mutable wake_list : waiter list;
      (** waiters with a parked task whose operations completed since the
          last {!flush_wakes} — the wake-set of the current drive loop
          (deduplicated via [w_queued]) *)
  mutable kick_list : t list;
      (** peer engines behind gates committed since the last kick flush
          (already resolved through [gate_peer]; tiny, deduped by memq) *)
  mutable kick_missing : bool;
      (** a committed gate had no [gate_peer] mapping (hand-wired gates):
          fall back to kicking every peer at the next flush *)
  (* Counters are atomic, not plain ints: they are bumped under the engine
     lock but read lock-free by [Connector.stats] — possibly from another
     domain once tasks run on a pool. *)
  nsteps : int Atomic.t;
  nwaits : int Atomic.t;  (** times a blocked operation parked *)
  nkicks : int Atomic.t;  (** peer-engine nudges issued after firings *)
  nwakes_t : int Atomic.t;  (** targeted per-vertex wake signals issued *)
  nwakes_sp : int Atomic.t;  (** wakes after which the woken op re-parked
                                 without the engine having progressed *)
  nwakes_b : int Atomic.t;  (** broadcast fallbacks (poison, kick-round cap) *)
  nstalls : int Atomic.t;  (** stall reports recorded (watchdog + deadlines) *)
  nmpsc_ops : int Atomic.t;  (** operations that went through the MPSC queue *)
  nmpsc_batches : int Atomic.t;  (** nonempty drains of the MPSC queue *)
  nmpsc_fast : int Atomic.t;
      (** ops completed on the lock-free fast path: the submitting task
          never took the engine mutex *)
  mutable fire_env : Command.env option;
      (** the one [Command.env] this engine ever allocates: its closures
          capture [t] (not the cell array, which splice replaces) and stage
          into [staged_cells]/[delivered] below — reset at the top of every
          firing attempt, all under the engine lock *)
  mutable staged_cells : (int * Value.t) list;
  mutable delivered : (Vertex.t * Value.t) list;
  mutable last_stall : stall_report option;
  poison_flag : string option Atomic.t;
      (* read without the lock so overloaded engines notice shutdown *)
  mutable poisoned : string option;
  mutable peers : t list;
  mutable need_kick : bool;
  visit_stamp : int Atomic.t;
      (* kick_all bookkeeping: stamped with the traversal round's epoch
         instead of scanning membership lists (atomic so concurrent
         traversals with distinct epochs stay independent) *)
  defer_stamp : int Atomic.t;
  mutable on_fire : (Iset.t -> unit) option;
      (* called with each fired sync set, under the engine lock (tracing) *)
  ename : string;
  mutable oring : Obs.ring option;
      (* created on first traced emit; written only under the engine lock,
         so it needs no ring mutex of its own *)
  mutable last_exp : int;  (** JIT expansions already reported to the ring *)
}

and gate_entry = {
  ge_gate : gate;
  mutable ge_peer : t option;
      (** the engine sharing this gate's bridge (partitioned runtime); [None]
          falls back to kicking every peer *)
}

let create ?(gates = []) ?(name = "engine") comp =
  let gate_tbl = Hashtbl.create (max 1 (List.length gates)) in
  List.iter
    (fun (v, g) -> Hashtbl.replace gate_tbl v { ge_gate = g; ge_peer = None })
    gates;
  {
    lock = Mutex.create ();
    comp;
    cells = Array.make (max 1 (Composer.ncells comp)) None;
    subs = Mpsc.create ();
    send_q = Hashtbl.create 16;
    recv_q = Hashtbl.create 16;
    base_pending = Iset.empty;
    retired = Iset.empty;
    gates = Array.of_list gates;
    gate_tbl;
    gate_pending = Iset.empty;
    gate_valid = false;
    waiters = Hashtbl.create 16;
    wake_list = [];
    kick_list = [];
    kick_missing = false;
    nsteps = Atomic.make 0;
    nwaits = Atomic.make 0;
    nkicks = Atomic.make 0;
    nwakes_t = Atomic.make 0;
    nwakes_sp = Atomic.make 0;
    nwakes_b = Atomic.make 0;
    nstalls = Atomic.make 0;
    nmpsc_ops = Atomic.make 0;
    nmpsc_batches = Atomic.make 0;
    nmpsc_fast = Atomic.make 0;
    fire_env = None;
    staged_cells = [];
    delivered = [];
    last_stall = None;
    poison_flag = Atomic.make None;
    poisoned = None;
    peers = [];
    need_kick = false;
    visit_stamp = Atomic.make 0;
    defer_stamp = Atomic.make 0;
    on_fire = None;
    ename = name;
    oring = None;
    last_exp = 0;
  }

(* The ring is the engine's trace lane; created lazily so untraced runs
   never register anything. Callers hold the engine lock. *)
let obs_ring t =
  match t.oring with
  | Some r -> r
  | None ->
    let r = Obs.create_ring t.ename in
    t.oring <- Some r;
    r

let set_peers t peers = t.peers <- peers

let set_gate_peers t pairs =
  List.iter
    (fun (v, p) ->
      match Hashtbl.find_opt t.gate_tbl v with
      | Some e -> e.ge_peer <- Some p
      | None -> ())
    pairs

let set_on_fire t f = t.on_fire <- f
let composer t = t.comp
let steps t = Atomic.get t.nsteps
let cond_waits t = Atomic.get t.nwaits
let peer_kicks t = Atomic.get t.nkicks
let wakes_targeted t = Atomic.get t.nwakes_t
let wakes_spurious t = Atomic.get t.nwakes_sp
let wakes_broadcast t = Atomic.get t.nwakes_b
let stalls t = Atomic.get t.nstalls
let mpsc_ops t = Atomic.get t.nmpsc_ops
let mpsc_batches t = Atomic.get t.nmpsc_batches
let mpsc_fast t = Atomic.get t.nmpsc_fast
let compiled_fires t = Composer.compiled_fires t.comp
let interp_fires t = Composer.interp_fires t.comp

(* --- Targeted wakeups -------------------------------------------------------
   Operations complete only inside [fire_one], under the engine lock, and a
   parked task holds the lock continuously from its last [finished ()] check
   to [Condition.wait] — so recording completed vertices in [wake_pending]
   and signalling their waiters before the lock is released cannot lose a
   wakeup. Paths that cannot name a vertex (poison, kick-round cap) fall
   back to [wake_all], counted separately. *)

let waiter_of t v =
  match Hashtbl.find_opt t.waiters v with
  | Some w -> w
  | None ->
    let w =
      { w_cond = Condition.create (); w_vertex = v; w_parked = 0;
        w_queued = false }
    in
    Hashtbl.add t.waiters v w;
    w

(* A task-facing operation just completed: queue its waiter (carried in
   the op since submit) for the end-of-drive-loop flush. Skipped when
   nobody is parked there — the lock is held from here through
   {!flush_wakes}, so no task can park in between, and a non-parked task
   re-checks [finished] itself. Caller holds the lock. *)
let queue_wake t = function
  | Some w when w.w_parked > 0 && not w.w_queued ->
    w.w_queued <- true;
    t.wake_list <- w :: t.wake_list
  | _ -> ()

(* Signal the waiters of every vertex in the wake-set. Caller holds the
   lock; runs at the end of each drive loop (and on the try_step path). *)
let flush_wakes t =
  match t.wake_list with
  | [] -> ()
  | ws ->
    t.wake_list <- [];
    List.iter
      (fun w ->
        w.w_queued <- false;
        if w.w_parked > 0 then begin
          Atomic.incr t.nwakes_t;
          if !Obs.tracing then
            Obs.emit (obs_ring t) Obs.Wake_targeted ~a:w.w_vertex
              ~b:w.w_parked;
          (* One parked op: a single signal wakes exactly it. Several
             parked on the same vertex: broadcast — which of them can
             proceed depends on queue order, and the losers re-park (the
             spurious-wake counter picks them up). *)
          if w.w_parked = 1 then Condition.signal w.w_cond
          else Condition.broadcast w.w_cond
        end)
      ws

(* Correctness backstop: wake every parked operation so each re-examines the
   engine itself (poison delivery, kick-round cap, shutdown). *)
let wake_all t =
  List.iter (fun w -> w.w_queued <- false) t.wake_list;
  t.wake_list <- [];
  let woken = ref 0 in
  Hashtbl.iter
    (fun _ w ->
      if w.w_parked > 0 then begin
        woken := !woken + w.w_parked;
        Condition.broadcast w.w_cond
      end)
    t.waiters;
  Atomic.incr t.nwakes_b;
  if !Obs.tracing then Obs.emit (obs_ring t) Obs.Wake_broadcast ~a:!woken ~b:0

let entry_of t v =
  if Array.length t.gates = 0 then None else Hashtbl.find_opt t.gate_tbl v

let gate_of t v =
  match entry_of t v with Some e -> Some e.ge_gate | None -> None

(* This gate just committed: remember which peer engine shares its bridge
   so the next kick flush re-drives exactly that engine. Gates with no
   mapping (hand-wired in tests) degrade to kicking every peer. Caller
   holds the lock. *)
let queue_kick t e =
  match e.ge_peer with
  | Some p -> if not (List.memq p t.kick_list) then t.kick_list <- p :: t.kick_list
  | None -> t.kick_missing <- true

let queue_of tbl v =
  match Hashtbl.find_opt tbl v with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add tbl v q;
    q

(* Pending boundary set. Engines without gates (the common case) pay
   nothing; gated engines refold readiness only when the cache was
   invalidated (on entry to a drive loop, and after a firing that committed
   to a gate). *)
let pending_now t =
  if Array.length t.gates = 0 then t.base_pending
  else begin
    if not t.gate_valid then begin
      t.gate_pending <-
        Array.fold_left
          (fun acc (v, g) -> if g.gate_ready () then Iset.add v acc else acc)
          Iset.empty t.gates;
      t.gate_valid <- true
    end;
    Iset.union t.base_pending t.gate_pending
  end

let invalidate_gates t = if Array.length t.gates > 0 then t.gate_valid <- false

let check_poison t =
  (match (t.poisoned, Atomic.get t.poison_flag) with
   | None, Some msg -> t.poisoned <- Some msg
   | _ -> ());
  match t.poisoned with Some msg -> raise (Poisoned msg) | None -> ()

(* Install everything published to the lock-free submission queue into the
   real per-vertex queues; returns whether anything was installed. Runs
   under the engine lock, at the top of every drive (and from the poison /
   exception paths). Non-raising by construction, so an op popped from the
   MPSC queue always lands in a queue where the poison, deadline-withdraw
   and stall machinery can reach it — an [Expansion_budget] or poison in a
   later solve finds it parked in the queue, never dropped.

   Submit trace events are emitted here, by the drainer, under the
   submitting task's recorded thread id: the obs ring keeps its
   single-writer-under-the-engine-lock discipline even though submission
   itself no longer takes the lock. *)
let retired_msg v =
  Printf.sprintf "detached: port %s#%d was retired from the connector"
    (Vertex.name v) v

let drain_subs t =
  match Mpsc.pop_all t.subs with
  | [] -> false
  | subs ->
    Atomic.incr t.nmpsc_batches;
    let traced = !Obs.tracing in
    let n = ref 0 in
    List.iter
      (fun s ->
        incr n;
        match s with
        | Sub_send (v, op) ->
          if Iset.mem v t.retired then begin
            (* Stale port: the vertex was spliced out. Fail just this op —
               its owner re-checks the failure flag in its blocking loop (or
               is woken below if already parked). *)
            Atomic.set op.s_fail (Some (retired_msg v));
            queue_wake t (Hashtbl.find_opt t.waiters v)
          end
          else begin
            op.s_w <- Some (waiter_of t v);
            Queue.push op (queue_of t.send_q v);
            t.base_pending <- Iset.add v t.base_pending;
            if traced then Obs.emit (obs_ring t) Obs.Submit_send ~a:v ~b:op.s_tid
          end
        | Sub_recv (v, op) ->
          if Iset.mem v t.retired then begin
            Atomic.set op.r_fail (Some (retired_msg v));
            queue_wake t (Hashtbl.find_opt t.waiters v)
          end
          else begin
            op.r_w <- Some (waiter_of t v);
            Queue.push op (queue_of t.recv_q v);
            t.base_pending <- Iset.add v t.base_pending;
            if traced then Obs.emit (obs_ring t) Obs.Submit_recv ~a:v ~b:op.r_tid
          end)
      subs;
    ignore (Atomic.fetch_and_add t.nmpsc_ops !n);
    true

(* The engine's single [Command.env]: allocated once, reused for every
   firing attempt (compiled or interpreted). Its closures capture [t], so
   they survive splice (which replaces [t.cells] and the composer's
   boundary) and always see the current state; writes stage into the
   engine's [staged_cells]/[delivered] fields, reset by each attempt. All
   of this happens strictly under the engine lock. *)
let fire_env t =
  match t.fire_env with
  | Some env -> env
  | None ->
    let env =
      {
        Command.read_send =
          (fun v ->
            match gate_of t v with
            | Some g -> g.gate_peek ()
            | None -> (Queue.peek (queue_of t.send_q v)).sv);
        read_cell =
          (fun c ->
            match t.cells.(c) with
            | Some v -> v
            | None ->
              failwith "engine: read from empty cell (corrupt automaton)");
        write_cell = (fun c v -> t.staged_cells <- (c, v) :: t.staged_cells);
        deliver = (fun v value -> t.delivered <- (v, value) :: t.delivered);
      }
    in
    t.fire_env <- Some env;
    env

(* Fire one enabled transition if any; caller holds the lock. *)
let fire_one t =
  let pending = pending_now t in
  let cands = Composer.candidates t.comp ~pending in
  let n = Array.length cands in
  if n = 0 then false
  else begin
    let start = Atomic.get t.nsteps mod n in
    let try_candidate (x : Composer.xtrans) =
      let env = fire_env t in
      t.staged_cells <- [];
      t.delivered <- [];
      if not (Composer.fire t.comp x env) then false
      else begin
        (* Apply staged effects. *)
        List.iter (fun (c, v) -> t.cells.(c) <- Some v) t.staged_cells;
        List.iter
          (fun (v, value) ->
            match entry_of t v with
            | Some e ->
              e.ge_gate.gate_commit (Some value);
              queue_kick t e
            | None ->
              let q = queue_of t.recv_q v in
              let op = Queue.pop q in
              Atomic.set op.r_result (Some value);
              queue_wake t op.r_w;
              if Queue.is_empty q then
                t.base_pending <- Iset.remove v t.base_pending)
          t.delivered;
        (* Complete the consumed sends (their data was either moved by the
           command or discarded by the protocol). *)
        Iset.iter
          (fun v ->
            match entry_of t v with
            | Some e ->
              e.ge_gate.gate_commit None;
              queue_kick t e
            | None ->
              let q = queue_of t.send_q v in
              let op = Queue.pop q in
              Atomic.set op.s_done true;
              queue_wake t op.s_w;
              if Queue.is_empty q then
                t.base_pending <- Iset.remove v t.base_pending)
          x.needs_send;
        (* Every non-gated needed receive must have been delivered. *)
        assert (
          Iset.for_all
            (fun v ->
              gate_of t v <> None
              || List.exists (fun (u, _) -> Vertex.equal u v) t.delivered)
            x.needs_recv);
        Composer.commit t.comp x;
        invalidate_gates t;
        Atomic.incr t.nsteps;
        if !Obs.tracing then begin
          Obs.emit (obs_ring t) Obs.Fire ~a:(Iset.cardinal x.sync)
            ~b:(if Iset.is_empty x.sync then -1 else Iset.choose x.sync);
          Metrics.incr m_fires
        end;
        (match t.on_fire with Some f -> f x.sync | None -> ());
        true
      end
    in
    let rec scan i =
      i < n && (try_candidate cands.((start + i) mod n) || scan (i + 1))
    in
    scan 0
  end

(* Poison this engine and (lock-free) flag its partitioned peers; the
   caller holds the lock, so peers are only marked through their atomic
   flags and woken later through the kick machinery — taking their locks
   here could deadlock against a peer poisoning us. This is what makes a
   cross-region failure (and the poison message, including any attached
   stall report) reach tasks blocked on sibling regions instead of leaving
   them hung forever. *)
let poison_locked t msg =
  if Atomic.get t.poison_flag = None then Atomic.set t.poison_flag (Some msg);
  if t.poisoned = None then begin
    t.poisoned <- Some msg;
    if !Obs.tracing then Obs.emit (obs_ring t) Obs.Poison ~a:0 ~b:0
  end;
  List.iter
    (fun p ->
      if Atomic.get p.poison_flag = None then
        Atomic.set p.poison_flag (Some msg))
    t.peers;
  if t.peers <> [] then t.need_kick <- true;
  (* Ops published but not yet installed would be invisible to the
     wake/stall machinery below: install them first (their owners also
     re-check the poison flag themselves, but the queues must account for
     every popped submission). *)
  ignore (drain_subs t);
  wake_all t

(* Install pending submissions and fire as many transitions as possible;
   returns whether any were installed or fired (progress). *)
let drive t =
  invalidate_gates t;
  let drained = drain_subs t in
  let fired = ref 0 in
  (try
     while fire_one t do
       incr fired
     done
   with Composer.Expansion_budget msg -> poison_locked t msg);
  if !Obs.tracing then begin
    if !fired > 0 then Metrics.observe m_fire_batch (float_of_int !fired);
    let exp = Composer.expansions t.comp in
    if exp > t.last_exp then begin
      Obs.emit (obs_ring t) Obs.Expansion ~a:exp ~b:(exp - t.last_exp);
      t.last_exp <- exp
    end
  end;
  (* The wake-set of this drive loop: signal exactly the vertices whose
     task-facing operations completed, while still holding the lock. *)
  flush_wakes t;
  !fired > 0 || drained

(* Consume this engine's pending kick requests and resolve them to the
   engines that must be re-driven. Gate commits were already resolved
   through [gate_peer] into [kick_list] (exactly the engine sharing each
   bridge); a commit with no mapping (hand-wired gates, tests) set
   [kick_missing] and degrades to kicking every peer, and [need_kick]
   (poison) always means every peer. Caller holds the lock. *)
let take_kick_targets t =
  let need_all = t.need_kick || t.kick_missing in
  t.need_kick <- false;
  t.kick_missing <- false;
  let targets = t.kick_list in
  t.kick_list <- [];
  let targets =
    if not need_all then targets
    else
      List.fold_left
        (fun acc p -> if List.memq p acc then acc else p :: acc)
        targets t.peers
  in
  ignore (Atomic.fetch_and_add t.nkicks (List.length targets));
  targets

(* Nudge peer engines so a firing here propagates through shared gates.
   Each engine is visited at most once per round; a kick aimed at an
   already-visited engine is deferred to the next round rather than
   revisited immediately, so cyclic peer topologies cannot loop. Rounds
   stamp engines with a fresh epoch (two atomically allocated stamps per
   round: visited and deferred) instead of scanning membership lists, so a
   round over k engines costs O(k) rather than O(k²); concurrent traversals
   draw distinct epochs and simply tolerate the occasional double visit.
   The round cap bounds total work; any requests left after it get a
   broadcast wake-up so blocked tasks re-examine their engine themselves.
   The cap is generous because in ring topologies each round advances the
   ring by one lap, and momentum (one thread driving the whole ring without
   context switches) is where the partitioned runtime's throughput comes
   from. *)
let kick_rounds = 64
let kick_epoch = Atomic.make 1

let kick_all engines =
  let wake_everyone e =
    Mutex.lock e.lock;
    wake_all e;
    Mutex.unlock e.lock
  in
  let visit e =
    Mutex.lock e.lock;
    let _ = drive e in
    (* drive signalled e's completed operations; poisoned peers (flagged
       lock-free by poison_locked) additionally need everyone woken so
       their parked tasks observe the poison. *)
    (match Atomic.get e.poison_flag with
     | Some msg ->
       if e.poisoned = None then begin
         e.poisoned <- Some msg;
         if !Obs.tracing then Obs.emit (obs_ring e) Obs.Poison ~a:0 ~b:0
       end;
       wake_all e
     | None -> ());
    let more = take_kick_targets e in
    Mutex.unlock e.lock;
    more
  in
  let rec round n todo =
    match todo with
    | [] -> ()
    | _ when n >= kick_rounds -> List.iter wake_everyone todo
    | _ ->
      let ev = Atomic.fetch_and_add kick_epoch 2 in
      let ed = ev + 1 in
      let deferred = ref [] in
      let rec go = function
        | [] -> ()
        | e :: rest ->
          if Atomic.get e.visit_stamp = ev then go rest
          else begin
            Atomic.set e.visit_stamp ev;
            (* fresh targets are consumed this round; already-visited ones
               are deferred to the next (no intermediate lists: the common
               chain case — one fresh target — allocates one cons cell) *)
            let rest =
              List.fold_left
                (fun acc x ->
                  if Atomic.get x.visit_stamp <> ev then x :: acc
                  else begin
                    if Atomic.get x.defer_stamp <> ed then begin
                      Atomic.set x.defer_stamp ed;
                      deferred := x :: !deferred
                    end;
                    acc
                  end)
                rest (visit e)
            in
            go rest
          end
      in
      go todo;
      round (n + 1) !deferred
  in
  round 0 engines

(* Release the lock, nudge the targeted engines, re-acquire. Caller holds
   the lock. *)
let flush_kicks t =
  if t.need_kick || t.kick_missing || t.kick_list <> [] then begin
    match take_kick_targets t with
    | [] -> ()
    | targets ->
      Mutex.unlock t.lock;
      kick_all targets;
      Mutex.lock t.lock
  end

(* Consume any pending kick request, unlock, deliver the kicks, and only
   then propagate [exn]. A transition that fired just before the exception
   (e.g. before poison was noticed) must still wake downstream peers, or
   their blocked tasks never re-check their engines. Caller holds the
   lock. *)
let unlock_raise t exn =
  (* Exception audit: submissions popped by a mid-drain exception were
     installed by drain_subs (it is non-raising); submissions still in the
     MPSC queue are installed now, so nothing leaves this function merely
     published — every op is either in a per-vertex queue (reachable by
     poison/withdraw) or still safely in the MPSC queue's atomic. *)
  ignore (drain_subs t);
  let targets =
    if t.need_kick || t.kick_missing || t.kick_list <> [] then
      take_kick_targets t
    else []
  in
  flush_wakes t;
  Mutex.unlock t.lock;
  (match targets with
   | [] -> ()
   | _ -> ( try kick_all targets with _ -> ()));
  raise exn

let add_pending t v = t.base_pending <- Iset.add v t.base_pending

(* --- Stall diagnosis -------------------------------------------------------- *)

let vname v = Printf.sprintf "%s#%d" (Vertex.name v) v

(* Caller holds the lock. Refolds gate readiness so the snapshot reflects
   the engine as the firing loop would see it. *)
let snapshot_locked t =
  invalidate_gates t;
  let pending = pending_now t in
  let candidates =
    match Composer.candidates t.comp ~pending with
    | cands -> Array.length cands
    | exception Composer.Expansion_budget _ -> -1
  in
  {
    es_steps = Atomic.get t.nsteps;
    es_waits = Atomic.get t.nwaits;
    es_kicks = Atomic.get t.nkicks;
    es_pending = List.map vname (Iset.elements pending);
    es_candidates = candidates;
    es_gates =
      Array.to_list
        (Array.map
           (fun (v, g) ->
             Printf.sprintf "%s:%s" (vname v)
               (try g.gate_dump () with _ -> "?"))
           t.gates);
    es_poisoned = t.poisoned;
  }

let snapshot t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  snapshot_locked t

let pp_stall_report ppf r =
  Format.fprintf ppf "stalled %s at %s after %.3fs@," r.sr_op r.sr_vertex
    r.sr_waited;
  List.iteri
    (fun i es ->
      Format.fprintf ppf
        "engine[%d]: steps=%d waits=%d kicks=%d candidates=%s pending={%s}%s \
         poisoned=%s@,"
        i es.es_steps es.es_waits es.es_kicks
        (if es.es_candidates < 0 then "?" else string_of_int es.es_candidates)
        (String.concat "," es.es_pending)
        (match es.es_gates with
         | [] -> ""
         | gs -> Printf.sprintf " gates={%s}" (String.concat "," gs))
        (match es.es_poisoned with Some m -> m | None -> "no"))
    r.sr_engines

let string_of_stall_report r =
  Format.asprintf "@[<v>%a@]" pp_stall_report r

let last_stall t =
  Mutex.lock t.lock;
  let r = t.last_stall in
  Mutex.unlock t.lock;
  r

(* Withdraw an op from a queue (nonblocking or timed-out attempt that did
   not fire), so a later firing cannot complete into a dead slot. *)
let withdraw t tbl v keep_op =
  let q = queue_of tbl v in
  let kept = Queue.create () in
  Queue.iter (fun o -> if not (keep_op o) then Queue.push o kept) q;
  Queue.clear q;
  Queue.transfer kept q;
  if Queue.is_empty q then t.base_pending <- Iset.remove v t.base_pending

(* The blocking-operation loop. With neither a deadline nor a stall
   threshold configured (the common case) the extra work is two option
   checks on the park path only — firings never touch any of it. When an
   operation is about to park and carries a deadline (or the global
   watchdog threshold is set), a one-shot wake-up is registered with
   {!Timer} so even a fully deadlocked engine gets woken to notice the
   expiry; expiry withdraws the operation and returns the stall report. *)
let untraced_submit_t = ref 0.0

(* Bounded lock-free wait after publishing an op: give the current lock
   holder a chance to drain and complete it before we contend on the mutex
   at all. The occasional yield matters on a single domain, where systhreads
   interleave rather than truly run in parallel — spinning alone would never
   let the drainer progress. *)
let spin_budget = 64

let run_op ?deadline ?(publish = true) t ~opname ~opv ~sub ~remove ~finished
    ~failed ~extract =
  (match Atomic.get t.poison_flag with
   | Some msg -> raise (Poisoned msg)
   | None -> ());
  let check_failed () =
    match failed () with Some msg -> raise (Poisoned msg) | None -> ()
  in
  check_failed ();
  (* One flag read when tracing is off; the op's whole lifecycle shares the
     decision so submit/complete events always pair up. *)
  let traced = !Obs.tracing in
  let is_send = traced && String.equal opname "send" in
  let tid = if traced then Thread.id (Thread.self ()) else 0 in
  (* written and read only when [traced]; the shared dummy spares the
     untraced path the allocation *)
  let submit_t = if traced then ref (Clock.now ()) else untraced_submit_t in
  (* Publish the operation lock-free: from here on, whichever thread next
     drives the engine installs — and may complete — it. The op's Submit
     trace event is emitted by that drainer (under the lock, preserving the
     ring's single-writer discipline), stamped with our thread id.
     [publish = false] re-enters the wait for an op that is already
     installed (the batch retry path). *)
  if publish then Mpsc.push t.subs sub;
  let locked = ref false in
  let fast_done =
    deadline = None
    && !Config.stall_threshold = None
    && (not traced)
    &&
    (* Fast path: poll the op's atomic completion flag while a concurrent
       drainer works, grabbing the lock only if it frees up first. Plain
       ops only — deadlines, the stall watchdog and tracing all need the
       locked bookkeeping below. Completion is read through an atomic, so
       this is safe from any domain; if nobody completes the op we fall
       through to the mutex+condvar path, which drains the queue itself
       (every published op has an owner that eventually drains, so none is
       ever lost). *)
    let rec spin i =
      if finished () then true
      else if Mutex.try_lock t.lock then begin
        locked := true;
        false
      end
      else if i >= spin_budget then false
      else begin
        if i land 7 = 7 then Thread.yield () else Domain.cpu_relax ();
        spin (i + 1)
      end
    in
    spin 0
  in
  if fast_done then begin
    Atomic.incr t.nmpsc_fast;
    Ok (extract ())
  end
  else begin
  if not !locked then Mutex.lock t.lock;
  let result =
    try
      check_poison t;
      let w = waiter_of t opv in
      let threshold = !Config.stall_threshold in
      let wait_start = ref nan in
      let timer_armed = ref false in
      let watchdog_tripped = ref false in
      let stall_here waited =
        {
          sr_op = opname;
          sr_vertex = vname opv;
          sr_waited = waited;
          sr_engines = [ snapshot_locked t ];
        }
      in
      (* About to park with a deadline or watchdog active: check expiry,
         arm the timer wake-up once. Returns [Some report] on expiry. *)
      let check_deadline () =
        let now = Clock.now () in
        if Float.is_nan !wait_start then wait_start := now;
        let waited = now -. !wait_start in
        (match threshold with
         | Some th when (not !watchdog_tripped) && waited >= th ->
           watchdog_tripped := true;
           Atomic.incr t.nstalls;
           t.last_stall <- Some (stall_here waited);
           if traced then begin
             Obs.emit (obs_ring t) Obs.Stall ~a:opv ~b:tid;
             Metrics.incr m_stalls
           end
         | _ -> ());
        match deadline with
        | Some d when now >= d ->
          (* snapshot before withdrawing, so the report still names the
             expiring operation among the pending vertices *)
          let report = stall_here waited in
          remove ();
          Some report
        | _ ->
          if not !timer_armed then begin
            timer_armed := true;
            (* Wake only this operation's vertex: the timer fires for a
               specific parked op, not for the whole engine. *)
            (* Targeted: with exactly one parked op (the overwhelming
               common case — this deadline's owner) a single signal
               suffices; the old unconditional broadcast woke every op
               parked on the vertex, and the extras re-parked as spurious
               wakes (visible in the st_wakes_spurious counter, which the
               wakeup suite pins at zero). With several parked we must
               still broadcast — a lone signal could wake the wrong op and
               leave the expiring one asleep. *)
            let wake () =
              Mutex.lock t.lock;
              if w.w_parked = 1 then Condition.signal w.w_cond
              else if w.w_parked > 1 then Condition.broadcast w.w_cond;
              Mutex.unlock t.lock
            in
            (match deadline with Some d -> Timer.wake_at d wake | None -> ());
            match threshold with
            | Some th -> Timer.wake_at (!wait_start +. th) wake
            | None -> ()
          end;
          None
      in
      (* Set after a wake, cleared when the engine makes progress: reaching
         the next park with it still set means the wake achieved nothing —
         a spurious wake (the metric targeted wakeups exist to minimize). *)
      let woke_idle = ref false in
      let park () =
        if !woke_idle then Atomic.incr t.nwakes_sp;
        Atomic.incr t.nwaits;
        if traced then begin
          Obs.emit (obs_ring t) Obs.Park ~a:opv ~b:tid;
          Metrics.incr m_parks
        end;
        w.w_parked <- w.w_parked + 1;
        Condition.wait w.w_cond t.lock;
        w.w_parked <- w.w_parked - 1;
        woke_idle := true;
        if traced then Obs.emit (obs_ring t) Obs.Wake ~a:opv ~b:tid
      in
      let rec loop () =
        check_poison t;
        check_failed ();
        if finished () then Ok (extract ())
        else begin
          let progressed = drive t in
          if progressed then woke_idle := false;
          check_poison t;
          if finished () then begin
            flush_kicks t;
            Ok (extract ())
          end
          else begin
            flush_kicks t;
            if progressed || finished () then loop ()
            else if deadline = None && threshold = None then begin
              park ();
              loop ()
            end
            else begin
              match check_deadline () with
              | Some report -> Error report
              | None ->
                park ();
                loop ()
            end
          end
        end
      in
      loop ()
    with e ->
      (* The operation leaves without completing (poisoned, failed): close
         its trace span. Draining first installs an op that was never
         drained, so its Submit event precedes the Abort. *)
      if traced then begin
        ignore (drain_subs t);
        Obs.emit (obs_ring t) Obs.Abort ~a:opv ~b:tid
      end;
      unlock_raise t e
  in
  if traced then begin
    (match result with
     | Ok _ ->
       Obs.emit (obs_ring t)
         (if is_send then Obs.Complete_send else Obs.Complete_recv)
         ~a:opv ~b:tid;
       Metrics.observe m_port_wait (Clock.now () -. !submit_t)
     | Error _ ->
       (* expired at its deadline: already withdrawn *)
       Obs.emit (obs_ring t) Obs.Stall ~a:opv ~b:tid;
       Obs.emit (obs_ring t) Obs.Abort ~a:opv ~b:tid;
       Metrics.incr m_stalls)
  end;
  flush_kicks t;
  Mutex.unlock t.lock;
  match result with
  | Ok _ -> result
  | Error partial ->
    (* Complete the report with peer snapshots — their locks must be taken
       with ours released (same discipline as kick_all). *)
    let full =
      { partial with
        sr_engines = partial.sr_engines @ List.map snapshot t.peers }
    in
    Mutex.lock t.lock;
    t.last_stall <- Some full;
    Atomic.incr t.nstalls;
    Mutex.unlock t.lock;
    Error full
  end

let new_send_op value =
  { sv = value; s_done = Atomic.make false; s_w = None;
    s_tid = Thread.id (Thread.self ()); s_fail = Atomic.make None }

let new_recv_op () =
  { r_result = Atomic.make None; r_w = None;
    r_tid = Thread.id (Thread.self ()); r_fail = Atomic.make None }

let send_opt ?deadline t v value =
  let op = new_send_op value in
  run_op ?deadline t ~opname:"send" ~opv:v ~sub:(Sub_send (v, op))
    ~remove:(fun () -> withdraw t t.send_q v (fun o -> o == op))
    ~finished:(fun () -> Atomic.get op.s_done)
    ~failed:(fun () -> Atomic.get op.s_fail)
    ~extract:(fun () -> ())

let recv_opt ?deadline t v =
  let op = new_recv_op () in
  run_op ?deadline t ~opname:"recv" ~opv:v ~sub:(Sub_recv (v, op))
    ~remove:(fun () -> withdraw t t.recv_q v (fun o -> o == op))
    ~finished:(fun () -> Atomic.get op.r_result <> None)
    ~failed:(fun () -> Atomic.get op.r_fail)
    ~extract:(fun () ->
      match Atomic.get op.r_result with Some x -> x | None -> assert false)

let send ?deadline t v value =
  match send_opt ?deadline t v value with
  | Ok () -> ()
  | Error report -> raise (Timed_out report)

let recv ?deadline t v =
  match recv_opt ?deadline t v with
  | Ok x -> x
  | Error report -> raise (Timed_out report)

(* --- Batch submission --------------------------------------------------------
   Publish [k] operations in one shot and block behind the LAST one only.
   Operations on one vertex complete in queue (FIFO) order — the firing
   loop pops from the front and batch ops are never withdrawn — so the
   last op finishing implies all the earlier ones have. MPSC pushes from
   one producer keep their order, so the k ops land in the vertex queue in
   submission order. No [?deadline]: a partially completed batch has no
   sensible withdraw semantics. The empty batch ([send_many _ _ []],
   [recv_many _ _ 0]) is a documented no-op — churn code computes batch
   sizes at run time and zero must not trip anything. [last_of] is only
   reached with a nonempty list; the [invalid_arg] is a belt-and-braces
   guard, not an API surface. *)

let rec last_of = function
  | [ x ] -> x
  | _ :: rest -> last_of rest
  | [] -> invalid_arg "Engine: empty batch"

let wait_last ?prefix t ~opname ~opv ~sub ~finished ~failed =
  (match prefix with
   | Some subs -> List.iter (fun s -> Mpsc.push t.subs s) subs
   | None -> ());
  let rec wait publish =
    match
      run_op ~publish t ~opname ~opv ~sub ~remove:(fun () -> ()) ~finished
        ~failed ~extract:(fun () -> ())
    with
    | Ok () -> ()
    | Error report ->
      (* A stall report came back for a no-deadline batch op (the watchdog
         path). run_op already recorded it (st_stalls, last_stall); the op
         itself is still queued — [remove] is a no-op — so keep waiting
         instead of aborting the process. [publish = false]: the op must
         not be resubmitted. *)
      ignore report;
      wait false
  in
  wait true

let send_many t v values =
  match values with
  | [] -> ()
  | values ->
    let ops = List.map new_send_op values in
    let last = last_of ops in
    let prefix =
      List.filter_map
        (fun op -> if op == last then None else Some (Sub_send (v, op)))
        ops
    in
    wait_last t ~prefix ~opname:"send" ~opv:v ~sub:(Sub_send (v, last))
      ~finished:(fun () -> Atomic.get last.s_done)
      ~failed:(fun () -> Atomic.get last.s_fail);
    (* Keep Submit/Complete pairing for the whole batch in traces: run_op
       emitted Complete for the last op only. Under the lock, like every
       ring write. *)
    if !Obs.tracing then begin
      Mutex.lock t.lock;
      List.iter
        (fun op ->
          if op != last then
            Obs.emit (obs_ring t) Obs.Complete_send ~a:v ~b:op.s_tid)
        ops;
      Mutex.unlock t.lock
    end

let recv_many t v k =
  if k <= 0 then []
  else begin
    let ops = List.init k (fun _ -> new_recv_op ()) in
    let last = last_of ops in
    let prefix =
      List.filter_map
        (fun op -> if op == last then None else Some (Sub_recv (v, op)))
        ops
    in
    wait_last t ~prefix ~opname:"recv" ~opv:v ~sub:(Sub_recv (v, last))
      ~finished:(fun () -> Atomic.get last.r_result <> None)
      ~failed:(fun () -> Atomic.get last.r_fail);
    if !Obs.tracing then begin
      Mutex.lock t.lock;
      List.iter
        (fun op ->
          if op != last then
            Obs.emit (obs_ring t) Obs.Complete_recv ~a:v ~b:op.r_tid)
        ops;
      Mutex.unlock t.lock
    end;
    List.map
      (fun op ->
        match Atomic.get op.r_result with
        | Some x -> x
        | None -> assert false (* FIFO: last done implies all done *))
      ops
  end

let try_send t v value =
  (match Atomic.get t.poison_flag with
   | Some msg -> raise (Poisoned msg)
   | None -> ());
  Mutex.lock t.lock;
  let result =
    try
      check_poison t;
      if Iset.mem v t.retired then raise (Poisoned (retired_msg v));
      (* Install concurrently published ops first, so our direct enqueue
         does not jump ahead of operations submitted before us. *)
      ignore (drain_subs t);
      let op =
        { sv = value; s_done = Atomic.make false; s_w = None; s_tid = 0;
          s_fail = Atomic.make None }
      in
      Queue.push op (queue_of t.send_q v);
      add_pending t v;
      let _ = drive t in
      check_poison t;
      if Atomic.get op.s_done then true
      else begin
        withdraw t t.send_q v (fun o -> o == op);
        false
      end
    with e -> unlock_raise t e
  in
  flush_kicks t;
  Mutex.unlock t.lock;
  result

let try_recv t v =
  (match Atomic.get t.poison_flag with
   | Some msg -> raise (Poisoned msg)
   | None -> ());
  Mutex.lock t.lock;
  let result =
    try
      check_poison t;
      if Iset.mem v t.retired then raise (Poisoned (retired_msg v));
      ignore (drain_subs t);
      let op =
        { r_result = Atomic.make None; r_w = None; r_tid = 0;
          r_fail = Atomic.make None }
      in
      Queue.push op (queue_of t.recv_q v);
      add_pending t v;
      let _ = drive t in
      check_poison t;
      (match Atomic.get op.r_result with
       | Some _ as r -> r
       | None ->
         withdraw t t.recv_q v (fun o -> o == op);
         None)
    with e -> unlock_raise t e
  in
  flush_kicks t;
  Mutex.unlock t.lock;
  result

let try_step t =
  (match Atomic.get t.poison_flag with
   | Some msg -> raise (Poisoned msg)
   | None -> ());
  Mutex.lock t.lock;
  let fired =
    try
      check_poison t;
      invalidate_gates t;
      ignore (drain_subs t);
      (try fire_one t with Composer.Expansion_budget msg ->
        poison_locked t msg;
        false)
    with e -> unlock_raise t e
  in
  if fired then flush_wakes t;
  flush_kicks t;
  Mutex.unlock t.lock;
  fired

(* --- Elastic splice ----------------------------------------------------------
   Rewire the live composer under the engine lock: retire medium slots,
   append fresh ones, move the boundary. The composer validates quiescence
   (label-bisimilarity of each retired medium's current state to its initial
   state) before mutating anything, so a [Composer.Not_quiescent] leaves the
   engine untouched and the caller free to retry. After a successful splice:
   ops queued on vanished vertices fail individually (targeted poison — the
   rest of the connector keeps running), future ops on them fail at drain
   time via [retired], the cell store grows to cover the added mediums'
   fresh slots, and every parked op is woken to re-examine the rewired
   engine. *)
let splice t ~sources ~sinks ~retire ~add =
  Mutex.lock t.lock;
  (try
     check_poison t;
     (* Install everything already published, so queued ops on soon-dead
        vertices are visible to the targeted-failure sweep below. *)
     ignore (drain_subs t);
     let dead = Composer.splice t.comp ~sources ~sinks ~retire ~add in
     t.retired <- Iset.union t.retired dead;
     let n = Composer.ncells t.comp in
     if n > Array.length t.cells then begin
       let cells = Array.make n None in
       Array.blit t.cells 0 cells 0 (Array.length t.cells);
       t.cells <- cells
     end;
     Iset.iter
       (fun v ->
         let msg = retired_msg v in
         (match Hashtbl.find_opt t.send_q v with
          | Some q ->
            Queue.iter (fun op -> Atomic.set op.s_fail (Some msg)) q;
            Queue.clear q;
            Hashtbl.remove t.send_q v
          | None -> ());
         (match Hashtbl.find_opt t.recv_q v with
          | Some q ->
            Queue.iter (fun op -> Atomic.set op.r_fail (Some msg)) q;
            Queue.clear q;
            Hashtbl.remove t.recv_q v
          | None -> ());
         t.base_pending <- Iset.remove v t.base_pending;
         (* Wake this vertex's parked owners before dropping the table
            entry — [wake_all] below iterates the table, so anything
            removed here would sleep through the broadcast. *)
         (match Hashtbl.find_opt t.waiters v with
          | Some w when w.w_parked > 0 -> Condition.broadcast w.w_cond
          | _ -> ());
         Hashtbl.remove t.waiters v)
       dead;
     invalidate_gates t;
     (* The product changed shape: wake everything so each parked op
        re-examines the rewired engine (failed ops raise, survivors re-park
        or complete against the new transitions). Splices are rare; the
        broadcast cost is irrelevant next to the rewiring itself. *)
     wake_all t;
     flush_wakes t
   with e -> unlock_raise t e);
  flush_kicks t;
  Mutex.unlock t.lock

let retired_vertices t =
  Mutex.lock t.lock;
  let r = t.retired in
  Mutex.unlock t.lock;
  r

(* Public poisoning propagates transitively through partitioned peers so a
   whole multi-region connector shuts down from any one engine; the atomic
   flag doubles as the visited set, so peer cycles terminate. Each engine's
   lock is taken with no other engine lock held. *)
let rec poison t msg =
  let first = Atomic.get t.poison_flag = None in
  if first then Atomic.set t.poison_flag (Some msg);
  Mutex.lock t.lock;
  if t.poisoned = None then begin
    t.poisoned <- Some msg;
    if !Obs.tracing then Obs.emit (obs_ring t) Obs.Poison ~a:0 ~b:0
  end;
  ignore (drain_subs t);
  wake_all t;
  let peers = t.peers in
  Mutex.unlock t.lock;
  if first then
    List.iter
      (fun p -> if Atomic.get p.poison_flag = None then poison p msg)
      peers

let poisoned_reason t =
  Mutex.lock t.lock;
  let r = t.poisoned in
  Mutex.unlock t.lock;
  r

let debug_dump t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let buf = Buffer.create 256 in
  invalidate_gates t;
  let pending = pending_now t in
  Buffer.add_string buf
    (Printf.sprintf "steps=%d poisoned=%s\n" (Atomic.get t.nsteps)
       (match t.poisoned with Some m -> m | None -> "no"));
  Buffer.add_string buf "pending:";
  Iset.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf " %s#%d" (Vertex.name v) v))
    pending;
  Buffer.add_char buf '\n';
  Hashtbl.iter
    (fun v q ->
      Buffer.add_string buf
        (Printf.sprintf "send_q %s#%d len=%d\n" (Vertex.name v) v (Queue.length q)))
    t.send_q;
  Hashtbl.iter
    (fun v q ->
      Buffer.add_string buf
        (Printf.sprintf "recv_q %s#%d len=%d\n" (Vertex.name v) v (Queue.length q)))
    t.recv_q;
  (match Composer.candidates t.comp ~pending with
   | cands ->
     let degree =
       match Composer.current_out_degree t.comp with
       | d -> string_of_int d
       | exception Composer.Expansion_budget _ -> "?"
     in
     Buffer.add_string buf
       (Printf.sprintf "candidates(enabled-by-pending)=%d out-degree=%s\n"
          (Array.length cands) degree)
   | exception Composer.Expansion_budget msg ->
     Buffer.add_string buf
       (Printf.sprintf "candidates unavailable: expansion budget exhausted: %s\n"
          msg));
  (match
     Composer.candidates t.comp
       ~pending:(Iset.union (Composer.sources t.comp) (Composer.sinks t.comp))
   with
   | all ->
     Array.iter
       (fun (x : Composer.xtrans) ->
         Buffer.add_string buf
           (Printf.sprintf "  trans sync={%s} needs_send={%s} needs_recv={%s}\n"
              (String.concat "," (List.map Vertex.name (Iset.elements x.sync)))
              (String.concat "," (List.map Vertex.name (Iset.elements x.needs_send)))
              (String.concat "," (List.map Vertex.name (Iset.elements x.needs_recv)))))
       all
   | exception Composer.Expansion_budget _ -> ());
  Buffer.contents buf
