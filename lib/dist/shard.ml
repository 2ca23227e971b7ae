(* Sharded connector fabric: run a partitioned connector's regions in
   separate OS processes, with the cross-process cut queues carried over
   loopback TCP sockets.

   The partition plan is the contract. [Partition.split] assigns region and
   cut indices deterministically for a given (mediums, domains,
   sequentialize) input, and both endpoints rebuild the plan from the same
   DSL source — so the host and each worker agree on every index without
   ever shipping automata: the configuration frame names region ids and cut
   ids, nothing more. Each cross-process cut becomes a seq-numbered wire
   channel; [Partition.split]'s [gate_for] hook swaps the cut's native SPSC
   queue for this module's gates.

   Wire discipline per channel:
   - the producer stamps every committed value with a sequence number and
     keeps it buffered until acknowledged; the sender thread coalesces all
     values queued since the last flush into ONE [Sh_batch] frame per
     channel, and writes every frame the flush owes (batches, acks, poison,
     close) with ONE [write]. On the [TCP_NODELAY] sockets that
     [Wire.connect_local]/[Wire.accept_one] create, that write leaves as
     soon as it is made: a hand-off costs one syscall and one segment,
     never a wait for the peer's delayed ACK;
   - the producer gate reports ready only while unacknowledged items are
     below the channel window, so a slow or dead shard parks the producer
     region instead of ballooning memory (backpressure);
   - the consumer acknowledges cumulatively on gate pop (not on arrival),
     so the window tracks real consumption end to end; when a channel
     carries a journal, the popped value is durably logged before the ack
     watermark can advance — exactly-once with respect to the journal;
   - on reconnect the worker reports its durable position ([Sh_resume]) and
     the host trims the acked prefix and replays the unacked window;
     duplicates arriving from a replay race are dropped by sequence number.

   Topology is a star: every cross-process cut must have one side on the
   host (process 0). Worker-to-worker cuts would need a mesh of links and a
   distributed resume protocol; the partitioner's relay cuts make it easy
   to route any fan through the host instead. *)

open Preo_support
module Partition = Preo_runtime.Partition
module Connector = Preo_runtime.Connector
module Engine = Preo_runtime.Engine
module Port = Preo_runtime.Port
module Config = Preo_runtime.Config
module Sched = Preo_runtime.Sched
module Shard_stats = Preo_runtime.Shard_stats
module Timer = Preo_runtime.Timer
module Vertex = Preo_automata.Vertex

let spf = Printf.sprintf
let shard_err fmt = Printf.ksprintf failwith fmt

(* --- Journals ----------------------------------------------------------------
   One hex-encoded wire value per line; a line is durable only once its
   newline hit the stream, so recovery counts complete lines and truncates
   any torn tail (which was never acknowledged either). *)

let journal_line v =
  let b = Buffer.create 16 in
  Wire.encode_value b v;
  let s = Buffer.contents b in
  String.init
    (2 * String.length s)
    (fun i ->
      let c = Char.code s.[i / 2] in
      let nib = if i mod 2 = 0 then c lsr 4 else c land 0xF in
      "0123456789abcdef".[nib])

let value_of_line line =
  let n = String.length line in
  if n mod 2 <> 0 then shard_err "shard: torn journal line";
  let nib c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> shard_err "shard: bad journal byte %C" c
  in
  let bytes =
    Bytes.init (n / 2) (fun i ->
        Char.chr ((nib line.[2 * i] lsl 4) lor nib line.[(2 * i) + 1]))
  in
  Wire.decode_value bytes ~pos:(ref 0)

let read_journal path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let rec go acc start =
      match String.index_from_opt s start '\n' with
      | None -> List.rev acc
      | Some i ->
        go (value_of_line (String.sub s start (i - start)) :: acc) (i + 1)
    in
    go [] 0
  end

(* Durably journaled value count; truncates a torn trailing line. *)
let recover_journal path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let keep =
      match String.rindex_opt s '\n' with None -> 0 | Some i -> i + 1
    in
    if keep < len then Unix.truncate path keep;
    let count = ref 0 in
    for i = 0 to keep - 1 do
      if s.[i] = '\n' then incr count
    done;
    !count
  end

let journal_path ~dir ~ch = Filename.concat dir (spf "ch%d.journal" ch)

(* --- Workloads ---------------------------------------------------------------
   Closures cannot cross an exec, so worker task code is named: a produce
   loop sending [0 .. count-1] on each port, and a consume loop draining a
   port while fanning each delivery out to [clients] simulated subscriber
   counters (the per-client bookkeeping is the simulated work: one counter
   increment per client per delivery). *)

type workload =
  | Produce of { w_group : string; w_indices : int list; w_count : int }
  | Consume of { w_group : string; w_indices : int list; w_clients : int }

let encode_workload = function
  | Produce { w_group; w_indices; w_count } ->
    Value.list
      [
        Value.str "produce";
        Value.str w_group;
        Value.list (List.map Value.int w_indices);
        Value.int w_count;
      ]
  | Consume { w_group; w_indices; w_clients } ->
    Value.list
      [
        Value.str "consume";
        Value.str w_group;
        Value.list (List.map Value.int w_indices);
        Value.int w_clients;
      ]

let decode_workload v =
  match Value.to_list v with
  | [ kind; group; idx; k ] ->
    let indices = List.map Value.to_int (Value.to_list idx) in
    (match Value.to_str kind with
     | "produce" ->
       Produce
         {
           w_group = Value.to_str group;
           w_indices = indices;
           w_count = Value.to_int k;
         }
     | "consume" ->
       Consume
         {
           w_group = Value.to_str group;
           w_indices = indices;
           w_clients = Value.to_int k;
         }
     | s -> shard_err "shard: bad workload kind %S" s)
  | _ -> shard_err "shard: bad workload frame"

(* --- Channels ---------------------------------------------------------------- *)

type role = Producing | Consuming

type chan = {
  ch_id : int;  (* cut index in the plan *)
  ch_role : role;  (* this process's side *)
  ch_window : int;
  mutable ch_region : int;  (* local region owning our gate (for kicks) *)
  ch_mu : Mutex.t;
  (* producing side *)
  ch_buf : (int * Value.t) Queue.t;  (* unacked, in seq order *)
  mutable ch_next : int;  (* next seq to stamp *)
  mutable ch_sent : int;  (* seqs < sent handed to the wire *)
  mutable ch_acked : int;  (* seqs < acked acknowledged *)
  mutable ch_floor : int;  (* peer durably has seqs < floor: swallow *)
  ch_inflight : int Atomic.t;  (* = next - acked; lock-free gate_ready *)
  ch_t0s : (int * float) Queue.t;  (* sampled send stamps for latency *)
  (* consuming side *)
  ch_landing : Value.t Queue.t;  (* in-order, deduplicated arrivals *)
  ch_avail : int Atomic.t;  (* landing length; lock-free gate_ready *)
  mutable ch_expect : int;  (* next seq expected from the wire *)
  mutable ch_popped : int;  (* values consumed by the local engine *)
  mutable ch_ack_flushed : int;  (* ack watermark handed to the wire *)
  mutable ch_journal : out_channel option;
  (* wiring *)
  mutable ch_notify : unit -> unit;  (* wake the link sender *)
  mutable ch_kick : unit -> unit;  (* drive the gate's local engine *)
}

let make_chan ~id ~role ~window ~region =
  {
    ch_id = id;
    ch_role = role;
    ch_window = window;
    ch_region = region;
    ch_mu = Mutex.create ();
    ch_buf = Queue.create ();
    ch_next = 0;
    ch_sent = 0;
    ch_acked = 0;
    ch_floor = 0;
    ch_inflight = Atomic.make 0;
    ch_t0s = Queue.create ();
    ch_landing = Queue.create ();
    ch_avail = Atomic.make 0;
    ch_expect = 0;
    ch_popped = 0;
    ch_ack_flushed = 0;
    ch_journal = None;
    ch_notify = (fun () -> ());
    ch_kick = (fun () -> ());
  }

let locked mu f =
  Mutex.lock mu;
  match f () with
  | r ->
    Mutex.unlock mu;
    r
  | exception e ->
    Mutex.unlock mu;
    raise e

(* Producer commit: stamp, buffer, wake the sender. Values below the resume
   floor were durably consumed by the peer in a previous incarnation of
   this (deterministically replaying) producer — swallow them as already
   acked instead of re-shipping. *)
let producer_commit ~latency_every c v =
  locked c.ch_mu (fun () ->
      let seq = c.ch_next in
      c.ch_next <- seq + 1;
      if seq >= c.ch_floor then begin
        Queue.push (seq, v) c.ch_buf;
        if
          latency_every > 0
          && seq mod latency_every = 0
          && Queue.length c.ch_t0s < 4096
        then Queue.push (seq, Clock.now ()) c.ch_t0s
      end
      else begin
        c.ch_acked <- c.ch_next;
        c.ch_sent <- c.ch_next
      end;
      Atomic.set c.ch_inflight (c.ch_next - c.ch_acked));
  c.ch_notify ()

let producer_gate ~latency_every c =
  {
    Engine.gate_ready = (fun () -> Atomic.get c.ch_inflight < c.ch_window);
    gate_peek = (fun () -> invalid_arg "shard producer gate has no value");
    gate_commit =
      (fun v ->
        match v with
        | Some value -> producer_commit ~latency_every c value
        | None -> invalid_arg "shard producer gate expects a value");
    gate_dump =
      (fun () ->
        spf "shard-out ch%d seq=%d acked=%d window=%d" c.ch_id c.ch_next
          c.ch_acked c.ch_window);
  }

let consumer_gate c =
  {
    Engine.gate_ready = (fun () -> Atomic.get c.ch_avail > 0);
    gate_peek = (fun () -> locked c.ch_mu (fun () -> Queue.peek c.ch_landing));
    gate_commit =
      (fun v ->
        match v with
        | None ->
          locked c.ch_mu (fun () ->
              let v = Queue.pop c.ch_landing in
              Atomic.decr c.ch_avail;
              (* durable before acknowledgeable: the journal line is flushed
                 while the ack watermark still excludes this value *)
              (match c.ch_journal with
               | Some oc ->
                 output_string oc (journal_line v);
                 output_char oc '\n';
                 flush oc
               | None -> ());
              c.ch_popped <- c.ch_popped + 1);
          c.ch_notify ()
        | Some _ -> invalid_arg "shard consumer gate consumes, not delivers");
    gate_dump =
      (fun () ->
        spf "shard-in ch%d landing=%d expect=%d popped=%d" c.ch_id
          (Atomic.get c.ch_avail) c.ch_expect c.ch_popped);
  }

(* Initially-full cut fifos: the producer side owns the prefill and ships
   it like any committed value; the consumer side starts empty. *)
let inject_init c (shape : Partition.cut_shape) =
  match shape with
  | Partition.Cut_auto _ -> ()
  | Partition.Cut_queue { q_init; _ } ->
    List.iter (fun v -> producer_commit ~latency_every:0 c v) q_init

(* --- Links -------------------------------------------------------------------
   One socket per (host, worker) pair, multiplexing every channel between
   them. The sender thread owns all writes (frames must not interleave);
   receiving and connection lifecycle belong to the owning manager loop. *)

type link = {
  lk_token : string;
  lk_mu : Mutex.t;
  lk_cond : Condition.t;
  mutable lk_pending : Unix.file_descr option;  (* handed over by accept *)
  mutable lk_fd : Unix.file_descr option;  (* live session *)
  mutable lk_dirty : bool;
  mutable lk_poison : string option;  (* outgoing poison, sent by sender *)
  mutable lk_close : bool;  (* flush, send Sh_close, stop *)
  mutable lk_stop : bool;
  lk_chans : chan array;
  mutable lk_pid : int;  (* worker process (host side; -1 on workers) *)
  mutable lk_spawns : int;  (* total processes ever spawned on this link *)
}

let make_link ~token chans =
  {
    lk_token = token;
    lk_mu = Mutex.create ();
    lk_cond = Condition.create ();
    lk_pending = None;
    lk_fd = None;
    lk_dirty = false;
    lk_poison = None;
    lk_close = false;
    lk_stop = false;
    lk_chans = chans;
    lk_pid = -1;
    lk_spawns = 0;
  }

(* Broadcast, not signal: during a handshake the manager waits on
   [lk_cond] too, and a signal it absorbed would be lost to the sender. *)
let link_signal lk =
  Mutex.lock lk.lk_mu;
  lk.lk_dirty <- true;
  Condition.broadcast lk.lk_cond;
  Mutex.unlock lk.lk_mu

(* Take a failed fd down (only the current session's). *)
let link_down lk fd =
  Mutex.lock lk.lk_mu;
  (match lk.lk_fd with
   | Some cur when cur == fd -> lk.lk_fd <- None
   | _ -> ());
  Condition.broadcast lk.lk_cond;
  Mutex.unlock lk.lk_mu;
  try Unix.close fd with _ -> ()

(* Everything this link owes the wire right now: at most one batch frame
   per producing channel (the whole flush coalesced) and one cumulative
   ack per consuming channel. *)
let collect_frames lk =
  Array.fold_left
    (fun acc c ->
      match c.ch_role with
      | Producing ->
        locked c.ch_mu (fun () ->
            if c.ch_sent >= c.ch_next then acc
            else begin
              let pending =
                Queue.fold
                  (fun l (seq, v) ->
                    if seq >= c.ch_sent then (seq, v) :: l else l)
                  [] c.ch_buf
                |> List.rev
              in
              c.ch_sent <- c.ch_next;
              match pending with
              | [] -> acc
              | (base, _) :: _ ->
                let items = List.map snd pending in
                Shard_stats.add_batch ~items:(List.length items);
                Wire.Sh_batch { ch = c.ch_id; base; items } :: acc
            end)
      | Consuming ->
        locked c.ch_mu (fun () ->
            if c.ch_popped > c.ch_ack_flushed then begin
              c.ch_ack_flushed <- c.ch_popped;
              Wire.Sh_ack { ch = c.ch_id; upto = c.ch_popped } :: acc
            end
            else acc))
    [] lk.lk_chans

let sender_loop lk =
  let stop () =
    Mutex.lock lk.lk_mu;
    lk.lk_stop <- true;
    Condition.broadcast lk.lk_cond;
    Mutex.unlock lk.lk_mu
  in
  let rec loop () =
    Mutex.lock lk.lk_mu;
    while not (lk.lk_dirty || lk.lk_stop || lk.lk_close) do
      Condition.wait lk.lk_cond lk.lk_mu
    done;
    if lk.lk_stop then Mutex.unlock lk.lk_mu
    else begin
      lk.lk_dirty <- false;
      let fd = lk.lk_fd in
      let poison = lk.lk_poison in
      let closing = lk.lk_close in
      Mutex.unlock lk.lk_mu;
      match fd with
      | None -> if closing then stop () else loop ()
      | Some fd ->
        let frames = collect_frames lk in
        let frames =
          match poison with
          | Some r -> frames @ [ Wire.Sh_poison r ]
          | None -> frames
        in
        let frames = if closing then frames @ [ Wire.Sh_close ] else frames in
        (* One write per flush, outside the link mutex: a failure takes the
           link down; anything lost is replayed after reconnect (the wire
           pointer rewinds to the ack watermark) and deduplicated by
           sequence number on the far side. *)
        (try Wire.write_shards fd frames with _ -> link_down lk fd);
        if closing then stop () else loop ()
    end
  in
  loop ()

(* Incoming traffic, shared by host and worker. Returns [`Close] on an
   orderly close, [`Poisoned reason] on remote poison; raises on link
   failure. [on_ack_latency] receives RTT samples harvested from
   acknowledged latency stamps. *)
let recv_loop fd ~find_chan ~on_ack_latency =
  let rec loop () =
    match Wire.read_shard fd with
    | None -> raise End_of_file
    | Some (Wire.Sh_batch { ch; base; items }) ->
      let c = find_chan ch in
      if c.ch_role <> Consuming then
        shard_err "shard: batch on producing channel %d" ch;
      let fresh =
        locked c.ch_mu (fun () ->
            let fresh = ref false in
            List.iteri
              (fun i v ->
                let seq = base + i in
                if seq = c.ch_expect then begin
                  Queue.push v c.ch_landing;
                  Atomic.incr c.ch_avail;
                  c.ch_expect <- seq + 1;
                  fresh := true
                end
                else if seq > c.ch_expect then
                  shard_err "shard: sequence gap on channel %d (%d after %d)"
                    ch seq c.ch_expect
                  (* seq < expect: replay duplicate, drop *))
              items;
            !fresh)
      in
      if fresh then c.ch_kick ();
      loop ()
    | Some (Wire.Sh_ack { ch; upto }) ->
      let c = find_chan ch in
      if c.ch_role <> Producing then
        shard_err "shard: ack on consuming channel %d" ch;
      let samples =
        locked c.ch_mu (fun () ->
            if upto > c.ch_next then
              shard_err "shard: ack beyond produced on channel %d" ch;
            let samples = ref [] in
            if upto > c.ch_acked then begin
              while
                (not (Queue.is_empty c.ch_buf))
                && fst (Queue.peek c.ch_buf) < upto
              do
                ignore (Queue.pop c.ch_buf)
              done;
              let now = Clock.now () in
              while
                (not (Queue.is_empty c.ch_t0s))
                && fst (Queue.peek c.ch_t0s) < upto
              do
                let _, t0 = Queue.pop c.ch_t0s in
                samples := (now -. t0) :: !samples
              done;
              Shard_stats.add_acked (upto - c.ch_acked);
              c.ch_acked <- upto;
              Atomic.set c.ch_inflight (c.ch_next - c.ch_acked)
            end;
            !samples)
      in
      if samples <> [] then on_ack_latency samples;
      c.ch_kick ();
      loop ()
    | Some (Wire.Sh_poison reason) -> `Poisoned reason
    | Some Wire.Sh_close -> `Close
    | Some (Wire.Sh_hello _ | Wire.Sh_cfg _ | Wire.Sh_resume _) ->
      shard_err "shard: unexpected handshake frame mid-stream"
  in
  loop ()

(* --- Plan construction ------------------------------------------------------- *)

let build_parts ~source ~name ~lengths =
  let c = Preo.compile ~source ~name in
  let bindings, sources, sinks =
    Preo.Eval.boundary_of_def c.Preo.def ~lengths
  in
  let venv = Preo.Eval.venv ~ints:[] ~arrays:bindings in
  let mediums = Preo.Template.instantiate c.Preo.template venv in
  (bindings, sources, sinks, mediums)

let plan ?domains ?compile ~source ~name ~lengths () =
  let _, sources, sinks, mediums = build_parts ~source ~name ~lengths in
  let domains = Config.effective_domains ?requested:domains () in
  let sequentialize = Config.effective_compile ?requested:compile () in
  Partition.split ~domains ~sequentialize
    ~sources:(Iset.of_list (Array.to_list sources))
    ~sinks:(Iset.of_list (Array.to_list sinks))
    mediums

let boundary_regions ?domains ?compile ~source ~name ~lengths () =
  let bindings, sources, sinks, mediums = build_parts ~source ~name ~lengths in
  let domains = Config.effective_domains ?requested:domains () in
  let sequentialize = Config.effective_compile ?requested:compile () in
  let p =
    Partition.split ~domains ~sequentialize
      ~sources:(Iset.of_list (Array.to_list sources))
      ~sinks:(Iset.of_list (Array.to_list sinks))
      mediums
  in
  List.map
    (fun (g, arr) ->
      ( g,
        Array.map
          (fun v ->
            let found = ref (-1) in
            Array.iteri
              (fun i (r : Partition.region) ->
                if
                  !found < 0
                  && (Iset.mem v r.Partition.r_sources
                     || Iset.mem v r.Partition.r_sinks)
                then found := i)
              p.Partition.regions;
            !found)
          arr ))
    bindings

(* Wire the per-channel engine kicks once the placed connector exists: wire
   traffic flips gate readiness from outside the engine, so someone must
   drive the engine to make it look ([Engine.try_step] re-evaluates every
   gate on entry). *)
let set_kicks conn chans =
  List.iter
    (fun c ->
      c.ch_kick <-
        (fun () ->
          match Connector.engine_for_region conn c.ch_region with
          | None -> ()
          | Some e ->
            let rec drive () =
              if (try Engine.try_step e with _ -> false) then drive ()
            in
            drive ()))
    chans

(* --- Host -------------------------------------------------------------------- *)

type host = {
  h_conn : Connector.t;
  h_bindings : (string * Vertex.t array) list;
  h_links : link array;  (* index w-1 = worker w *)
  h_listener : Unix.file_descr;
  h_port : int;
  h_exe : string;
  h_retries : int;
  h_backoff : float;
  h_hello_timeout : float;
  h_cfg_of : int -> Value.t;  (* worker id -> current cfg frame *)
  h_stop : bool Atomic.t;
  h_lat_mu : Mutex.t;
  mutable h_lat : float list;
  mutable h_lat_n : int;
  mutable h_threads : Thread.t list;
}

let default_exe () =
  match Sys.getenv_opt "PREO_PREOC" with
  | Some p -> p
  | None ->
    let guess =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "preoc.exe"))
    in
    if Sys.file_exists guess then guess else "preoc"

let spawn_worker h lk =
  let pid =
    Unix.create_process h.h_exe
      [|
        h.h_exe;
        "worker";
        "--port";
        string_of_int h.h_port;
        "--token";
        lk.lk_token;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  lk.lk_pid <- pid;
  lk.lk_spawns <- lk.lk_spawns + 1

(* The accept thread reads each new connection's hello and hands the fd to
   the matching link's manager by token. Unknown tokens are dropped. *)
(* Only a closed listener ends the loop: EINTR restarts immediately, and
   transient failures (EMFILE, ECONNABORTED, ...) pause briefly and keep
   serving — exiting on those would permanently disable reconnects and turn
   every later link failure into a silent hello-timeout grind. *)
let accept_loop h =
  let rec loop () =
    match Wire.accept_one h.h_listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      ()  (* listener closed: shutting down *)
    | exception _ ->
      if Atomic.get h.h_stop then ()
      else begin
        Thread.delay 0.05;
        loop ()
      end
    | fd ->
      if Atomic.get h.h_stop then (try Unix.close fd with _ -> ())
      else begin
        (match Wire.read_shard ~deadline:(Unix.gettimeofday () +. 5.0) fd with
         | Some (Wire.Sh_hello { token }) -> begin
           match
             Array.find_opt (fun lk -> lk.lk_token = token) h.h_links
           with
           | Some lk ->
             Mutex.lock lk.lk_mu;
             (match lk.lk_pending with
              | Some old -> ( try Unix.close old with _ -> ())
              | None -> ());
             lk.lk_pending <- Some fd;
             Condition.broadcast lk.lk_cond;
             Mutex.unlock lk.lk_mu
           | None -> ( try Unix.close fd with _ -> ())
         end
         | _ | (exception _) -> ( try Unix.close fd with _ -> ()));
        loop ()
      end
  in
  loop ()

let unacked_summary lk =
  let parts =
    Array.to_list lk.lk_chans
    |> List.filter_map (fun c ->
           match c.ch_role with
           | Producing ->
             let n = Atomic.get c.ch_inflight in
             if n > 0 then Some (spf "ch%d:%d" c.ch_id n) else None
           | Consuming -> None)
  in
  if parts = [] then "none" else String.concat "," parts

(* Exhausted retry budget: structured cross-region poison, never a hang.
   Every local engine is poisoned — releasing tasks parked on the dead
   shard's window with the diagnosis — and the surviving workers are told
   to die too. *)
let escalate h lk ~attempts ~last =
  let msg =
    spf
      "shard: worker %s unreachable after %d reconnect attempt%s (last: %s); \
       unacked items: %s"
      lk.lk_token attempts
      (if attempts = 1 then "" else "s")
      last (unacked_summary lk)
  in
  Array.iter
    (fun other ->
      if other != lk then begin
        Mutex.lock other.lk_mu;
        if other.lk_poison = None then other.lk_poison <- Some msg;
        other.lk_dirty <- true;
        Condition.broadcast other.lk_cond;
        Mutex.unlock other.lk_mu
      end)
    h.h_links;
  Connector.poison h.h_conn msg

let record_latencies h samples =
  Mutex.lock h.h_lat_mu;
  List.iter
    (fun s ->
      if h.h_lat_n < 200_000 then begin
        h.h_lat <- s :: h.h_lat;
        h.h_lat_n <- h.h_lat_n + 1
      end)
    samples;
  Mutex.unlock h.h_lat_mu

(* Per-worker manager: owns the session lifecycle — wait for the accept
   thread to route a hello, handshake (cfg out, resume in), trim and rewind
   the replay window, then sit in the receive loop. On failure, retry
   within the budget (respawning the worker process if it died), then
   escalate.

   The attempt counter resets only after a session that did useful work —
   made progress (acks or arrivals) or survived a minimum lifetime — not
   after every successful handshake. A worker that deterministically dies
   right after resume therefore burns attempts and escalates instead of
   being respawned forever; a total per-link respawn cap backstops even
   slow crash cycles that do manage some progress each time. *)
let manager h lk w =
  let respawn_cap = max 32 ((h.h_retries + 1) * 8) in
  let min_session_life = max 1.0 (8.0 *. h.h_backoff) in
  let progress () =
    Array.fold_left
      (fun acc c ->
        locked c.ch_mu (fun () ->
            acc
            + (match c.ch_role with
              | Producing -> c.ch_acked
              | Consuming -> c.ch_expect)))
      0 lk.lk_chans
  in
  let find_chan id =
    match Array.find_opt (fun c -> c.ch_id = id) lk.lk_chans with
    | Some c -> c
    | None -> shard_err "shard: unknown channel %d" id
  in
  (* Park until the accept thread hands over a connection (it broadcasts
     [lk_cond]), the link closes, or the hello deadline passes. [Condition]
     has no timed wait, so a timer broadcasts at the deadline. *)
  let wait_pending () =
    let limit = Unix.gettimeofday () +. h.h_hello_timeout in
    let alarm =
      Timer.register limit (fun () ->
          Mutex.lock lk.lk_mu;
          Condition.broadcast lk.lk_cond;
          Mutex.unlock lk.lk_mu)
    in
    Mutex.lock lk.lk_mu;
    let rec go () =
      match lk.lk_pending with
      | Some fd ->
        lk.lk_pending <- None;
        Some fd
      | None ->
        if lk.lk_stop || lk.lk_close || Unix.gettimeofday () >= limit then None
        else begin
          Condition.wait lk.lk_cond lk.lk_mu;
          go ()
        end
    in
    let fd = go () in
    Mutex.unlock lk.lk_mu;
    Timer.cancel alarm;
    fd
  in
  let apply_resume resumes =
    List.iter
      (fun (id, upto) ->
        match Array.find_opt (fun c -> c.ch_id = id) lk.lk_chans with
        | Some c when c.ch_role = Producing ->
          locked c.ch_mu (fun () ->
              if upto > c.ch_acked && upto <= c.ch_next then begin
                while
                  (not (Queue.is_empty c.ch_buf))
                  && fst (Queue.peek c.ch_buf) < upto
                do
                  ignore (Queue.pop c.ch_buf)
                done;
                c.ch_acked <- upto;
                Atomic.set c.ch_inflight (c.ch_next - c.ch_acked)
              end)
        | _ -> ())
      resumes;
    (* replay everything unacked: rewind the wire pointer *)
    Array.iter
      (fun c ->
        if c.ch_role = Producing then
          locked c.ch_mu (fun () -> c.ch_sent <- c.ch_acked))
      lk.lk_chans
  in
  let stopping () =
    Mutex.lock lk.lk_mu;
    let s = lk.lk_stop || lk.lk_close in
    Mutex.unlock lk.lk_mu;
    s || Atomic.get h.h_stop
  in
  let deadline () = Unix.gettimeofday () +. h.h_hello_timeout in
  let rec session ~attempt ~resumed =
    if stopping () then ()
    else
      match wait_pending () with
      | None -> retry ~attempt ~last:"no connection from worker"
      | Some fd -> (
        match
          Wire.write_shard ~deadline:(deadline ()) fd
            (Wire.Sh_cfg (h.h_cfg_of w));
          Wire.read_shard ~deadline:(deadline ()) fd
        with
        | Some (Wire.Sh_resume resumes) ->
          apply_resume resumes;
          if resumed then Shard_stats.add_reconnect ();
          Mutex.lock lk.lk_mu;
          lk.lk_fd <- Some fd;
          lk.lk_dirty <- true;
          Condition.broadcast lk.lk_cond;
          Mutex.unlock lk.lk_mu;
          (* acks applied during resume may have freed window space *)
          Array.iter (fun c -> c.ch_kick ()) lk.lk_chans;
          let p0 = progress () in
          let t0 = Unix.gettimeofday () in
          let outcome =
            try recv_loop fd ~find_chan ~on_ack_latency:(record_latencies h)
            with e -> `Down e
          in
          link_down lk fd;
          (match outcome with
           | `Close -> ()
           | `Poisoned reason ->
             Connector.poison h.h_conn
               (spf "shard: worker %s: %s" lk.lk_token reason)
           | `Down e ->
             if stopping () then ()
             else begin
               let useful =
                 progress () > p0
                 || Unix.gettimeofday () -. t0 >= min_session_life
               in
               retry
                 ~attempt:(if useful then 1 else attempt + 1)
                 ~last:(Printexc.to_string e)
             end)
        | Some (Wire.Sh_poison reason) ->
          (try Unix.close fd with _ -> ());
          Connector.poison h.h_conn
            (spf "shard: worker %s: %s" lk.lk_token reason)
        | _ | (exception _) ->
          (try Unix.close fd with _ -> ());
          retry ~attempt:(attempt + 1) ~last:"handshake failed")
  and retry ~attempt ~last =
    if stopping () then ()
    else if attempt > h.h_retries then
      escalate h lk ~attempts:(max attempt h.h_retries) ~last
    else if lk.lk_spawns > respawn_cap then
      escalate h lk ~attempts:lk.lk_spawns
        ~last:(spf "%s; respawn cap %d exhausted" last respawn_cap)
    else begin
      (* Respawn the worker if its process died (one that merely dropped
         the link exits on its own and is replaced on the next attempt). *)
      (match Unix.waitpid [ Unix.WNOHANG ] lk.lk_pid with
       | 0, _ -> ()
       | _, _ -> spawn_worker h lk
       | exception _ -> spawn_worker h lk);
      Thread.delay (h.h_backoff *. (2.0 ** float_of_int attempt));
      session ~attempt:(attempt + 1) ~resumed:true
    end
  in
  session ~attempt:0 ~resumed:false

let host ?(window = 1024) ?domains ?compile ?(retries = 3) ?(backoff = 0.25)
    ?(hello_timeout = 10.0) ?journal_dir ?(latency_every = 0) ?exe ~nworkers
    ~place ~workloads ~source ~name ~lengths () =
  if nworkers < 1 then invalid_arg "Shard.host: nworkers must be >= 1";
  let bindings, sources, sinks, mediums = build_parts ~source ~name ~lengths in
  let eff_domains = Config.effective_domains ?requested:domains () in
  let eff_compile = Config.effective_compile ?requested:compile () in
  let backend = Sched.effective () in
  let p =
    Partition.split ~domains:eff_domains ~sequentialize:eff_compile
      ~sources:(Iset.of_list (Array.to_list sources))
      ~sinks:(Iset.of_list (Array.to_list sinks))
      mediums
  in
  let nregions = Array.length p.Partition.regions in
  let proc_of r =
    let pr = place r in
    if pr < 0 || pr > nworkers then
      invalid_arg (spf "Shard.host: place %d -> invalid process %d" r pr);
    pr
  in
  (* One channel per cut whose ends land in different processes. *)
  let chans = ref [] in
  Array.iteri
    (fun i (cut : Partition.cut) ->
      let tp = proc_of cut.Partition.c_tail_region
      and hp = proc_of cut.Partition.c_head_region in
      if tp <> hp then begin
        if tp <> 0 && hp <> 0 then
          invalid_arg
            (spf
               "Shard.host: cut %d joins worker %d to worker %d; every \
                cross-process cut needs one side on the host"
               i tp hp);
        (match cut.Partition.c_shape with
         | Partition.Cut_queue _ -> ()
         | Partition.Cut_auto _ ->
           invalid_arg
             (spf
                "Shard.host: cut %d is a modal-automaton cut and cannot cross \
                 processes; place both sides in one process"
                i));
        let role = if tp = 0 then Producing else Consuming in
        let region =
          if tp = 0 then cut.Partition.c_tail_region
          else cut.Partition.c_head_region
        in
        let worker = if tp = 0 then hp else tp in
        let c = make_chan ~id:i ~role ~window ~region in
        if role = Producing then inject_init c cut.Partition.c_shape;
        chans := (worker, c, cut) :: !chans
      end)
    p.Partition.cuts;
  let chans = List.rev !chans in
  let links =
    Array.init nworkers (fun w ->
        let mine =
          List.filter_map
            (fun (worker, c, _) -> if worker = w + 1 then Some c else None)
            chans
        in
        make_link ~token:(spf "w%d" (w + 1)) (Array.of_list mine))
  in
  List.iter
    (fun (worker, c, _) ->
      c.ch_notify <- (fun () -> link_signal links.(worker - 1)))
    chans;
  (* The placed connector: local engines for host regions only, shard gates
     at every cross-process cut. *)
  let chan_tbl = Hashtbl.create 16 in
  List.iter (fun (_, c, _) -> Hashtbl.replace chan_tbl c.ch_id c) chans;
  let cut_gates id _shape ~tail_region:_ ~head_region:_ =
    match Hashtbl.find_opt chan_tbl id with
    | Some c -> Some (producer_gate ~latency_every c, consumer_gate c)
    | None -> None
  in
  let conn =
    Connector.create ~config:Config.new_partitioned ~name ~domains:eff_domains
      ~compile:eff_compile
      ~local:(fun r -> proc_of r = 0)
      ~cut_gates ~sources ~sinks mediums
  in
  if Connector.plan_regions conn <> nregions then
    shard_err "shard: placement plan mismatch (%d regions vs %d)"
      (Connector.plan_regions conn) nregions;
  set_kicks conn (List.map (fun (_, c, _) -> c) chans);
  let listener = Wire.listen_local ~port:0 () in
  (try Unix.set_close_on_exec listener with _ -> ());
  let port = Wire.bound_port listener in
  (* The per-worker configuration frame, rebuilt at every (re)connect so
     resume floors reflect the host's current consume and ack positions. *)
  let cfg_for w =
    let mine =
      List.filter_map
        (fun (worker, c, _) -> if worker = w then Some c else None)
        chans
    in
    let chan_frames =
      List.map
        (fun c ->
          (* the frame describes the WORKER's side of the channel *)
          let wrole =
            match c.ch_role with Producing -> "cons" | Consuming -> "prod"
          in
          let journal =
            match (c.ch_role, journal_dir) with
            | Producing, Some dir -> journal_path ~dir ~ch:c.ch_id
            | _ -> ""
          in
          (* Both directions need a resume floor. Worker-producing (host
             Consuming): our receive position, so the replaying producer
             swallows what we already have. Worker-consuming (host
             Producing): our ack watermark — the host replays from
             [ch_acked], so a respawned worker with no journal (or a lost
             one) must start expecting there, not at 0, or the first
             replayed batch reads as a sequence gap and the worker dies in
             a respawn loop. *)
          let floor =
            match c.ch_role with
            | Consuming -> locked c.ch_mu (fun () -> c.ch_expect)
            | Producing -> locked c.ch_mu (fun () -> c.ch_acked)
          in
          Value.list
            [
              Value.int c.ch_id;
              Value.str wrole;
              Value.int c.ch_window;
              Value.str journal;
              Value.int floor;
            ])
        mine
    in
    let regions =
      List.filter_map
        (fun r -> if proc_of r = w then Some (Value.int r) else None)
        (List.init nregions Fun.id)
    in
    Value.list
      [
        Value.str source;
        Value.str name;
        Value.list
          (List.map
             (fun (g, n) -> Value.pair (Value.str g) (Value.int n))
             lengths);
        Value.int eff_domains;
        Value.bool eff_compile;
        Value.str
          (match backend with
           | Sched.Coloring -> "coloring"
           | Sched.Automata -> "automata");
        Value.int nregions;
        Value.int (Array.length p.Partition.cuts);
        Value.list regions;
        Value.list chan_frames;
        Value.list (List.map encode_workload (workloads w));
      ]
  in
  let exe = match exe with Some e -> e | None -> default_exe () in
  let h =
    {
      h_conn = conn;
      h_bindings = bindings;
      h_links = links;
      h_listener = listener;
      h_port = port;
      h_exe = exe;
      h_retries = retries;
      h_backoff = backoff;
      h_hello_timeout = hello_timeout;
      h_cfg_of = cfg_for;
      h_stop = Atomic.make false;
      h_lat_mu = Mutex.create ();
      h_lat = [];
      h_lat_n = 0;
      h_threads = [];
    }
  in
  Array.iter (fun lk -> spawn_worker h lk) links;
  let accept_t = Thread.create accept_loop h in
  let sender_ts =
    Array.to_list (Array.map (fun lk -> Thread.create sender_loop lk) links)
  in
  let manager_ts =
    Array.to_list
      (Array.mapi
         (fun w lk -> Thread.create (fun () -> manager h lk (w + 1)) ())
         links)
  in
  h.h_threads <- (accept_t :: sender_ts) @ manager_ts;
  h

let connector h = h.h_conn

let vertex_at h group i =
  match List.assoc_opt group h.h_bindings with
  | None -> invalid_arg (spf "Shard: unknown group %s" group)
  | Some arr ->
    if i < 0 || i >= Array.length arr then
      invalid_arg (spf "Shard: %s[%d] out of range" group i);
    arr.(i)

let outport_at h group i = Connector.outport h.h_conn (vertex_at h group i)
let inport_at h group i = Connector.inport h.h_conn (vertex_at h group i)

let latencies h =
  Mutex.lock h.h_lat_mu;
  let l = h.h_lat in
  h.h_lat <- [];
  h.h_lat_n <- 0;
  Mutex.unlock h.h_lat_mu;
  l

let worker_pids h = Array.map (fun lk -> lk.lk_pid) h.h_links

let kill_worker h w =
  if w < 1 || w > Array.length h.h_links then invalid_arg "Shard.kill_worker";
  let lk = h.h_links.(w - 1) in
  try Unix.kill lk.lk_pid Sys.sigkill with _ -> ()

let shutdown h =
  Atomic.set h.h_stop true;
  Array.iter
    (fun lk ->
      Mutex.lock lk.lk_mu;
      lk.lk_close <- true;
      lk.lk_dirty <- true;
      Condition.broadcast lk.lk_cond;
      Mutex.unlock lk.lk_mu)
    h.h_links;
  (* Give the senders a beat to flush Sh_close before poisoning cuts the
     engines (workers exit 0 on a clean close, nonzero on a dropped link). *)
  let flush_deadline = Unix.gettimeofday () +. 2.0 in
  let all_stopped () =
    Array.for_all
      (fun lk ->
        Mutex.lock lk.lk_mu;
        let s = lk.lk_stop in
        Mutex.unlock lk.lk_mu;
        s)
      h.h_links
  in
  while (not (all_stopped ())) && Unix.gettimeofday () < flush_deadline do
    Thread.delay 0.01
  done;
  (* A blocked accept() is not woken by close() on another thread; shutdown()
     on the listening socket makes it return EINVAL, and a throwaway
     self-connection covers platforms where it does not. *)
  (try Unix.shutdown h.h_listener Unix.SHUTDOWN_ALL with _ -> ());
  (try
     let fd = Wire.connect_local ~port:h.h_port () in
     Unix.close fd
   with _ -> ());
  (try Unix.close h.h_listener with _ -> ());
  Connector.close h.h_conn;
  let statuses =
    Array.to_list
      (Array.map
         (fun lk ->
           let deadline = Unix.gettimeofday () +. 10.0 in
           let rec wait () =
             match Unix.waitpid [ Unix.WNOHANG ] lk.lk_pid with
             | 0, _ ->
               if Unix.gettimeofday () > deadline then begin
                 (try Unix.kill lk.lk_pid Sys.sigkill with _ -> ());
                 let _, st = Unix.waitpid [] lk.lk_pid in
                 (lk.lk_pid, st)
               end
               else begin
                 Thread.delay 0.02;
                 wait ()
               end
             | pid, st -> (pid, st)
             | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
               (lk.lk_pid, Unix.WEXITED 0)
             | exception _ -> (lk.lk_pid, Unix.WEXITED 0)
           in
           wait ())
         h.h_links)
  in
  List.iter (fun t -> try Thread.join t with _ -> ()) h.h_threads;
  statuses

(* --- Worker ------------------------------------------------------------------ *)

type wcfg = {
  c_source : string;
  c_name : string;
  c_lengths : (string * int) list;
  c_domains : int;
  c_compile : bool;
  c_backend : Sched.backend;
  c_nregions : int;
  c_ncuts : int;
  c_regions : int list;
  c_chans : (int * role * int * string option * int) list;
  c_workloads : workload list;
}

let decode_cfg v =
  match Value.to_list v with
  | [ src; nm; lens; doms; comp; bk; nreg; ncut; regs; chs; wls ] ->
    {
      c_source = Value.to_str src;
      c_name = Value.to_str nm;
      c_lengths =
        List.map
          (fun p ->
            let a, b = Value.to_pair p in
            (Value.to_str a, Value.to_int b))
          (Value.to_list lens);
      c_domains = Value.to_int doms;
      c_compile = Value.to_bool comp;
      c_backend =
        (match Value.to_str bk with
         | "coloring" -> Sched.Coloring
         | _ -> Sched.Automata);
      c_nregions = Value.to_int nreg;
      c_ncuts = Value.to_int ncut;
      c_regions = List.map Value.to_int (Value.to_list regs);
      c_chans =
        List.map
          (fun c ->
            match Value.to_list c with
            | [ id; role; win; jr; floor ] ->
              let role =
                match Value.to_str role with
                | "prod" -> Producing
                | "cons" -> Consuming
                | s -> shard_err "shard: bad role %S" s
              in
              let journal =
                match Value.to_str jr with "" -> None | p -> Some p
              in
              ( Value.to_int id,
                role,
                Value.to_int win,
                journal,
                Value.to_int floor )
            | _ -> shard_err "shard: bad channel frame")
          (Value.to_list chs);
      c_workloads = List.map decode_workload (Value.to_list wls);
    }
  | _ -> shard_err "shard: bad cfg frame"

let run_workload conn bindings = function
  | Produce { w_group; w_indices; w_count } ->
    List.map
      (fun i ->
        Thread.create
          (fun () ->
            let arr =
              match List.assoc_opt w_group bindings with
              | Some a -> a
              | None -> shard_err "shard: unknown group %s" w_group
            in
            let p = Connector.outport conn arr.(i) in
            try
              let k = ref 0 in
              while w_count < 0 || !k < w_count do
                Port.send p (Value.int !k);
                incr k
              done
            with Engine.Poisoned _ -> ())
          ())
      w_indices
  | Consume { w_group; w_indices; w_clients } ->
    List.map
      (fun i ->
        Thread.create
          (fun () ->
            let arr =
              match List.assoc_opt w_group bindings with
              | Some a -> a
              | None -> shard_err "shard: unknown group %s" w_group
            in
            let p = Connector.inport conn arr.(i) in
            (* each simulated client keeps a delivery counter; every popped
               message fans out to all of them *)
            let clients = Array.make (max w_clients 1) 0 in
            try
              while true do
                ignore (Port.recv p);
                if w_clients > 0 then
                  for j = 0 to w_clients - 1 do
                    clients.(j) <- clients.(j) + 1
                  done
              done
            with Engine.Poisoned _ -> ())
          ())
      w_indices

let worker_main ?(retries = 100) ?(backoff = 0.05) ~port ~token () =
  let fd = Wire.connect_local ~retries ~backoff ~port () in
  Wire.write_shard fd (Wire.Sh_hello { token });
  let cfg =
    match Wire.read_shard ~deadline:(Unix.gettimeofday () +. 30.0) fd with
    | Some (Wire.Sh_cfg v) -> decode_cfg v
    | _ -> shard_err "shard: expected configuration after hello"
  in
  let bindings, sources, sinks, mediums =
    build_parts ~source:cfg.c_source ~name:cfg.c_name ~lengths:cfg.c_lengths
  in
  (* Rebuild our side of every channel; recover journals before anything
     can acknowledge. *)
  let chans =
    List.map
      (fun (id, role, window, journal, floor) ->
        let c = make_chan ~id ~role ~window ~region:(-1) in
        (match role with
         | Producing -> c.ch_floor <- floor
         | Consuming ->
           (* Resume position: the journal when we have one, else the ack
              floor the host shipped (its replay starts there). The max is
              safe either way: the journal is flushed before any ack can
              reach the host, so recovered >= floor whenever the journal
              survived, and floor covers a missing or lost journal. *)
           let recovered =
             match journal with Some p -> recover_journal p | None -> 0
           in
           let resume = max recovered floor in
           c.ch_expect <- resume;
           c.ch_popped <- resume;
           c.ch_ack_flushed <- resume;
           c.ch_journal <-
             Option.map
               (fun p ->
                 open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 p)
               journal);
        c)
      cfg.c_chans
  in
  let chan_tbl = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace chan_tbl c.ch_id c) chans;
  let realized = Hashtbl.create 16 in
  let cut_gates id shape ~tail_region ~head_region =
    match Hashtbl.find_opt chan_tbl id with
    | None -> None
    | Some c ->
      Hashtbl.replace realized id ();
      c.ch_region <-
        (match c.ch_role with
         | Producing -> tail_region
         | Consuming -> head_region);
      if c.ch_role = Producing then inject_init c shape;
      Some (producer_gate ~latency_every:0 c, consumer_gate c)
  in
  let my_regions = cfg.c_regions in
  let conn =
    Connector.create ~config:Config.new_partitioned ~name:cfg.c_name
      ~backend:cfg.c_backend ~domains:cfg.c_domains ~compile:cfg.c_compile
      ~local:(fun r -> List.mem r my_regions)
      ~cut_gates ~sources ~sinks mediums
  in
  let fail_structurally msg =
    (try Wire.write_shard fd (Wire.Sh_poison msg) with _ -> ());
    prerr_endline msg;
    2
  in
  if Connector.plan_regions conn <> cfg.c_nregions then
    fail_structurally
      (spf "shard: worker %s plan mismatch: %d regions here, host expected %d"
         token (Connector.plan_regions conn) cfg.c_nregions)
  else if Hashtbl.length realized <> List.length cfg.c_chans then
    fail_structurally
      (spf
         "shard: worker %s cut mismatch: realized %d of %d channels (plan has \
          %d cuts)"
         token (Hashtbl.length realized) (List.length cfg.c_chans) cfg.c_ncuts)
  else begin
    set_kicks conn chans;
    let lk = make_link ~token (Array.of_list chans) in
    lk.lk_fd <- Some fd;
    List.iter (fun c -> c.ch_notify <- (fun () -> link_signal lk)) chans;
    let resumes =
      List.filter_map
        (fun c ->
          match c.ch_role with
          | Consuming -> Some (c.ch_id, c.ch_popped)
          | Producing -> None)
        chans
    in
    Wire.write_shard fd (Wire.Sh_resume resumes);
    let sender = Thread.create sender_loop lk in
    (* flush anything injected before the link existed (fifo prefills) *)
    link_signal lk;
    let tasks = List.concat_map (run_workload conn bindings) cfg.c_workloads in
    let find_chan id =
      match Hashtbl.find_opt chan_tbl id with
      | Some c -> c
      | None -> shard_err "shard: unknown channel %d" id
    in
    let code =
      match recv_loop fd ~find_chan ~on_ack_latency:(fun _ -> ()) with
      | `Close ->
        Connector.close conn;
        0
      | `Poisoned reason ->
        Connector.poison conn (spf "shard: %s" reason);
        3
      | exception e ->
        Connector.poison conn
          (spf "shard: link to host lost (%s)" (Printexc.to_string e));
        1
    in
    Mutex.lock lk.lk_mu;
    lk.lk_stop <- true;
    Condition.broadcast lk.lk_cond;
    Mutex.unlock lk.lk_mu;
    (try Thread.join sender with _ -> ());
    List.iter (fun t -> try Thread.join t with _ -> ()) tasks;
    List.iter
      (fun c ->
        match c.ch_journal with
        | Some oc -> ( try close_out oc with _ -> ())
        | None -> ())
      chans;
    (try Unix.close fd with _ -> ());
    code
  end
