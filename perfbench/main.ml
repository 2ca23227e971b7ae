(* The repository's benchmark: four workloads, each checked by an oracle,
   timed end to end, and — in a separate traced run — split by layer with
   spans the benchmark records around its own calls into each module.

     main.exe --workload merge_loop|bcast_color|cg_a|shard_echo
              --seed N --seconds S --trace 0|1 --preoc PATH --out DIR

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
   are the end-to-end ones, with --trace 1 the per-layer ones. README.md in
   this directory explains each workload, metric and oracle. *)

open Preo_support
module U = Perfbench_util
module Mono = U.Mono
module Samples = U.Samples
module Stat = U.Stat
module Span = U.Span
module Oracle = U.Oracle
module Port = Preo.Port
module Connector = Preo.Connector
module Catalog = Preo_connectors.Catalog
module Comm = Preo_npb.Comm
module Cg = Preo_npb.Cg
module Shard = Preo_dist.Shard
module Wire = Preo_dist.Wire

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* --- Options ------------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  preoc : string option;
  out_dir : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and preoc = ref "" and out_dir = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--preoc", Arg.Set_string preoc, "PATH preoc binary (shard workers)");
      ("--out", Arg.Set_string out_dir, "DIR where spans are written");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "main.exe [options]";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    preoc = (if !preoc = "" then None else Some !preoc);
    out_dir = !out_dir;
  }

(* --- Metrics ------------------------------------------------------------- *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_ms.p50", "ms");
    ("latency_ms.p99", "ms");
    ("rss_peak_mb", "MB");
  ]

(* Every per-layer metric is printed on every workload; a layer the
   workload does not run reports 0. *)
let per_layer_units =
  [
    ("lang.parse_ms", "ms");
    ("lang.sema_ms", "ms");
    ("lang.flatten_ms", "ms");
    ("lang.template_ms", "ms");
    ("runtime.instantiate_ms", "ms");
    ("composer.expansions", "count");
    ("composer.lookups", "count");
    ("composer.cache_hit_ratio", "ratio");
    ("composer.warmup_ms", "ms");
    ("engine.send_us.p50", "us");
    ("engine.recv_us.p50", "us");
    ("engine.steps_per_op", "count");
    ("engine.fires", "count");
    ("engine.compiled_fire_ratio", "ratio");
    ("engine.mpsc_ops", "count");
    ("engine.mpsc_fast_ratio", "ratio");
    ("engine.cond_waits", "count");
    ("engine.cond_waits_per_op", "count");
    ("engine.spurious_wake_ratio", "ratio");
    ("engine.broadcast_wakes", "count");
    ("coloring.rounds", "count");
    ("coloring.rounds_per_op", "count");
    ("coloring.iters_per_round", "count");
    ("coloring.recv_us.p50", "us");
    ("comm.calls", "count");
    ("comm.allreduce_us.p50", "us");
    ("comm.allreduce_us.p99", "us");
    ("comm.barrier_us.p50", "us");
    ("comm.share", "ratio");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("shard.frames", "count");
    ("shard.items_per_frame", "count");
    ("shard.acks_per_item", "ratio");
    ("shard.reconnects", "count");
    ("shard.spawn_ms", "ms");
    ("loadgen.lag_ms.p99", "ms");
    ("loadgen.offered_per_s", "1/s");
    ("gc.minor_words_per_op", "count");
    ("gc.major_collections", "count");
    ("self.bench_share", "ratio");
    ("self.engine_share", "ratio");
    ("self.coloring_share", "ratio");
    ("self.npb_share", "ratio");
    ("trace.ops", "count");
    ("trace.overhead_ratio", "ratio");
    ("latency.samples", "count");
  ]

type result = {
  oracle : Oracle.t;
  metrics : (string, float) Hashtbl.t;
}

let set r name v = Hashtbl.replace r.metrics name v

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.15g" v

let print_result ~trace r =
  let units = if trace then per_layer_units else end_to_end_units in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt r.metrics name) in
        if not (Float.is_finite v) then die "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      units
  in
  let o = r.oracle in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.attempted > 0) (max 1 o.attempted) o.failed
    (String.concat ", " metrics)

(* --- Environment and watchdog -------------------------------------------- *)

let proc_field file key =
  try
    let ic = open_in file in
    let rec go () =
      match input_line ic with
      | line ->
        let k = String.length key in
        if String.length line > k && String.sub line 0 k = key then begin
          close_in ic;
          Some (String.trim (String.sub line k (String.length line - k)))
        end
        else go ()
      | exception End_of_file ->
        close_in ic;
        None
    in
    go ()
  with Sys_error _ -> None

let rss_peak_mb () =
  match proc_field "/proc/self/status" "VmHWM:" with
  | Some s -> Scanf.sscanf s "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> die "cannot read VmHWM from /proc/self/status"

(* Ops completed so far; the watchdog declares a hang when it stops
   moving. *)
let progress = Atomic.make 0

let current : result option ref = ref None

(* A run that stops making progress (deadlock, lost value, dead worker)
   reports its failures and exits non-zero instead of hanging. *)
let start_watchdog ~stall_s ~total_s ~trace =
  let t0 = Unix.gettimeofday () in
  ignore
    (Thread.create
       (fun () ->
         let last = ref (Atomic.get progress) and since = ref t0 in
         while true do
           Thread.delay 0.5;
           let now = Unix.gettimeofday () in
           let p = Atomic.get progress in
           if p <> !last then (last := p; since := now);
           let why =
             if now -. !since > stall_s then
               Some (Printf.sprintf "no progress for %.0f s" stall_s)
             else if now -. t0 > total_s then
               Some (Printf.sprintf "run exceeded %.0f s" total_s)
             else None
           in
           match why with
           | None -> ()
           | Some why ->
             Printf.printf "# watchdog: %s\n" why;
             (match !current with
              | Some r ->
                Oracle.fail r.oracle ("watchdog: " ^ why);
                print_result ~trace r
              | None -> ());
             flush stdout;
             Unix._exit 3
         done)
       ())

(* --- Shared helpers ------------------------------------------------------ *)

let spans_cap = 400_000

(* Latency samples kept per window: a fixed evenly spaced subsample, so that
   memory (and rss_peak_mb) does not depend on how many ops ran. *)
let lat_limit = 1 lsl 18

(* Span helpers that cost one branch when tracing is off. *)
let enter sp ~name ~parent ~op =
  match sp with None -> Span.none | Some t -> Span.enter t ~name ~parent ~op

let leave sp i = match sp with None -> () | Some t -> Span.leave t i

let send sp ~name ~parent ~op p v =
  match sp with
  | None -> Port.send p v
  | Some t ->
    let i = Span.enter t ~name ~parent ~op in
    Port.send p v;
    Span.leave t i

let recv sp ~name ~parent ~op p =
  match sp with
  | None -> Port.recv p
  | Some t ->
    let i = Span.enter t ~name ~parent ~op in
    let v = Port.recv p in
    Span.leave t i;
    v

(* Setup spans: one tree per repetition, op id = repetition. *)
type setup_trace = { st : Span.t; mutable rep : int; mutable root : int }

let setup_span (s : setup_trace option) name f =
  match s with
  | None -> f ()
  | Some s ->
    let i = Span.enter s.st ~name:(Span.intern s.st name) ~parent:s.root ~op:s.rep in
    let r = f () in
    Span.leave s.st i;
    r

let setup_trace opts =
  if opts.trace then Some { st = Span.create 4096; rep = 0; root = Span.none } else None

(* [Preo.compile], split into its lang-layer calls when traced. *)
let compile (s : setup_trace option) ~source ~name =
  match s with
  | None -> Preo.compile ~source ~name
  | Some _ ->
    let program = setup_span s "lang.parse" (fun () -> Preo.Parser.program source) in
    setup_span s "lang.sema" (fun () -> Preo.Sema.check program);
    let def =
      match List.find_opt (fun d -> d.Preo.Ast.c_name = name) program.defs with
      | Some d -> d
      | None -> die "no connector %s in source" name
    in
    let flat =
      setup_span s "lang.flatten" (fun () -> Preo.Flatten.def ~defs:program.defs def)
    in
    let template = setup_span s "lang.template" (fun () -> Preo.Template.compile flat) in
    { Preo.program; def; flat; template }

(* Repeat the set-up [reps] times and report the median; every instance
   but the last is torn down. *)
let repeat_setup ~reps ~(traced : setup_trace option) ~setup ~teardown =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for k = 0 to reps - 1 do
    (match !last with Some x -> teardown x | None -> ());
    (match traced with
     | Some s ->
       s.rep <- k;
       s.root <- Span.enter s.st ~name:(Span.intern s.st "bench.setup") ~parent:Span.none ~op:k
     | None -> ());
    let t0 = Mono.now_ns () in
    let x = setup traced in
    times.(k) <- Mono.seconds_of_ns (Mono.now_ns () - t0);
    (match traced with Some s -> Span.leave s.st s.root | None -> ());
    last := Some x
  done;
  match !last with Some x -> (x, Stat.median_float times) | None -> die "no set-up"

(* Median, over the repetitions that made such calls, of each repetition's
   summed duration of spans [name]. *)
let setup_ms (s : setup_trace) name =
  let t = s.st in
  let per = Hashtbl.create 16 in
  let id = Span.intern t name in
  for i = 0 to Span.count t - 1 do
    if t.Span.name.(i) = id && Span.closed t i then
      Hashtbl.replace per t.op.(i)
        (t.stop.(i) - t.start.(i) + Option.value ~default:0 (Hashtbl.find_opt per t.op.(i)))
  done;
  if Hashtbl.length per = 0 then 0.0
  else Stat.median_int (Array.of_seq (Hashtbl.to_seq_values per)) /. 1e6

let record_setup_layers r (s : setup_trace) =
  List.iter
    (fun (metric, span) -> set r metric (setup_ms s span))
    [
      ("lang.parse_ms", "lang.parse");
      ("lang.sema_ms", "lang.sema");
      ("lang.flatten_ms", "lang.flatten");
      ("lang.template_ms", "lang.template");
      ("runtime.instantiate_ms", "runtime.instantiate");
      ("shard.spawn_ms", "shard.spawn");
    ]

let pct_ms ~q (s : Samples.t) =
  match Stat.percentile ~q (Samples.sorted s) with
  | Some ns -> float_of_int ns /. 1e6
  | None ->
    die "p%.0f needs %d samples beyond it; only %d samples" (q *. 100.0)
      Stat.min_beyond (Samples.length s)

let pct_us ~q s = 1000.0 *. pct_ms ~q s

(* p50 of span durations, or 0 when the span never ran. *)
let span_p50_us (t : Span.t) name =
  let d = Span.durations t name in
  if Samples.length d = 0 then 0.0 else pct_us ~q:0.5 d

type window = {
  ops : int;
  elapsed_ns : int;
  lat : Samples.t;  (** per-op latency, ns *)
}

(* Closed loop: issue [op k] back to back for [seconds], or until [stop]. *)
let closed_loop ?(stop = fun () -> false) ~seconds ~op () =
  let lat = Samples.bounded lat_limit in
  let t0 = Mono.now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let k = ref 0 and t = ref t0 in
  while !t < t_end && not (stop ()) do
    op !k;
    let t1 = Mono.now_ns () in
    Samples.add lat (t1 - !t);
    Atomic.incr progress;
    incr k;
    t := t1
  done;
  { ops = !k; elapsed_ns = !t - t0; lat }

let record_stats r ~ops ((a : Connector.stats), (b : Connector.stats)) =
  let d f = f b - f a in
  let per_op x = Stat.ratio x ops in
  let lookups = d (fun s -> s.Connector.st_cache_hits) + d (fun s -> s.st_expansions) in
  set r "composer.expansions" (float_of_int b.st_expansions);
  set r "composer.lookups" (float_of_int lookups);
  set r "composer.cache_hit_ratio" (Stat.ratio (d (fun s -> s.st_cache_hits)) lookups);
  set r "engine.steps_per_op" (per_op (d (fun s -> s.st_steps)));
  let cf = d (fun s -> s.st_compiled_fires) and inf = d (fun s -> s.st_interp_fires) in
  set r "engine.fires" (float_of_int (cf + inf));
  set r "engine.compiled_fire_ratio" (Stat.ratio cf (cf + inf));
  let mops = d (fun s -> s.st_mpsc_ops) in
  set r "engine.mpsc_ops" (float_of_int mops);
  set r "engine.mpsc_fast_ratio" (Stat.ratio (d (fun s -> s.st_mpsc_fast)) mops);
  let waits = d (fun s -> s.st_cond_waits) in
  set r "engine.cond_waits" (float_of_int waits);
  set r "engine.cond_waits_per_op" (per_op waits);
  set r "engine.spurious_wake_ratio" (Stat.ratio (d (fun s -> s.st_wakes_spurious)) waits);
  set r "engine.broadcast_wakes" (float_of_int (d (fun s -> s.st_wakes_broadcast)));
  let rounds = d (fun s -> s.st_color_rounds) in
  set r "coloring.rounds" (float_of_int rounds);
  set r "coloring.rounds_per_op" (per_op rounds);
  set r "coloring.iters_per_round" (Stat.ratio (d (fun s -> s.st_color_iters)) rounds);
  let frames = d (fun s -> s.st_shard_batches) and items = d (fun s -> s.st_shard_items) in
  set r "shard.frames" (float_of_int frames);
  set r "shard.items_per_frame" (Stat.ratio items frames);
  set r "shard.acks_per_item" (Stat.ratio (d (fun s -> s.st_shard_acks)) items);
  set r "shard.reconnects" (float_of_int (d (fun s -> s.st_shard_reconnects)))

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.major_collections)

let record_gc r ~ops (w0, c0) =
  let w1, c1 = gc_counts () in
  set r "gc.minor_words_per_op" ((w1 -. w0) /. float_of_int (max 1 ops));
  set r "gc.major_collections" (float_of_int (c1 - c0))

(* Self time per layer over the op spans: each layer's share of the root
   spans' total time. *)
let record_self r (t : Span.t) =
  let total = Span.root_total t in
  let self = Span.layer_self t in
  List.iter
    (fun layer ->
      let s = Option.value ~default:0 (Hashtbl.find_opt self layer) in
      set r ("self." ^ layer ^ "_share") (Stat.ratio s total))
    [ "bench"; "engine"; "coloring"; "npb" ]

let throughput w = float_of_int w.ops /. Mono.seconds_of_ns w.elapsed_ns

let record_traced r spans ~untraced ~traced =
  set r "trace.ops" (float_of_int traced.ops);
  set r "trace.overhead_ratio" (throughput traced /. throughput untraced);
  record_self r spans

let record_end_to_end r ~setup_s ~throughput (lat : Samples.t) =
  set r "setup_s" setup_s;
  set r "throughput_per_s" throughput;
  set r "latency_ms.p50" (pct_ms ~q:0.5 lat);
  set r "latency_ms.p99" (pct_ms ~q:0.99 lat);
  set r "rss_peak_mb" (rss_peak_mb ());
  Printf.printf "# latency: %d ops timed, %d samples kept, p99 has %d beyond it\n"
    (Samples.seen lat) (Samples.length lat)
    (Stat.beyond ~q:0.99 (Samples.length lat))

let write_spans opts workload (t : Span.t) suffix =
  if opts.out_dir <> "" then
    Span.write t
      (Filename.concat opts.out_dir
         (Printf.sprintf "spans-%s-%s.tsv" workload suffix))

let seeded_ints ~seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> Value.int (Random.State.bits st land 0xFFFFFF))

(* --- In-process closed loops: merge_loop, bcast_color -------------------- *)

type loop_spec = {
  workload : string;
  entry : string;
  backend : Preo.Sched.backend;
  reps : int;
  lengths : (string * int) list;
  (* one op on the instance; [op sp k] *)
  make_op :
    Preo.instance ->
    Value.t array ->
    Oracle.t ->
    Span.t option ->
    int ->
    unit;
}

let merge_spec =
  let n = 8 in
  {
    workload = "merge_loop";
    entry = "ordered_merger";
    backend = Preo.Sched.Automata;
    reps = 3000;
    lengths = [ ("tl", n); ("hd", n) ];
    make_op =
      (fun inst vals o ->
        let tl = Preo.outports inst "tl" and hd = Preo.inports inst "hd" in
        let mask = Array.length vals - 1 in
        fun sp ->
          let id_op, id_send, id_recv =
            match sp with
            | Some t -> (Span.intern t "bench.op", Span.intern t "engine.send", Span.intern t "engine.recv")
            | None -> (0, 0, 0)
          in
          fun k ->
            let root = enter sp ~name:id_op ~parent:Span.none ~op:k in
            let ok = ref true in
            for i = 0 to n - 1 do
              let v = vals.(((k * n) + i) land mask) in
              send sp ~name:id_send ~parent:root ~op:k tl.(i) v;
              let got = recv sp ~name:id_recv ~parent:root ~op:k hd.(i) in
              if not (Value.equal got v) then ok := false
            done;
            leave sp root;
            if !ok then Oracle.pass o
            else Oracle.fail o (Printf.sprintf "merge_loop op %d: hd out of round-robin order" k));
  }

let bcast_spec =
  let n = 128 in
  {
    workload = "bcast_color";
    entry = "broadcast_fifo";
    backend = Preo.Sched.Coloring;
    reps = 400;
    lengths = [ ("hd", n) ];
    make_op =
      (fun inst vals o ->
        let tl = (Preo.outports inst "tl").(0) and hd = Preo.inports inst "hd" in
        let mask = Array.length vals - 1 in
        fun sp ->
          let id_op, id_send, id_recv =
            match sp with
            | Some t ->
              (Span.intern t "bench.op", Span.intern t "coloring.send", Span.intern t "coloring.recv")
            | None -> (0, 0, 0)
          in
          fun k ->
            let root = enter sp ~name:id_op ~parent:Span.none ~op:k in
            let v = vals.(k land mask) in
            send sp ~name:id_send ~parent:root ~op:k tl v;
            let ok = ref true in
            for j = 0 to n - 1 do
              let got = recv sp ~name:id_recv ~parent:root ~op:k hd.(j) in
              if not (Value.equal got v) then ok := false
            done;
            leave sp root;
            if !ok then Oracle.pass o
            else Oracle.fail o (Printf.sprintf "bcast_color op %d: an hd missed the value" k));
  }

let run_loop opts spec r =
  let entry = Catalog.find spec.entry in
  let setup traced =
    let c = compile traced ~source:entry.Catalog.source ~name:entry.conn_name in
    setup_span traced "runtime.instantiate" (fun () ->
        Preo.instantiate ~config:Preo.Config.new_jit ~backend:spec.backend ~domains:1
          ~compile:true c ~lengths:spec.lengths)
  in
  let traced = setup_trace opts in
  let inst, setup_s = repeat_setup ~reps:spec.reps ~traced ~setup ~teardown:Preo.shutdown in
  let conn = Preo.connector inst in
  let vals = seeded_ints ~seed:opts.seed 4096 in
  let op = spec.make_op inst vals r.oracle in
  let plain = op None in
  (* first op on the fresh instance: JIT expansion / memo fill *)
  let t0 = Mono.now_ns () in
  plain 0;
  set r "composer.warmup_ms" (float_of_int (Mono.now_ns () - t0) /. 1e6);
  ignore (closed_loop ~seconds:0.5 ~op:plain ());
  match traced with
  | None ->
    let w = closed_loop ~seconds:opts.seconds ~op:plain () in
    record_end_to_end r ~setup_s ~throughput:(throughput w) w.lat
  | Some st ->
    record_setup_layers r st;
    let half = opts.seconds /. 2.0 in
    let s0 = Connector.stats conn and g0 = gc_counts () in
    let w = closed_loop ~seconds:half ~op:plain () in
    record_gc r ~ops:w.ops g0;
    record_stats r ~ops:w.ops (s0, Connector.stats conn);
    set r "latency.samples" (float_of_int (Samples.length w.lat));
    let spans = Span.create spans_cap in
    let tw =
      closed_loop ~seconds:half ~stop:(fun () -> Span.count spans > spans_cap - 1000)
        ~op:(op (Some spans)) ()
    in
    record_traced r spans ~untraced:w ~traced:tw;
    set r "engine.send_us.p50" (span_p50_us spans "engine.send");
    set r "engine.recv_us.p50" (span_p50_us spans "engine.recv");
    set r "coloring.recv_us.p50" (span_p50_us spans "coloring.recv");
    write_spans opts spec.workload st.st "setup";
    write_spans opts spec.workload spans "ops"

(* --- cg_a: NPB CG class A over Comm.reo ---------------------------------- *)

let cg_nslaves = 2
let cg_class = Preo_npb.Workloads.A

(* Wrap the collectives so each call a rank makes is timed (and, traced,
   recorded as a span under the running kernel's span). *)
let timed_comm (c : Comm.t) ~(lat : Samples.t array) ~sp ~kernel =
  let ids =
    match sp with
    | Some t -> (Span.intern t "comm.allreduce", Span.intern t "comm.barrier")
    | None -> (0, 0)
  in
  let around ~rank name f =
    let i = enter sp ~name ~parent:!kernel ~op:rank in
    let t0 = Mono.now_ns () in
    let v = f () in
    let t1 = Mono.now_ns () in
    leave sp i;
    (t1 - t0, v)
  in
  {
    c with
    Comm.allreduce =
      (fun ~rank x ->
        let dt, v = around ~rank (fst ids) (fun () -> c.allreduce ~rank x) in
        Samples.add lat.(rank) dt;
        v);
    barrier = (fun ~rank -> snd (around ~rank (snd ids) (fun () -> c.barrier ~rank)));
  }

let run_cg opts r =
  let entries = List.map Catalog.find [ "ordered_merger"; "broadcast_fifo"; "barrier" ] in
  let comm_reo () = Comm.reo ~config:Preo.Config.new_jit ~nslaves:cg_nslaves () in
  (* Set-up: compile the three connectors Comm.reo uses from their DSL
     source, then build the communication layer. *)
  let setup traced =
    List.iter
      (fun (e : Catalog.entry) -> ignore (compile traced ~source:e.source ~name:e.conn_name))
      entries;
    Atomic.incr progress;
    setup_span traced "runtime.instantiate" comm_reo
  in
  let traced = setup_trace opts in
  let comm, setup_s =
    repeat_setup ~reps:3000 ~traced ~setup ~teardown:(fun (c : Comm.t) -> c.finish ())
  in
  let expected = (Cg.run ~comm:(Comm.hand ~nslaves:cg_nslaves) ~cls:cg_class ~nslaves:cg_nslaves).zeta in
  let p = Preo_npb.Workloads.cg cg_class in
  let inner = p.cg_niter * p.cg_inner in
  let lat = Array.init cg_nslaves (fun _ -> Samples.bounded (lat_limit / cg_nslaves)) in
  let kernel_ns = Samples.create () in
  let kernel = ref Span.none in
  (* One op = one CG kernel on a fresh Comm.reo (Cg.run finishes it). *)
  let run_kernel sp comm k =
    let id = match sp with Some t -> Span.intern t "npb.kernel" | None -> 0 in
    kernel := enter sp ~name:id ~parent:Span.none ~op:k;
    let res = Cg.run ~comm:(timed_comm comm ~lat ~sp ~kernel) ~cls:cg_class ~nslaves:cg_nslaves in
    leave sp !kernel;
    Atomic.incr progress;
    Samples.add kernel_ns (int_of_float (res.seconds *. 1e9));
    if Int64.equal (Int64.bits_of_float res.zeta) (Int64.bits_of_float expected) then
      Oracle.pass r.oracle
    else
      Oracle.fail r.oracle
        (Printf.sprintf "cg_a kernel %d: zeta %h, Comm.hand gives %h" k res.zeta expected)
  in
  (* warm-up kernel on the set-up's instance *)
  let t0 = Mono.now_ns () in
  run_kernel None comm 0;
  set r "composer.warmup_ms" (float_of_int (Mono.now_ns () - t0) /. 1e6);
  let window ?(stop = fun () -> false) ~seconds sp =
    Array.iter Samples.clear lat;
    Samples.clear kernel_ns;
    let t_end = Mono.now_ns () + int_of_float (seconds *. 1e9) in
    let k = ref 1 in
    while Mono.now_ns () < t_end && not (stop ()) do
      run_kernel sp (comm_reo ()) !k;
      incr k
    done;
    let rate =
      float_of_int (inner * Samples.length kernel_ns) /. Mono.seconds_of_ns (Samples.sum kernel_ns)
    in
    (rate, Samples.concat (Array.to_list lat))
  in
  match traced with
  | None ->
    let rate, lat = window ~seconds:opts.seconds None in
    record_end_to_end r ~setup_s ~throughput:rate lat
  | Some st ->
    record_setup_layers r st;
    let half = opts.seconds /. 2.0 in
    let g0 = gc_counts () in
    let rate0, lat0 = window ~seconds:half None in
    record_gc r ~ops:(Samples.length kernel_ns * inner) g0;
    set r "latency.samples" (float_of_int (Samples.length lat0));
    let spans = Span.create spans_cap in
    let rate1, _ = window ~seconds:half ~stop:(fun () -> Span.count spans > spans_cap - 20_000) (Some spans) in
    set r "trace.ops" (float_of_int (Samples.length kernel_ns));
    set r "trace.overhead_ratio" (rate1 /. rate0);
    record_self r spans;
    set r "comm.share" (1.0 -. Hashtbl.find r.metrics "self.npb_share");
    let ar = Span.durations spans "comm.allreduce" in
    set r "comm.calls" (float_of_int (Samples.length ar + Samples.length (Span.durations spans "comm.barrier")));
    set r "comm.allreduce_us.p50" (pct_us ~q:0.5 ar);
    set r "comm.allreduce_us.p99" (pct_us ~q:0.99 ar);
    set r "comm.barrier_us.p50" (span_p50_us spans "comm.barrier");
    write_spans opts "cg_a" st.st "setup";
    write_spans opts "cg_a" spans "ops"

(* --- shard_echo: host plus two preoc worker processes -------------------- *)

(* Every lane leaves the host through a fifo, is transformed in a worker,
   and comes back through a fifo: the boundary ports (tl, hd) stay on the
   host, the Transform regions sit on the workers. *)
let echo_source =
  {|Echo(tl[];hd[]) =
  prod (i:1..#tl) Fifo1(tl[i];a[i])
  mult prod (i:1..#tl) Transform<incr>(a[i];b[i])
  mult prod (i:1..#tl) Fifo1(b[i];hd[i])|}

let echo_lanes = 2
let echo_workers = 2
let echo_domains = 2
let echo_rate = 2000.0
let echo_warm_s = 0.5

let run_shard opts r =
  let exe =
    match opts.preoc with
    | Some p when Sys.file_exists p -> p
    | Some p -> die "preoc worker binary not found at %s" p
    | None -> die "shard_echo needs --preoc PATH (the preoc worker binary)"
  in
  let lengths = [ ("tl", echo_lanes); ("hd", echo_lanes) ] in
  let name = "Echo" in
  (* Placement: boundary regions on the host, interior regions spread
     over the workers by region index. *)
  let place_of bregions =
    let boundary = List.concat_map (fun (_, a) -> Array.to_list a) bregions in
    fun rg -> if List.mem rg boundary then 0 else 1 + (rg mod echo_workers)
  in
  let check_exit (pid, st) =
    Oracle.check r.oracle
      ~what:(Printf.sprintf "worker %d did not exit 0" pid)
      (st = Unix.WEXITED 0)
  in
  let setup traced =
    let bregions =
      setup_span traced "runtime.instantiate" (fun () ->
          Shard.boundary_regions ~domains:echo_domains ~compile:true ~source:echo_source ~name
            ~lengths ())
    in
    let place = place_of bregions in
    Atomic.incr progress;
    (* Spawned workers connect back asynchronously: the fabric is ready
       once one value has come back on every lane. *)
    setup_span traced "shard.spawn" (fun () ->
        let h =
          Shard.host ~window:1024 ~domains:echo_domains ~compile:true ~exe
            ~nworkers:echo_workers ~place ~workloads:(fun _ -> []) ~source:echo_source ~name
            ~lengths ()
        in
        for i = 0 to echo_lanes - 1 do
          Port.send (Shard.outport_at h "tl" i) (Value.int i);
          let got = Port.recv (Shard.inport_at h "hd" i) in
          Oracle.value r.oracle ~what:"shard_echo set-up echo" ~expected:(Value.int (i + 1)) got
        done;
        h)
  in
  let traced = setup_trace opts in
  (match traced with
   | Some _ -> ignore (compile traced ~source:echo_source ~name)
   | None -> ());
  let h, setup_s =
    repeat_setup ~reps:5 ~traced ~setup ~teardown:(fun h ->
        List.iter check_exit (Shard.shutdown h))
  in
  let conn = Shard.connector h in
  let tl = Array.init echo_lanes (fun i -> Shard.outport_at h "tl" i) in
  let hd = Array.init echo_lanes (fun i -> Shard.inport_at h "hd" i) in
  let vals = seeded_ints ~seed:opts.seed 4096 in
  let mask = Array.length vals - 1 in
  let period_ns = 1e9 /. echo_rate in
  (* Open loop: value k is due at t0 + k/rate whatever the system does;
     latency runs from the due time to its delivery. *)
  let window ~seconds sp =
    let ids =
      match sp with
      | Some t -> (Span.intern t "engine.send", Span.intern t "engine.recv")
      | None -> (0, 0)
    in
    let total = int_of_float ((seconds +. echo_warm_s) *. echo_rate) in
    let warm = int_of_float (echo_warm_s *. echo_rate) in
    let t0 = Mono.now_ns () + 1_000_000 in
    let due k = t0 + int_of_float (float_of_int k *. period_ns) in
    let lag = Samples.bounded lat_limit in
    let lat = Samples.bounded lat_limit in
    let sender =
      Thread.create
        (fun () ->
          for k = 0 to total - 1 do
            let d = due k in
            let wait = d - Mono.now_ns () in
            if wait > 0 then Thread.delay (float_of_int wait *. 1e-9);
            Samples.add lag (Mono.now_ns () - d);
            send sp ~name:(fst ids) ~parent:Span.none ~op:k tl.(k mod echo_lanes) vals.(k land mask)
          done)
        ()
    in
    let first = ref 0 in
    for k = 0 to total - 1 do
      let got = recv sp ~name:(snd ids) ~parent:Span.none ~op:k hd.(k mod echo_lanes) in
      let t = Mono.now_ns () in
      if k = 0 then first := t - due 0;
      if k >= warm then Samples.add lat (t - due k);
      Atomic.incr progress;
      let expected = Value.int (Value.to_int vals.(k land mask) + 1) in
      Oracle.value r.oracle ~what:(Printf.sprintf "shard_echo value %d" k) ~expected got
    done;
    let t_last = Mono.now_ns () in
    Thread.join sender;
    let delivered = float_of_int (total - warm) /. Mono.seconds_of_ns (t_last - due warm) in
    (delivered, lat, lag, !first)
  in
  let reconnects0 = (Connector.stats conn).st_shard_reconnects in
  let finish () =
    Oracle.check r.oracle ~what:"a shard link reconnected during the run"
      ((Connector.stats conn).st_shard_reconnects = reconnects0);
    List.iter check_exit (Shard.shutdown h)
  in
  match traced with
  | None ->
    let rate, lat, _, _ = window ~seconds:opts.seconds None in
    finish ();
    record_end_to_end r ~setup_s ~throughput:rate lat
  | Some st ->
    record_setup_layers r st;
    let half = opts.seconds /. 2.0 in
    let s0 = Connector.stats conn and g0 = gc_counts () in
    let rate0, lat0, lag, first = window ~seconds:half None in
    let ops = Samples.seen lag in
    record_gc r ~ops g0;
    record_stats r ~ops (s0, Connector.stats conn);
    set r "composer.warmup_ms" (float_of_int first /. 1e6);
    set r "latency.samples" (float_of_int (Samples.length lat0));
    set r "loadgen.lag_ms.p99" (pct_ms ~q:0.99 lag);
    set r "loadgen.offered_per_s" (float_of_int (Samples.seen lag) /. (half +. echo_warm_s));
    let spans = Span.create spans_cap in
    let rate1, _, _, _ = window ~seconds:half (Some spans) in
    finish ();
    set r "trace.ops" (float_of_int (Span.count spans / 2));
    set r "trace.overhead_ratio" (rate1 /. rate0);
    record_self r spans;
    set r "engine.send_us.p50" (span_p50_us spans "engine.send");
    set r "engine.recv_us.p50" (span_p50_us spans "engine.recv");
    (* Wire codec cost per frame, on frames shaped like the run's. *)
    let per_frame = max 1 (int_of_float (Float.round (Hashtbl.find r.metrics "shard.items_per_frame"))) in
    let frame =
      Wire.Sh_batch { ch = 0; base = 1_000_000; items = List.init per_frame (fun i -> vals.(i land mask)) }
    in
    let buf = Buffer.create 256 in
    let reps = 2000 in
    let time_per_frame f =
      let trials =
        Array.init 15 (fun _ ->
            let t0 = Mono.now_ns () in
            for _ = 1 to reps do f () done;
            float_of_int (Mono.now_ns () - t0) /. float_of_int reps)
      in
      Stat.median_float trials /. 1000.0
    in
    set r "wire.encode_us" (time_per_frame (fun () -> Buffer.clear buf; Wire.encode_shard buf frame));
    Buffer.clear buf;
    Wire.encode_shard buf frame;
    let bytes = Buffer.to_bytes buf in
    Oracle.check r.oracle ~what:"wire round trip"
      (Wire.decode_shard bytes ~pos:(ref 0) = frame);
    set r "wire.decode_us" (time_per_frame (fun () -> ignore (Wire.decode_shard bytes ~pos:(ref 0))));
    write_spans opts "shard_echo" st.st "setup";
    write_spans opts "shard_echo" spans "ops"

(* --- Entry point --------------------------------------------------------- *)

let workloads =
  [
    (merge_spec.workload, fun opts r -> run_loop opts merge_spec r);
    (bcast_spec.workload, fun opts r -> run_loop opts bcast_spec r);
    ("cg_a", run_cg);
    ("shard_echo", run_shard);
  ]

let () =
  let opts = parse_args () in
  let run =
    match List.assoc_opt opts.workload workloads with
    | Some f -> f
    | None ->
      die "unknown workload %S (one of: %s)" opts.workload
        (String.concat ", " (List.map fst workloads))
  in
  (* Pin the runtime's process-wide defaults, whatever PREO_DOMAINS,
     PREO_BACKEND, PREO_COMPILE or PREO_TRACE say. *)
  Preo.set_domains (Some 1);
  Preo.set_backend (Some Preo.Sched.Automata);
  Preo.set_compile (Some true);
  Preo.set_tracing false;
  Preo.set_stall_threshold None;
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%b cpus_allowed=%s loadavg=%s\n%!"
    opts.workload opts.seed opts.seconds opts.trace
    (Option.value ~default:"?" (proc_field "/proc/self/status" "Cpus_allowed_list:"))
    (try
       let ic = open_in "/proc/loadavg" in
       let l = input_line ic in
       close_in ic;
       l
     with _ -> "?");
  let r = { oracle = Oracle.create (); metrics = Hashtbl.create 64 } in
  current := Some r;
  start_watchdog ~stall_s:30.0 ~total_s:(opts.seconds +. 120.0) ~trace:opts.trace;
  (match run opts r with
   | () -> ()
   | exception e -> Oracle.fail r.oracle ("exception: " ^ Printexc.to_string e));
  let o = r.oracle in
  Printf.printf "# oracle: attempted=%d failed=%d error_rate=%g%s\n" o.attempted o.failed
    (Oracle.error_rate o)
    (match o.first_error with Some e -> " first_error=" ^ e | None -> "");
  print_result ~trace:opts.trace r;
  exit (if o.failed = 0 && o.attempted > 0 then 0 else 1)
