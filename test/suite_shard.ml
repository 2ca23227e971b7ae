(* Sharded multi-process fabric: shard frame codecs (roundtrip + fuzz),
   journal recovery, and end-to-end multi-process runs — clean streaming,
   worker crash with exactly-once replay, and retry-budget exhaustion
   escalating to structured poison. *)

module Wire = Preo_dist.Wire
module Shard = Preo_dist.Shard
module Connector = Preo_runtime.Connector
module Engine = Preo_runtime.Engine
module Shard_stats = Preo_runtime.Shard_stats

open Preo_support

let bcast_src =
  {|NBcastFifo(tl;hd[]) =
  Repl(tl;x[1..#hd])
  mult prod (i:1..#hd) Fifo1(x[i];hd[i])|}

(* --- codecs ------------------------------------------------------------------ *)

let roundtrip_shard m =
  let b = Buffer.create 64 in
  Wire.encode_shard b m;
  let m' = Wire.decode_shard (Buffer.to_bytes b) ~pos:(ref 0) in
  Alcotest.(check bool) "shard frame roundtrips" true (m = m')

let shard_codec () =
  List.iter roundtrip_shard
    [
      Wire.Sh_hello { token = "w1" };
      Wire.Sh_hello { token = "" };
      Wire.Sh_cfg (Value.list [ Value.str "x"; Value.int 3 ]);
      Wire.Sh_resume [];
      Wire.Sh_resume [ (0, 12); (3, 0); (7, max_int) ];
      Wire.Sh_batch { ch = 2; base = 100; items = [] };
      Wire.Sh_batch
        {
          ch = 0;
          base = 0;
          items = [ Value.int 1; Value.str "two"; Value.pair Value.unit (Value.float 3.0) ];
        };
      Wire.Sh_ack { ch = 5; upto = 99 };
      Wire.Sh_poison "worker w2 unreachable";
      Wire.Sh_close;
    ]

(* Decoding attacker-controlled bytes must either produce a message or fail
   with a "wire:"-prefixed [Failure] — never crash another way and never
   allocate absurdly. *)
let malformed_shard_frames () =
  let try_decode s =
    match Wire.decode_shard (Bytes.of_string s) ~pos:(ref 0) with
    | _ -> ()
    | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S is wire-prefixed" msg)
        true
        (String.length msg >= 5 && String.sub msg 0 5 = "wire:")
  in
  (* truncations of a valid batch frame *)
  let b = Buffer.create 64 in
  Wire.encode_shard b
    (Wire.Sh_batch { ch = 1; base = 7; items = [ Value.int 42; Value.str "x" ] });
  let full = Buffer.contents b in
  for len = 0 to String.length full - 1 do
    try_decode (String.sub full 0 len)
  done;
  (* bogus tags and bodies *)
  try_decode "";
  try_decode "Q";
  try_decode "B\xff\xff\xff\xff\xff\xff\xff\xff";
  (* resume claiming far more entries than the bytes can hold *)
  try_decode ("M" ^ "\xff\xff\xff\x7f\x00\x00\x00\x00");
  (* batch claiming a huge item count *)
  try_decode
    ("B" ^ String.concat ""
       [ "\x01\x00\x00\x00\x00\x00\x00\x00";
         "\x00\x00\x00\x00\x00\x00\x00\x00";
         "\xff\xff\xff\x7f\x00\x00\x00\x00" ])

let qcheck_shard_fuzz =
  let open QCheck in
  [
    Test.make ~name:"random bytes never crash decode_shard" ~count:2000
      (string_of_size (Gen.int_range 0 64))
      (fun s ->
        match Wire.decode_shard (Bytes.of_string s) ~pos:(ref 0) with
        | _ -> true
        | exception Failure msg ->
          String.length msg >= 5 && String.sub msg 0 5 = "wire:");
  ]

(* --- journals ---------------------------------------------------------------- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "preo_shard_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let journal_recovery () =
  let dir = temp_dir () in
  let path = Shard.journal_path ~dir ~ch:0 in
  let oc = open_out_bin path in
  List.iter
    (fun v ->
      output_string oc (Shard.journal_line v);
      output_char oc '\n')
    [ Value.int 1; Value.str "two"; Value.pair (Value.int 3) Value.unit ];
  (* torn tail: a partial line that never got its newline *)
  output_string oc "deadbe";
  close_out oc;
  Alcotest.(check int) "recovers complete lines" 3 (Shard.recover_journal path);
  let vs = Shard.read_journal path in
  Alcotest.(check int) "reads complete lines" 3 (List.length vs);
  Alcotest.(check bool) "first value" true (Value.equal (List.hd vs) (Value.int 1));
  (* after truncation the journal appends cleanly *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (Shard.journal_line (Value.int 9));
  output_char oc '\n';
  close_out oc;
  Alcotest.(check int) "appends after recovery" 4 (List.length (Shard.read_journal path))

(* --- end-to-end helpers ------------------------------------------------------ *)

let wait_for ~timeout ~what f =
  let limit = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > limit then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* Placement for NBcastFifo: the Repl region stays on the host, the relay
   regions (one per hd branch) round-robin over the workers. *)
let round_robin nworkers r = if r = 0 then 0 else (((r - 1) mod nworkers) + 1)

(* hd indices owned by worker [w] under that placement *)
let hd_indices_of ~branches ~nworkers ~domains w =
  let regions = Shard.boundary_regions ~domains ~source:bcast_src ~name:"NBcastFifo"
      ~lengths:[ ("hd", branches) ] ()
  in
  let hd = List.assoc "hd" regions in
  List.filter
    (fun i -> round_robin nworkers hd.(i) = w)
    (List.init branches Fun.id)

let consume_workloads ~branches ~nworkers ~domains ~clients w =
  [ Shard.Consume
      { w_group = "hd"; w_indices = hd_indices_of ~branches ~nworkers ~domains w;
        w_clients = clients } ]

let journal_count dir ch =
  let path = Shard.journal_path ~dir ~ch in
  List.length (Shard.read_journal path)

let expected_ints n = List.init n Value.int

(* Sends [0 .. n-1] on tl[0], pausing before value n/2 until [resume] is
   set. A kill test sets it right after the SIGKILL, so the second half of
   the stream can only arrive through the respawned worker: the kill lands
   mid-stream however fast the wire is. *)
let gated_producer h ~n ~resume =
  Thread.create
    (fun () ->
      let p = Shard.outport_at h "tl" 0 in
      try
        for k = 0 to n - 1 do
          if k = n / 2 then
            while not (Atomic.get resume) do
              Thread.delay 0.005
            done;
          Preo_runtime.Port.send p (Value.int k)
        done
      with Engine.Poisoned _ -> ())
    ()

let check_journal_exact dir ch n =
  let vs = Shard.read_journal (Shard.journal_path ~dir ~ch) in
  Alcotest.(check int) (Printf.sprintf "journal ch%d length" ch) n (List.length vs);
  List.iteri
    (fun i v ->
      if not (Value.equal v (Value.int i)) then
        Alcotest.failf "journal ch%d[%d] = %s, wanted %d" ch i (Value.to_string v) i)
    vs

(* --- end-to-end: clean streaming over 2 workers ----------------------------- *)

let two_workers_stream () =
  let branches = 4 and nworkers = 2 and domains = 4 and n = 200 in
  let dir = temp_dir () in
  let b0 = Atomic.get Shard_stats.batches and i0 = Atomic.get Shard_stats.items in
  let h =
    Shard.host ~domains ~window:64 ~journal_dir:dir ~nworkers
      ~place:(round_robin nworkers)
      ~workloads:(consume_workloads ~branches ~nworkers ~domains ~clients:10)
      ~source:bcast_src ~name:"NBcastFifo"
      ~lengths:[ ("hd", branches) ]
      ()
  in
  let producer =
    Thread.create
      (fun () ->
        let p = Shard.outport_at h "tl" 0 in
        try
          for k = 0 to n - 1 do
            Preo_runtime.Port.send p (Value.int k)
          done
        with Engine.Poisoned _ -> ())
      ()
  in
  (* every branch's journal fills to exactly n *)
  wait_for ~timeout:30.0 ~what:"all journals full" (fun () ->
      List.for_all (fun ch -> journal_count dir ch >= n) (List.init branches Fun.id));
  Thread.join producer;
  let statuses = Shard.shutdown h in
  List.iter (fun ch -> check_journal_exact dir ch n) (List.init branches Fun.id);
  List.iter
    (fun (pid, st) ->
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "worker %d exited %d" pid c
      | _ -> Alcotest.failf "worker %d killed" pid)
    statuses;
  (* batching actually coalesced: strictly more items than frames *)
  let batches = Atomic.get Shard_stats.batches - b0 in
  let items = Atomic.get Shard_stats.items - i0 in
  Alcotest.(check bool) "sent some batches" true (batches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "batching coalesces (%d items in %d frames)" items batches)
    true
    (items >= batches)

(* Reference for the exactly-once claim: the same connector run entirely in
   process delivers the same multiset to every branch — the shard journals
   must match this. *)
let single_process_reference () =
  let branches = 2 and n = 120 in
  let c = Preo.compile ~source:bcast_src ~name:"NBcastFifo" in
  let inst = Preo.instantiate c ~lengths:[ ("hd", branches) ] in
  let got = Array.make branches [] in
  let consumers =
    List.init branches (fun i ->
        Thread.create
          (fun () ->
            let p = (Preo.inports inst "hd").(i) in
            try
              while true do
                got.(i) <- Preo.Port.recv p :: got.(i)
              done
            with Engine.Poisoned _ -> ())
          ())
  in
  let p = (Preo.outports inst "tl").(0) in
  for k = 0 to n - 1 do
    Preo.Port.send p (Value.int k)
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Array.exists (fun l -> List.length l < n) got
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Preo.shutdown inst;
  List.iter (fun t -> try Thread.join t with _ -> ()) consumers;
  Array.map List.rev got

(* --- end-to-end: worker killed mid-stream, exactly-once replay --------------- *)

let kill_and_replay () =
  let branches = 2 and nworkers = 1 and domains = 4 and n = 120 in
  let reference = single_process_reference () in
  Array.iteri
    (fun i l ->
      Alcotest.(check int) (Printf.sprintf "reference hd[%d] complete" i) n
        (List.length l))
    reference;
  let dir = temp_dir () in
  let r0 = Atomic.get Shard_stats.reconnects in
  let h =
    Shard.host ~domains ~window:8 ~journal_dir:dir ~retries:10 ~backoff:0.05
      ~nworkers
      ~place:(round_robin nworkers)
      ~workloads:(consume_workloads ~branches ~nworkers ~domains ~clients:5)
      ~source:bcast_src ~name:"NBcastFifo"
      ~lengths:[ ("hd", branches) ]
      ()
  in
  let resume = Atomic.make false in
  let producer = gated_producer h ~n ~resume in
  (* let the stream get going, then kill the worker mid-flight *)
  wait_for ~timeout:20.0 ~what:"stream underway" (fun () ->
      List.exists (fun ch -> journal_count dir ch >= 20) (List.init branches Fun.id));
  Shard.kill_worker h 1;
  Atomic.set resume true;
  (* the manager respawns it; the replacement resumes from its journals and
     the stream completes with no loss and no duplication *)
  wait_for ~timeout:30.0 ~what:"journals complete after respawn" (fun () ->
      List.for_all (fun ch -> journal_count dir ch >= n) (List.init branches Fun.id));
  Thread.join producer;
  ignore (Shard.shutdown h);
  (* journals match the single-process run exactly: same values, same
     order, nothing lost, nothing doubled *)
  List.iter
    (fun ch ->
      let vs = Shard.read_journal (Shard.journal_path ~dir ~ch) in
      Alcotest.(check int) (Printf.sprintf "journal ch%d complete" ch) n
        (List.length vs);
      List.iteri
        (fun i v ->
          let want = List.nth reference.(0) i in
          if not (Value.equal v want) then
            Alcotest.failf "journal ch%d[%d] = %s, reference has %s" ch i
              (Value.to_string v) (Value.to_string want))
        vs)
    (List.init branches Fun.id);
  Alcotest.(check bool) "a reconnect was recorded" true
    (Atomic.get Shard_stats.reconnects > r0)

(* --- end-to-end: kill without journals, resume from the shipped floor -------- *)

(* The default configuration has no journal_dir: a respawned worker's only
   resume position for a consuming channel is the ack floor the host ships
   in the cfg frame. Before that floor existed, the replacement expected
   seq 0 while the host replayed from its ack watermark — a sequence-gap
   crash on every respawn, i.e. an endless respawn loop with the producer
   parked forever. This asserts the stream completes through a mid-stream
   kill with journals disabled. *)
let kill_no_journal_resumes () =
  let branches = 2 and nworkers = 1 and domains = 4 and n = 150 in
  let a0 = Atomic.get Shard_stats.acks in
  let r0 = Atomic.get Shard_stats.reconnects in
  let h =
    Shard.host ~domains ~window:8 ~retries:10 ~backoff:0.05 ~nworkers
      ~place:(round_robin nworkers)
      ~workloads:(consume_workloads ~branches ~nworkers ~domains ~clients:2)
      ~source:bcast_src ~name:"NBcastFifo"
      ~lengths:[ ("hd", branches) ]
      ()
  in
  let resume = Atomic.make false in
  let producer = gated_producer h ~n ~resume in
  wait_for ~timeout:20.0 ~what:"stream underway" (fun () ->
      Atomic.get Shard_stats.acks > a0 + 20);
  Shard.kill_worker h 1;
  Atomic.set resume true;
  (* every value must eventually be consumed and acknowledged: the acked
     counter only advances on worker pops, so reaching branches * n proves
     the replacement resumed at the host's replay position *)
  wait_for ~timeout:30.0 ~what:"stream completes after journal-less respawn"
    (fun () -> Atomic.get Shard_stats.acks >= a0 + (branches * n));
  Thread.join producer;
  ignore (Shard.shutdown h);
  Alcotest.(check bool) "a reconnect was recorded" true
    (Atomic.get Shard_stats.reconnects > r0)

(* --- end-to-end: closed-loop round trips are not stalled by the transport ---- *)

(* Every value leaves the host through a fifo, is incremented on the
   worker, and comes back through a fifo. *)
let echo_src =
  {|Echo(tl[];hd[]) =
  prod (i:1..#tl) Fifo1(tl[i];a[i])
  mult prod (i:1..#tl) Transform<incr>(a[i];b[i])
  mult prod (i:1..#tl) Fifo1(b[i];hd[i])|}

(* One value in flight at a time, so nothing can be coalesced and every
   hop is a lone small frame. Each hop that waits on the peer's delayed ACK
   (~40 ms on Linux loopback when Nagle is on) makes 200 round trips take
   many seconds; the 2 s bound allows 10 ms per round trip. *)
let closed_loop_echo () =
  let rounds = 200 and domains = 2 and budget = 2.0 in
  let lengths = [ ("tl", 1); ("hd", 1) ] in
  let boundary =
    Shard.boundary_regions ~domains ~source:echo_src ~name:"Echo" ~lengths ()
    |> List.concat_map (fun (_, a) -> Array.to_list a)
  in
  let h =
    Shard.host ~domains ~nworkers:1
      ~place:(fun r -> if List.mem r boundary then 0 else 1)
      ~workloads:(fun _ -> [])
      ~source:echo_src ~name:"Echo" ~lengths ()
  in
  let tl = Shard.outport_at h "tl" 0 and hd = Shard.inport_at h "hd" 0 in
  (* the first round trip waits for the worker to spawn and connect *)
  Preo_runtime.Port.send tl (Value.int 0);
  ignore (Preo_runtime.Port.recv hd);
  let t0 = Unix.gettimeofday () in
  let rec go k =
    if k < rounds then begin
      Preo_runtime.Port.send tl (Value.int k);
      let got = Preo_runtime.Port.recv hd in
      if not (Value.equal got (Value.int (k + 1))) then
        Alcotest.failf "round trip %d returned %s" k (Value.to_string got);
      (* stop early on a stalled wire instead of running out the clock *)
      if Unix.gettimeofday () -. t0 < budget then go (k + 1) else k + 1
    end
    else k
  in
  let done_ = go 0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  let statuses = Shard.shutdown h in
  Alcotest.(check bool)
    (Printf.sprintf "%d round trips in %.3fs (bound %.1fs)" done_ elapsed budget)
    true
    (done_ = rounds && elapsed < budget);
  List.iter
    (fun (pid, st) ->
      if st <> Unix.WEXITED 0 then Alcotest.failf "worker %d did not exit 0" pid)
    statuses

(* --- end-to-end: retry budget exhausted => structured poison, no hang -------- *)

let budget_exhausted_poisons () =
  let branches = 2 and nworkers = 1 and domains = 4 in
  let a0 = Atomic.get Shard_stats.acks in
  let h =
    Shard.host ~domains ~window:4 ~retries:0 ~backoff:0.05 ~nworkers
      ~place:(round_robin nworkers)
      ~workloads:(consume_workloads ~branches ~nworkers ~domains ~clients:1)
      ~source:bcast_src ~name:"NBcastFifo"
      ~lengths:[ ("hd", branches) ]
      ()
  in
  let poison_msg = ref None in
  let mu = Mutex.create () in
  let producer =
    Thread.create
      (fun () ->
        let p = Shard.outport_at h "tl" 0 in
        try
          let k = ref 0 in
          while true do
            Preo_runtime.Port.send p (Value.int !k);
            incr k
          done
        with Engine.Poisoned msg ->
          Mutex.lock mu;
          poison_msg := Some msg;
          Mutex.unlock mu)
      ()
  in
  (* wait for fresh acks — a full host -> worker -> ack roundtrip proves the
     session is established (the counters are process-wide and cumulative, so
     compare against the snapshot) — then kill the only worker; with a zero
     retry budget the manager escalates instead of respawning *)
  wait_for ~timeout:20.0 ~what:"stream underway" (fun () ->
      Atomic.get Shard_stats.acks > a0);
  Shard.kill_worker h 1;
  (* the parked producer must be released with the structured diagnosis —
     this is the no-hang guarantee *)
  wait_for ~timeout:20.0 ~what:"producer released by poison" (fun () ->
      Mutex.lock mu;
      let r = !poison_msg <> None in
      Mutex.unlock mu;
      r);
  Thread.join producer;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match !poison_msg with
   | Some msg ->
     Alcotest.(check bool)
       (Printf.sprintf "poison names the shard failure: %s" msg)
       true
       (contains msg "unreachable")
   | None -> Alcotest.fail "no poison recorded");
  ignore (Shard.shutdown h)

(* st_shard_* surfaces through Connector.stats *)
let stats_surface () =
  let before = Atomic.get Shard_stats.batches in
  Shard_stats.add_batch ~items:3;
  let c = Preo.compile ~source:bcast_src ~name:"NBcastFifo" in
  let inst = Preo.instantiate c ~lengths:[ ("hd", 2) ] in
  let st = Connector.stats (Preo.connector inst) in
  Preo.shutdown inst;
  Alcotest.(check bool) "stats reflect process-wide shard counters" true
    (st.Connector.st_shard_batches >= before + 1 && st.Connector.st_shard_items >= 3)

let tests =
  [
    ("shard frame roundtrips", `Quick, shard_codec);
    ("malformed shard frames rejected", `Quick, malformed_shard_frames);
    ("journal recovery truncates torn tail", `Quick, journal_recovery);
    ("shard stats surface in Connector.stats", `Quick, stats_surface);
    ("two workers stream with batching", `Slow, two_workers_stream);
    ("closed-loop echo: 200 round trips under 2 s", `Slow, closed_loop_echo);
    ("worker killed mid-stream: exactly-once replay", `Slow, kill_and_replay);
    ("worker killed without journals: resumes from shipped floor", `Slow,
     kill_no_journal_resumes);
    ("retry budget exhausted: structured poison, no hang", `Slow, budget_exhausted_poisons);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_shard_fuzz
