(* Lock-free data plane: the MPSC submission queue, the SPSC ring, batched
   submission, and their integration with the engine's poison/wakeup
   machinery. The submission storms are the adversarial
   cases: many producers publishing concurrently with CAS while one drainer
   installs and completes under the engine lock — a lost submission shows
   up as a hang (the blocking ops never time out), an ordering bug as a
   per-producer sequence inversion. *)

open Preo
module Ring = Preo_support.Ring
module Mpsc = Preo_support.Mpsc

let stress_configs =
  [ ("jit", Config.new_jit); ("partitioned", Config.new_partitioned) ]

let protect_locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let fifo1_conn config =
  let a = Preo_automata.Vertex.fresh "a"
  and b = Preo_automata.Vertex.fresh "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] in
  (Connector.create ~config ~sources:[| a |] ~sinks:[| b |] [ auto ], a, b)

let sync_conn config =
  let a = Preo_automata.Vertex.fresh "a"
  and b = Preo_automata.Vertex.fresh "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  (Connector.create ~config ~sources:[| a |] ~sinks:[| b |] [ auto ], a, b)

(* --- Ring unit edges -------------------------------------------------------- *)

let ring_edges () =
  (* Bad capacities and oversized prefills are rejected. *)
  (try
     ignore (Ring.create 0);
     Alcotest.fail "cap 0 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Ring.create ~init:[ 1; 2 ] 1);
     Alcotest.fail "oversized init accepted"
   with Invalid_argument _ -> ());
  (* Prefill pops oldest first. *)
  let r = Ring.create ~init:[ 1; 2 ] 3 in
  Alcotest.(check int) "prefill length" 2 (Ring.length r);
  Alcotest.(check int) "prefill pop 1" 1 (Ring.pop r);
  Alcotest.(check int) "prefill pop 2" 2 (Ring.pop r);
  Alcotest.(check bool) "empty after prefill drain" true (Ring.is_empty r);
  Alcotest.(check (option int)) "pop_opt on empty" None (Ring.pop_opt r);
  (* Wraparound: cycle a capacity-3 ring far past one lap; FIFO must hold
     across the index wrap. *)
  let out = ref [] in
  for i = 0 to 9 do
    Ring.push r i;
    if i >= 2 then out := Ring.pop r :: !out
  done;
  while not (Ring.is_empty r) do
    out := Ring.pop r :: !out
  done;
  Alcotest.(check (list int)) "wraparound FIFO" (List.init 10 Fun.id)
    (List.rev !out);
  (* Full: pushes beyond capacity are refused, not overwritten. *)
  Alcotest.(check bool) "push to full ring 1" true (Ring.try_push r 100);
  Alcotest.(check bool) "push to full ring 2" true (Ring.try_push r 101);
  Alcotest.(check bool) "push to full ring 3" true (Ring.try_push r 102);
  Alcotest.(check bool) "full refuses" false (Ring.try_push r 103);
  Alcotest.(check bool) "is_full" true (Ring.is_full r);
  (try
     Ring.push r 104;
     Alcotest.fail "push on full accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "peek is oldest" 100 (Ring.peek r);
  (* Batch helpers: pop_upto bounded by occupancy, push_list returns the
     leftovers that did not fit. *)
  Alcotest.(check (list int)) "pop_upto 2" [ 100; 101 ] (Ring.pop_upto r 2);
  Alcotest.(check (list int)) "pop_upto past empty" [ 102 ] (Ring.pop_upto r 5);
  Alcotest.(check (list int)) "push_list leftovers" [ 4; 5 ]
    (Ring.push_list r [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "push_list contents" [ 1; 2; 3 ]
    (Ring.pop_upto r 3)

(* --- MPSC unit: concurrent pushes keep per-producer order ------------------- *)

let mpsc_order () =
  let q : int Mpsc.t = Mpsc.create () in
  let nprod = 4 and per = 500 in
  let producers =
    List.init nprod (fun p ->
        Thread.create
          (fun () ->
            for k = 0 to per - 1 do
              Mpsc.push q ((p * 10000) + k);
              if k land 63 = 0 then Thread.yield ()
            done)
          ())
  in
  (* Drain concurrently with the pushes, like the engine's drive loop. *)
  let got = ref [] and total = ref 0 in
  while !total < nprod * per do
    match Mpsc.pop_all q with
    | [] -> Thread.yield ()
    | xs ->
      got := List.rev_append xs !got;
      total := !total + List.length xs
  done;
  List.iter Thread.join producers;
  Alcotest.(check bool) "drained empty" true (Mpsc.is_empty q);
  let arrived = List.rev !got in
  Alcotest.(check int) "nothing lost" (nprod * per) (List.length arrived);
  for p = 0 to nprod - 1 do
    let seqs =
      List.filter_map
        (fun x -> if x / 10000 = p then Some (x mod 10000) else None)
        arrived
    in
    Alcotest.(check (list int))
      (Printf.sprintf "producer %d FIFO" p)
      (List.init per Fun.id) seqs
  done

(* --- Submission storm: N producers × 1 drainer through a connector ---------- *)

(* Four producers hammer the same fifo1 tail with tagged values while one
   consumer drains the head. Per-producer submission order must survive
   the lock-free publication: each producer's sequence numbers arrive
   strictly increasing. Also pins the new counters: every blocking op goes
   through the MPSC queue, and nothing in a healthy run broadcasts. *)
let submission_storm () =
  List.iter
    (fun (cname, config) ->
      let conn, a, b = fifo1_conn config in
      Fun.protect ~finally:(fun () -> Connector.close conn) (fun () ->
          let nprod = 4 and per = 100 in
          let out = Connector.outport conn a
          and inp = Connector.inport conn b in
          let arrived = ref [] in
          Task.run_all
            ((fun () ->
               for _ = 1 to nprod * per do
                 arrived := Value.to_int (Port.recv inp) :: !arrived
               done)
            :: List.init nprod (fun p -> fun () ->
                   for k = 0 to per - 1 do
                     Port.send out (Value.int ((p * 1000) + k))
                   done));
          let arrived = List.rev !arrived in
          Alcotest.(check int)
            (cname ^ " nothing lost")
            (nprod * per) (List.length arrived);
          for p = 0 to nprod - 1 do
            let seqs =
              List.filter_map
                (fun x -> if x / 1000 = p then Some (x mod 1000) else None)
                arrived
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s producer %d order kept" cname p)
              (List.init per Fun.id) seqs
          done;
          let st = Connector.stats conn in
          Alcotest.(check bool) (cname ^ " ops went through MPSC") true
            (st.Connector.st_mpsc_ops >= nprod * per);
          Alcotest.(check bool) (cname ^ " drains batched") true
            (st.Connector.st_mpsc_batches >= 1);
          Alcotest.(check int) (cname ^ " no broadcast during run") 0
            st.Connector.st_wakes_broadcast))
    stress_configs

(* --- Batched firing --------------------------------------------------------- *)

(* Both sides of a Sync channel submit through the batch API: a whole
   burst lands in the vertex queues before the engine fires, and each
   firing must still pop the oldest op on either side — FIFO order across
   the batch. *)
let batched_firing_order () =
  List.iter
    (fun (cname, config) ->
      let conn, a, b = sync_conn config in
      Fun.protect ~finally:(fun () -> Connector.close conn) (fun () ->
          let k = 16 and rounds = 8 in
          let out = Connector.outport conn a
          and inp = Connector.inport conn b in
          let got = ref [] in
          Task.run_all
            [
              (fun () ->
                for r = 0 to rounds - 1 do
                  Port.send_batch out
                    (List.init k (fun i -> Value.int ((r * k) + i)))
                done);
              (fun () ->
                for _ = 1 to rounds do
                  got := List.rev_map Value.to_int (Port.recv_batch inp k) @ !got
                done);
            ];
          Alcotest.(check (list int))
            (cname ^ " batch FIFO order")
            (List.init (rounds * k) Fun.id)
            (List.rev !got)))
    stress_configs

(* Mixing batched and singleton submitters on one fifo must preserve each
   submitter's own order (the MPSC queue interleaves producers
   arbitrarily, never within a producer). *)
let batch_vs_singles () =
  let conn, a, b = fifo1_conn Config.new_jit in
  Fun.protect ~finally:(fun () -> Connector.close conn) (fun () ->
      let per = 64 in
      let out = Connector.outport conn a and inp = Connector.inport conn b in
      let arrived = ref [] in
      let lock = Mutex.create () in
      Task.run_all
        [
          (fun () ->
            for r = 0 to (per / 8) - 1 do
              Port.send_batch out
                (List.init 8 (fun i -> Value.int (1000 + (r * 8) + i)))
            done);
          (fun () ->
            for k = 0 to per - 1 do
              Port.send out (Value.int (2000 + k))
            done);
          (fun () ->
            for _ = 1 to 2 * per do
              let v = Value.to_int (Port.recv inp) in
              protect_locked lock (fun () -> arrived := v :: !arrived)
            done);
        ];
      let arrived = List.rev !arrived in
      let stream tag =
        List.filter_map
          (fun x -> if x / 1000 = tag then Some (x mod 1000) else None)
          arrived
      in
      Alcotest.(check (list int)) "batched stream in order"
        (List.init per Fun.id) (stream 1);
      Alcotest.(check (list int)) "singleton stream in order"
        (List.init per Fun.id) (stream 2))

(* --- Poison mid-batch ------------------------------------------------------- *)

(* Tasks parked behind batch submissions (and ops still sitting in the
   MPSC queue) must all be released by close, and post-poison batch
   submission must raise instead of hanging. *)
let poison_mid_batch () =
  List.iter
    (fun (cname, config) ->
      let conn, a, b = fifo1_conn config in
      let out = Connector.outport conn a and inp = Connector.inport conn b in
      (* fifo1 completes exactly one of the 64 sends; the task parks behind
         the rest. The receiver asks for more than will ever arrive. *)
      let sender =
        Task.spawn (fun () ->
            Port.send_batch out (List.init 64 (fun i -> Value.int i)))
      in
      let receiver = Task.spawn (fun () -> ignore (Port.recv_batch inp 32)) in
      Thread.delay 0.05;
      Connector.close conn;
      (* Every task must come back; Task.join swallows Poisoned. *)
      Task.join sender;
      Task.join receiver;
      (try
         Port.send_batch out [ Value.unit ];
         Alcotest.fail (cname ^ " post-poison send_batch accepted")
       with Engine.Poisoned _ -> ());
      (try
         ignore (Port.recv_batch inp 2);
         Alcotest.fail (cname ^ " post-poison recv_batch accepted")
       with Engine.Poisoned _ -> ());
      let st = Connector.stats conn in
      Alcotest.(check bool) (cname ^ " close broadcasts") true
        (st.Connector.st_wakes_broadcast >= 1))
    stress_configs

(* --- Spurious wakes stay zero under the lock-free plane --------------------- *)

(* The deadline-free half of the wakeup suite's invariant, re-checked with
   the MPSC submission path and batch API in play: a clean producer/consumer
   run has no spurious wakes and no broadcasts. *)
let no_spurious_under_storm () =
  let conn, a, b = fifo1_conn Config.new_jit in
  Fun.protect ~finally:(fun () -> Connector.close conn) (fun () ->
      let out = Connector.outport conn a and inp = Connector.inport conn b in
      Task.run_all
        [
          (fun () ->
            for r = 0 to 31 do
              Port.send_batch out (List.init 4 (fun i -> Value.int ((r * 4) + i)))
            done);
          (fun () -> for _ = 1 to 32 do ignore (Port.recv_batch inp 4) done);
        ];
      let st = Connector.stats conn in
      Alcotest.(check int) "no broadcasts" 0 st.Connector.st_wakes_broadcast;
      Alcotest.(check int) "no spurious wakes" 0
        st.Connector.st_wakes_spurious)

let tests =
  [
    ("ring edges", `Quick, ring_edges);
    ("mpsc per-producer order", `Quick, mpsc_order);
    ("submission storm", `Quick, submission_storm);
    ("batched firing order", `Quick, batched_firing_order);
    ("batch vs singles", `Quick, batch_vs_singles);
    ("poison mid-batch", `Quick, poison_mid_batch);
    ("no spurious under storm", `Quick, no_spurious_under_storm);
  ]
