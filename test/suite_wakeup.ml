(* No-lost-wakeup stress: producers and consumers hammer small catalog
   connectors under the targeted-wakeup engine, mixing plain blocking
   operations with short random deadlines (which exercise the withdraw /
   re-park bookkeeping) and poison injection. A lost wakeup shows up as a
   hang: the plain (deadline-free) operations never time out, so they only
   complete if every firing wakes the right waiters. *)

open Preo

let stress_configs =
  [ ("jit", Config.new_jit); ("partitioned", Config.new_partitioned) ]

let with_family ?(n = 4) name f =
  let e = Preo_connectors.Catalog.find name in
  List.iter
    (fun (cname, config) ->
      let inst =
        instantiate ~config (Preo_connectors.Catalog.compiled e)
          ~lengths:(e.Preo_connectors.Catalog.lengths n)
      in
      Fun.protect ~finally:(fun () -> shutdown inst) (fun () -> f cname n inst))
    stress_configs

let protect_locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Receive, occasionally through a short deadline that may expire; on expiry
   the operation is withdrawn and we retry, so the datum is never lost. *)
let recv_retry rng p =
  let rec go () =
    if Preo_support.Rng.int rng 4 = 0 then
      match Port.recv_opt ~deadline:(Unix.gettimeofday () +. 0.002) p with
      | Ok v -> v
      | Error _ -> go ()
    else Port.recv p
  in
  go ()

let send_retry rng p v =
  let rec go () =
    if Preo_support.Rng.int rng 4 = 0 then
      match Port.send_opt ~deadline:(Unix.gettimeofday () +. 0.002) p v with
      | Ok () -> ()
      | Error _ -> go ()
    else Port.send p v
  in
  go ()

(* sequencer: a single round-robin receiver; receiving from the wrong port
   would block forever, so completing all rounds proves both the rotation and
   that timed-out grants are re-acquirable. *)
let sequencer_deadline_storm () =
  with_family "sequencer" (fun cname n inst ->
      let ins = inports inst "hd" in
      let rng = Preo_support.Rng.create 101 in
      let order = ref [] in
      Task.run_all
        [
          (fun () ->
            for _round = 1 to 25 do
              Array.iteri
                (fun i p ->
                  ignore (recv_retry rng p);
                  order := i :: !order)
                ins
            done);
        ];
      Alcotest.(check (list int))
        (cname ^ " rotation survives deadlines")
        (List.concat (List.init 25 (fun _ -> List.init n Fun.id)))
        (List.rev !order))

(* broadcast_fifo: one producer, [n] concurrent consumers, everyone mixing
   deadlines in. Every consumer must see the full stream in order. *)
let broadcast_deadline_storm () =
  with_family "broadcast_fifo" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let rounds = 50 in
      let streams = Array.make n [] in
      let lock = Mutex.create () in
      Task.run_all
        ((fun () ->
           let rng = Preo_support.Rng.create 7 in
           for r = 1 to rounds do
             send_retry rng out (Value.int r)
           done)
        :: List.init n (fun i -> fun () ->
               let rng = Preo_support.Rng.create (1000 + i) in
               for _ = 1 to rounds do
                 let x = Value.to_int (recv_retry rng ins.(i)) in
                 protect_locked lock (fun () -> streams.(i) <- x :: streams.(i))
               done));
      Array.iteri
        (fun i s ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s stream %d in order" cname i)
            (List.init rounds (fun r -> r + 1))
            (List.rev s))
        streams)

(* token_ring (partitioned into one region per station): n station threads
   pass the token under random deadlines; order must still be a strict
   rotation starting at station 0. *)
let ring_deadline_storm () =
  with_family "token_ring" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let rounds = 25 in
      let order = ref [] in
      let lock = Mutex.create () in
      Task.run_all
        (List.init n (fun i -> fun () ->
             let rng = Preo_support.Rng.create (77 + i) in
             for _ = 1 to rounds do
               ignore (recv_retry rng ins.(i));
               protect_locked lock (fun () -> order := i :: !order);
               send_retry rng outs.(i) Value.unit
             done));
      Alcotest.(check (list int))
        (cname ^ " ring order under deadlines")
        (List.concat (List.init rounds (fun _ -> List.init n Fun.id)))
        (List.rev !order))

(* Poison injection: consumers block forever mid-stream; closing the
   connector must wake and release every one of them (a lost broadcast
   wakeup would leave a consumer parked and the join would hang). *)
let poison_releases_everyone () =
  with_family "broadcast_fifo" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let received = Atomic.make 0 in
      let consumers =
        List.init n (fun i ->
            Task.spawn (fun () ->
                while true do
                  ignore (Port.recv ins.(i));
                  Atomic.incr received
                done))
      in
      let producer =
        Task.spawn (fun () ->
            try
              while true do
                Port.send out Value.unit
              done
            with Engine.Poisoned _ -> ())
      in
      (* Let the storm run, then pull the plug. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      while Atomic.get received < n && Unix.gettimeofday () < deadline do
        Thread.delay 0.002
      done;
      Connector.close (connector inst);
      (* Every task must come back; Task.join swallows Poisoned. *)
      List.iter Task.join (producer :: consumers);
      Alcotest.(check bool)
        (cname ^ " all consumers made progress")
        true
        (Atomic.get received >= n);
      let st = Connector.stats (connector inst) in
      Alcotest.(check bool)
        (cname ^ " shutdown used broadcast wake")
        true
        (st.Connector.st_wakes_broadcast >= 1))

(* Deterministic counter check: a receiver parked long enough to be asleep in
   its condition wait must be woken by a *targeted* signal when the matching
   send fires — and an orderly close must not be counted as targeted. *)
let targeted_wake_counters () =
  List.iter
    (fun (cname, config) ->
      let a = Preo_automata.Vertex.fresh "a"
      and b = Preo_automata.Vertex.fresh "b" in
      let auto =
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ]
      in
      let conn =
        Connector.create ~config ~sources:[| a |] ~sinks:[| b |] [ auto ]
      in
      let got = ref 0 in
      let t =
        Task.spawn (fun () ->
            got := Value.to_int (Port.recv (Connector.inport conn b)))
      in
      Thread.delay 0.05;
      (* receiver is parked now *)
      Port.send (Connector.outport conn a) (Value.int 7);
      Task.join t;
      let st = Connector.stats conn in
      Alcotest.(check int) (cname ^ " value") 7 !got;
      Alcotest.(check bool) (cname ^ " receiver parked") true
        (st.Connector.st_cond_waits >= 1);
      Alcotest.(check bool) (cname ^ " targeted wake issued") true
        (st.Connector.st_wakes_targeted >= 1);
      Alcotest.(check int) (cname ^ " no broadcast during run") 0
        st.Connector.st_wakes_broadcast;
      Connector.close conn;
      let st = Connector.stats conn in
      Alcotest.(check bool) (cname ^ " close broadcasts") true
        (st.Connector.st_wakes_broadcast >= 1))
    stress_configs

(* A blocked operation shows in the Chrome export as one "blocked recv"
   instant while it is parked, and stops showing once it leaves the engine
   — by completing, by [Connector.close] poisoning it, or by expiring at
   its deadline. The exporter's table of pending operations must drain, or
   a trace taken after the fact reports tasks that are long gone. *)
let trace_table_drains () =
  Preo_obs.Obs.reset ();
  set_tracing true;
  Fun.protect ~finally:(fun () -> set_tracing false) (fun () ->
      let fifo1 () =
        let a = Preo_automata.Vertex.fresh "a"
        and b = Preo_automata.Vertex.fresh "b" in
        let auto =
          Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ]
        in
        let conn =
          Connector.create ~config:Config.new_jit ~sources:[| a |]
            ~sinks:[| b |] [ auto ]
        in
        (conn, Connector.outport conn a, Connector.inport conn b)
      in
      let blocked conn =
        let needle = "\"blocked recv b#" in
        let s = Connector.chrome_trace conn in
        let n = String.length needle in
        let rec count i acc =
          if i + n > String.length s then acc
          else if String.sub s i n = needle then count (i + n) (acc + 1)
          else count (i + 1) acc
        in
        count 0 0
      in
      let conn, out, inp = fifo1 () in
      let t = Task.spawn (fun () -> ignore (Port.recv inp)) in
      Thread.delay 0.05;
      Alcotest.(check int) "blocked op is traced" 1 (blocked conn);
      Port.send out Value.unit;
      Task.join t;
      Alcotest.(check int) "drained after completion" 0 (blocked conn);
      (* A blocked op released by close must also leave the table. *)
      let t2 = Task.spawn (fun () -> ignore (Port.recv inp)) in
      Thread.delay 0.05;
      Alcotest.(check int) "second blocked op is traced" 1 (blocked conn);
      Connector.close conn;
      Task.join t2;
      Alcotest.(check int) "drained after close" 0 (blocked conn);
      (* So must one withdrawn at its deadline (fresh connector: the first
         is closed). *)
      let conn, _, inp = fifo1 () in
      let expired =
        Port.recv_opt ~deadline:(Unix.gettimeofday () +. 0.05) inp
      in
      Alcotest.(check bool) "deadline expired" true (Result.is_error expired);
      Alcotest.(check int) "drained after deadline" 0 (blocked conn);
      Connector.close conn)

let tests =
  [
    ("sequencer deadline storm", `Quick, sequencer_deadline_storm);
    ("broadcast deadline storm", `Quick, broadcast_deadline_storm);
    ("token-ring deadline storm", `Quick, ring_deadline_storm);
    ("poison releases everyone", `Quick, poison_releases_everyone);
    ("targeted wake counters", `Quick, targeted_wake_counters);
    ("trace table drains", `Quick, trace_table_drains);
  ]
