(* Behavioural tests for every catalog connector family, run under both the
   existing and the new compilation approach. *)

open Preo

let configs = [ ("existing", Config.existing); ("jit", Config.new_jit) ]

let with_inst ?(n = 3) name f =
  let e = Preo_connectors.Catalog.find name in
  List.iter
    (fun (cname, config) ->
      let inst =
        instantiate ~config (Preo_connectors.Catalog.compiled e)
          ~lengths:(e.Preo_connectors.Catalog.lengths n)
      in
      Fun.protect ~finally:(fun () -> shutdown inst) (fun () -> f cname n inst))
    configs

let protect_locked m f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let collector () =
  let m = Mutex.create () in
  let acc = ref [] in
  ( (fun x -> protect_locked m (fun () -> acc := x :: !acc)),
    fun () -> protect_locked m (fun () -> List.rev !acc) )

(* merger: every sent value arrives exactly once. *)
let merger () =
  with_inst "merger" (fun cname n inst ->
      let outs = outports inst "tl" in
      let consume = inports inst "hd" in
      let push, dump = collector () in
      Task.run_all
        ((fun () ->
           for _ = 1 to n * 5 do
             push (Value.to_int (Port.recv consume.(0)))
           done)
        :: List.init n (fun i -> fun () ->
               for r = 1 to 5 do
                 Port.send outs.(i) (Value.int ((i * 100) + r))
               done));
      let got = List.sort compare (dump ()) in
      let want =
        List.sort compare
          (List.concat_map
             (fun i -> List.init 5 (fun r -> (i * 100) + r + 1))
             (List.init n Fun.id))
      in
      Alcotest.(check (list int)) (cname ^ " all delivered once") want got)

(* replicator: every consumer sees the full stream in order. *)
let replicator () =
  with_inst "replicator" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let streams = Array.make n [] in
      let lock = Mutex.create () in
      Task.run_all
        ((fun () -> for r = 1 to 6 do Port.send out (Value.int r) done)
        :: List.init n (fun i -> fun () ->
               for _ = 1 to 6 do
                 let x = Value.to_int (Port.recv ins.(i)) in
                 protect_locked lock (fun () -> streams.(i) <- x :: streams.(i))
               done));
      Array.iteri
        (fun i s ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s consumer %d" cname i)
            [ 1; 2; 3; 4; 5; 6 ] (List.rev s))
        streams)

(* router: each value goes to exactly one consumer. *)
let router () =
  with_inst "router" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      let total = 12 in
      (* Consumers pull as much as they can; poisoning ends them. *)
      let consumers =
        List.init n (fun i ->
            Task.spawn (fun () ->
                while true do
                  push (Value.to_int (Port.recv ins.(i)))
                done))
      in
      for r = 1 to total do
        Port.send out (Value.int r)
      done;
      (* All sends completed; each was routed somewhere. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec wait () =
        if List.length (dump ()) < total && Unix.gettimeofday () < deadline then begin
          Thread.delay 0.005;
          wait ()
        end
      in
      wait ();
      shutdown inst;
      List.iter (fun t -> try Task.join t with _ -> ()) consumers;
      Alcotest.(check (list int)) (cname ^ " exactly once")
        (List.init total (fun i -> i + 1))
        (List.sort compare (dump ())))

(* ordered_merger: strict round-robin across producers per round. *)
let ordered_merger () =
  with_inst "ordered_merger" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      let rounds = 4 in
      Task.run_all
        ((fun () ->
           for _ = 1 to rounds do
             Array.iter (fun p -> push (Value.to_int (Port.recv p))) ins
           done)
        :: List.init n (fun i -> fun () ->
               for r = 1 to rounds do
                 Port.send outs.(i) (Value.int ((r * 10) + i))
               done));
      let want =
        List.concat_map
          (fun r -> List.init n (fun i -> (r * 10) + i))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) (cname ^ " strict order") want (dump ()))

(* alternator: emits round r as a1 a2 ... an, intake synchronous. *)
let alternator () =
  with_inst "alternator" (fun cname n inst ->
      let outs = outports inst "tl" in
      let consume = (inports inst "hd").(0) in
      let push, dump = collector () in
      let rounds = 3 in
      Task.run_all
        ((fun () ->
           for _ = 1 to rounds * n do
             push (Value.to_int (Port.recv consume))
           done)
        :: List.init n (fun i -> fun () ->
               for r = 1 to rounds do
                 Port.send outs.(i) (Value.int ((r * 10) + i))
               done));
      let want =
        List.concat_map (fun r -> List.init n (fun i -> (r * 10) + i)) [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) (cname ^ " alternation") want (dump ()))

(* sequencer: grants rotate 1..n forever. *)
let sequencer () =
  with_inst "sequencer" (fun cname n inst ->
      let ins = inports inst "hd" in
      let push, dump = collector () in
      (* One thread polls the ports in rotation — receiving from the wrong
         port would block, so the protocol itself proves rotation if a
         round-robin receiver completes. *)
      Task.run_all
        [
          (fun () ->
            for _round = 1 to 3 do
              Array.iteri (fun i p -> ignore (Port.recv p); push i) ins
            done);
        ];
      Alcotest.(check (list int)) (cname ^ " rotation")
        (List.concat (List.init 3 (fun _ -> List.init n Fun.id)))
        (dump ()))

(* barrier: no task can be a full round ahead of any other. *)
let barrier () =
  with_inst "barrier" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let progress = Array.make n 0 in
      let lock = Mutex.create () in
      let violation = ref false in
      let rounds = 5 in
      Task.run_all
        (List.init n (fun i -> fun () ->
             for r = 1 to rounds do
               Port.send outs.(i) (Value.int ((100 * i) + r));
               let x = Value.to_int (Port.recv ins.(i)) in
               (* pairwise: we receive our own sender's value *)
               if x <> (100 * i) + r then violation := true;
               protect_locked lock (fun () ->
                   progress.(i) <- r;
                   Array.iter
                     (fun p -> if abs (p - r) > 1 then violation := true)
                     progress)
             done));
      Alcotest.(check bool) (cname ^ " lockstep") false !violation)

(* lock: mutual exclusion across clients. *)
let lock_mutex () =
  with_inst "lock" (fun cname n inst ->
      let acq = outports inst "acq" in
      let rel = outports inst "rel" in
      let inside = ref 0 in
      let max_inside = ref 0 in
      let lock = Mutex.create () in
      Task.run_all
        (List.init n (fun i -> fun () ->
             for _ = 1 to 10 do
               Port.send acq.(i) Value.unit;
               protect_locked lock (fun () ->
                   incr inside;
                   if !inside > !max_inside then max_inside := !inside);
               Thread.yield ();
               protect_locked lock (fun () -> decr inside);
               Port.send rel.(i) Value.unit
             done));
      Alcotest.(check int) (cname ^ " mutual exclusion") 1 !max_inside)

(* load balancer / gather / broadcast_fifo / crossbar: delivery completeness. *)
let completeness name senders_group receivers_group total_of =
  with_inst name (fun cname n inst ->
      let outs = outports inst senders_group in
      let ins = inports inst receivers_group in
      let push, dump = collector () in
      let per = 4 in
      let total = total_of n per in
      let consumers =
        Array.to_list
          (Array.map
             (fun p ->
               Task.spawn (fun () ->
                   while true do
                     push (Value.to_int (Port.recv p))
                   done))
             ins)
      in
      let producers =
        Array.to_list
          (Array.mapi
             (fun i p ->
               Task.spawn (fun () ->
                   for r = 1 to per do
                     Port.send p (Value.int ((1000 * i) + r))
                   done))
             outs)
      in
      List.iter Task.join producers;
      let deadline = Unix.gettimeofday () +. 2.0 in
      while List.length (dump ()) < total && Unix.gettimeofday () < deadline do
        Thread.delay 0.005
      done;
      shutdown inst;
      List.iter (fun t -> try Task.join t with _ -> ()) consumers;
      let want =
        List.sort compare
          (List.concat
             (List.init (Array.length outs) (fun i ->
                  List.init per (fun r -> (1000 * i) + r + 1))))
      in
      Alcotest.(check (list int)) (cname ^ " complete") want
        (List.sort compare (dump ())))

let load_balancer () = completeness "load_balancer" "tl" "hd" (fun _ per -> per)
let gather () = completeness "gather" "tl" "hd" (fun n per -> n * per)
let crossbar () = completeness "crossbar" "tl" "hd" (fun n per -> n * per)

let broadcast_fifo () =
  with_inst "broadcast_fifo" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let streams = Array.make n [] in
      let lock = Mutex.create () in
      Task.run_all
        ((fun () -> for r = 1 to 5 do Port.send out (Value.int r) done)
        :: List.init n (fun i -> fun () ->
               for _ = 1 to 5 do
                 let x = Value.to_int (Port.recv ins.(i)) in
                 protect_locked lock (fun () -> streams.(i) <- x :: streams.(i))
               done));
      Array.iteri
        (fun i s ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s stream %d" cname i)
            [ 1; 2; 3; 4; 5 ] (List.rev s))
        streams)

(* token ring: grants rotate; passing the token moves it on. *)
let token_ring () =
  with_inst "token_ring" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      Task.run_all
        (List.init n (fun i -> fun () ->
             for _ = 1 to 3 do
               ignore (Port.recv ins.(i));
               push i;
               Port.send outs.(i) Value.unit
             done));
      (* station 1 (index 0) holds the initial token *)
      Alcotest.(check (list int)) (cname ^ " ring order")
        (List.concat (List.init 3 (fun _ -> List.init n Fun.id)))
        (dump ()))

let relay_ring () =
  with_inst "relay_ring" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      Task.run_all
        (List.init n (fun i -> fun () ->
             for _ = 1 to 3 do
               ignore (Port.recv ins.(i));
               push i;
               Port.send outs.(i) Value.unit
             done));
      Alcotest.(check (list int)) (cname ^ " relay order")
        (List.concat (List.init 3 (fun _ -> List.init n Fun.id)))
        (dump ()))

let fork_join () =
  with_inst "fork_join" (fun cname n inst ->
      let src = (outports inst "tl").(0) in
      let acks = outports inst "ack" in
      let works = inports inst "work" in
      let result = (inports inst "hd").(0) in
      let rounds = 4 in
      let joined = Array.make rounds 0 in
      Task.run_all
        ((fun () ->
           for r = 1 to rounds do
             Port.send src (Value.int r)
           done)
        :: (fun () ->
             for r = 1 to rounds do
               joined.(r - 1) <- Value.to_int (Port.recv result)
             done)
        :: List.init n (fun i -> fun () ->
               for _ = 1 to rounds do
                 let x = Value.to_int (Port.recv works.(i)) in
                 Port.send acks.(i) (Value.int (x * 2))
               done));
      Alcotest.(check (list int)) (cname ^ " joined acks")
        (List.init rounds (fun r -> (r + 1) * 2))
        (Array.to_list joined))

let discriminator () =
  with_inst "discriminator" (fun cname n inst ->
      let outs = outports inst "tl" in
      let consume = (inports inst "hd").(0) in
      let rounds = 4 in
      Task.run_all
        ((fun () ->
           for _ = 1 to rounds do
             ignore (Port.recv consume)
           done)
        :: List.init n (fun i -> fun () ->
               for r = 1 to rounds do
                 Port.send outs.(i) (Value.int ((r * 10) + i))
               done));
      Alcotest.(check pass) (cname ^ " completes") () ())

let exchanger () =
  with_inst "exchanger" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let results = Array.make n (-1) in
      let rounds = 3 in
      let violation = ref false in
      Task.run_all
        (List.init n (fun i -> fun () ->
             for r = 1 to rounds do
               Port.send outs.(i) (Value.int ((r * 100) + i));
               let x = Value.to_int (Port.recv ins.(i)) in
               (* party i receives from its left neighbour (i-1 mod n) *)
               let expect = (r * 100) + ((i - 1 + n) mod n) in
               if x <> expect then violation := true;
               results.(i) <- x
             done));
      Alcotest.(check bool) (cname ^ " rotation") false !violation)

let lossy_bcast () =
  with_inst ~n:2 "lossy_bcast" (fun cname _n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      let consumers =
        Array.to_list
          (Array.map
             (fun p ->
               Task.spawn (fun () ->
                   while true do
                     push (Value.to_int (Port.recv p))
                   done))
             ins)
      in
      for r = 1 to 20 do
        Port.send out (Value.int r)
      done;
      Thread.delay 0.05;
      shutdown inst;
      List.iter (fun t -> try Task.join t with _ -> ()) consumers;
      (* deliveries are a sub(multi)set of sends *)
      List.iter
        (fun x ->
          if x < 1 || x > 20 then Alcotest.failf "%s bogus value %d" cname x)
        (dump ()))

let distributor () =
  with_inst "distributor" (fun cname n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      let push, dump = collector () in
      let rounds = 3 in
      Task.run_all
        ((fun () ->
           for r = 1 to rounds * n do
             Port.send out (Value.int r)
           done)
        :: List.init n (fun i -> fun () ->
               for _ = 1 to rounds do
                 let x = Value.to_int (Port.recv ins.(i)) in
                 push (i, x)
               done));
      (* consumer i gets values i+1, i+1+n, i+1+2n: strict dealing order *)
      List.iter
        (fun (i, x) ->
          Alcotest.(check int)
            (Printf.sprintf "%s deal %d" cname x)
            i ((x - 1) mod n))
        (dump ()))


let sampler () =
  with_inst ~n:2 "sampler" (fun cname _n inst ->
      let out = (outports inst "tl").(0) in
      let ins = inports inst "hd" in
      (* send a burst with nobody listening: all sends complete *)
      for i = 1 to 5 do
        Port.send out (Value.int i)
      done;
      (* each consumer then reads the newest value *)
      Array.iteri
        (fun i p ->
          Alcotest.(check int)
            (Printf.sprintf "%s consumer %d sees newest" cname i)
            5
            (Value.to_int (Port.recv p)))
        ins)

let parallel_syncs () =
  with_inst "parallel_syncs" (fun cname n inst ->
      let outs = outports inst "tl" in
      let ins = inports inst "hd" in
      let oks = Array.make n false in
      Task.run_all
        (List.concat
           (List.init n (fun i ->
                [
                  (fun () -> Port.send outs.(i) (Value.int (i * 7)));
                  (fun () ->
                    oks.(i) <- Value.to_int (Port.recv ins.(i)) = i * 7);
                ])));
      Array.iteri
        (fun i ok ->
          Alcotest.(check bool) (Printf.sprintf "%s pair %d" cname i) true ok)
        oks)

let tests =
  [
    ("merger", `Quick, merger);
    ("replicator", `Quick, replicator);
    ("router", `Quick, router);
    ("ordered_merger", `Quick, ordered_merger);
    ("alternator", `Quick, alternator);
    ("sequencer", `Quick, sequencer);
    ("barrier", `Quick, barrier);
    ("lock mutual exclusion", `Quick, lock_mutex);
    ("load_balancer", `Quick, load_balancer);
    ("gather", `Quick, gather);
    ("crossbar", `Quick, crossbar);
    ("broadcast_fifo", `Quick, broadcast_fifo);
    ("token_ring", `Quick, token_ring);
    ("relay_ring", `Quick, relay_ring);
    ("fork_join", `Quick, fork_join);
    ("discriminator", `Quick, discriminator);
    ("exchanger", `Quick, exchanger);
    ("lossy_bcast", `Quick, lossy_bcast);
    ("distributor", `Quick, distributor);
    ("sampler", `Quick, sampler);
    ("parallel_syncs", `Quick, parallel_syncs);
  ]
