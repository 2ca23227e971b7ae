(* Runtime: engines, composers, partition, poisoning, cache. *)

open Preo_support
open Preo_automata
open Preo_runtime

let v = Vertex.fresh

let mk_conn ?config ?compile prims ~sources ~sinks =
  Connector.create ?config ?compile ~sources ~sinks prims

let sync_conn config =
  let a = v "a" and b = v "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  (mk_conn ~config [ auto ] ~sources:[| a |] ~sinks:[| b |], a, b)

let all_configs =
  [
    ("existing", Config.existing);
    ("jit", Config.new_jit);
    ("jit-nolabel", Config.New
       { optimize_labels = false; cache_capacity = 0; expansion_budget = 2_000_000;
         partition = false; true_synchronous = false });
    ("existing-nodispatch", Config.Existing
       { use_dispatch = false; optimize_labels = false; max_states = 200_000;
         max_trans = 2_000_000; max_compile_seconds = 30.0;
         true_synchronous = false });
    ("partitioned", Config.new_partitioned);
    ("cached8", Config.new_jit_cached 8);
  ]

let sync_rendezvous () =
  List.iter
    (fun (name, config) ->
      let conn, a, b = sync_conn config in
      let got = ref [] in
      Task.run_all
        [
          (fun () ->
            for i = 1 to 10 do
              Port.send (Connector.outport conn a) (Value.int i)
            done);
          (fun () ->
            for _ = 1 to 10 do
              got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
            done);
        ];
      Alcotest.(check (list int)) (name ^ " order") [1;2;3;4;5;6;7;8;9;10]
        (List.rev !got);
      Alcotest.(check int) (name ^ " steps") 10 (Connector.steps conn))
    all_configs

let fifo_decouples () =
  (* A send into an empty fifo completes without a receiver. *)
  let a = v "a" and b = v "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] in
  let conn = mk_conn ~config:Config.new_jit [ auto ] ~sources:[| a |] ~sinks:[| b |] in
  Port.send (Connector.outport conn a) (Value.int 42);
  Alcotest.(check int) "one step" 1 (Connector.steps conn);
  let got = Port.recv (Connector.inport conn b) in
  Alcotest.(check bool) "value preserved" true (Value.equal got (Value.int 42))

let fifo_order_preserved () =
  List.iter
    (fun (name, config) ->
      let a = v "a" and m = v "m" and b = v "b" in
      let autos =
        [
          Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m ];
          Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m ] ~heads:[ b ];
        ]
      in
      let conn = mk_conn ~config autos ~sources:[| a |] ~sinks:[| b |] in
      let got = ref [] in
      Task.run_all
        [
          (fun () ->
            for i = 1 to 50 do
              Port.send (Connector.outport conn a) (Value.int i)
            done);
          (fun () ->
            for _ = 1 to 50 do
              got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
            done);
        ];
      Alcotest.(check (list int)) (name ^ " fifo order")
        (List.init 50 (fun i -> i + 1))
        (List.rev !got))
    all_configs

let poison_unblocks () =
  let conn, a, _ = sync_conn Config.new_jit in
  let blocked = Task.spawn (fun () ->
      Port.send (Connector.outport conn a) Value.unit)
  in
  Thread.delay 0.02;
  Connector.poison conn "test";
  (* join swallows Poisoned *)
  Task.join blocked;
  Alcotest.(check int) "no steps" 0 (Connector.steps conn)

let send_after_poison_raises () =
  let conn, a, _ = sync_conn Config.new_jit in
  Connector.poison conn "gone";
  match Port.send (Connector.outport conn a) Value.unit with
  | exception Engine.Poisoned _ -> ()
  | () -> Alcotest.fail "expected Poisoned"

let unknown_boundary_vertex_rejected () =
  let conn, _, _ = sync_conn Config.new_jit in
  match Connector.outport conn (v "ghost") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let compile_failure_on_budget () =
  let autos =
    List.init 24 (fun i ->
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1
          ~tails:[ v (Printf.sprintf "a%d" i) ]
          ~heads:[ v (Printf.sprintf "b%d" i) ])
  in
  let sources = Array.of_list (List.map (fun (a : Automaton.t) -> Iset.choose a.sources) autos) in
  let sinks = Array.of_list (List.map (fun (a : Automaton.t) -> Iset.choose a.sinks) autos) in
  match
    mk_conn ~config:(Config.existing_states 1000) autos ~sources ~sinks
  with
  | exception Connector.Compile_failure _ -> ()
  | _ -> Alcotest.fail "expected Compile_failure"

(* JIT with a tiny bounded cache must still be correct (recompute evicted
   states) and must actually evict. *)
let bounded_cache_recomputes () =
  let a = v "a" and m = v "m" and b = v "b" in
  let autos =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m ] ~heads:[ b ];
    ]
  in
  let conn = mk_conn ~config:(Config.new_jit_cached 1) autos ~sources:[| a |] ~sinks:[| b |] in
  let got = ref [] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 30 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 30 do
          got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
        done);
    ];
  Alcotest.(check (list int)) "order despite eviction"
    (List.init 30 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check bool) "evictions happened" true (Connector.cache_evictions conn > 0)

(* Expansion budget: a lossy broadcast over many branches blows up a single
   state's expansion under the synchronous product. *)
let expansion_blowup_poisons () =
  let n = 18 in
  let a = v "a" in
  let xs = List.init n (fun i -> v (Printf.sprintf "x%d" i)) in
  let bs = List.init n (fun i -> v (Printf.sprintf "b%d" i)) in
  let autos =
    Preo_reo.Prim.build Preo_reo.Prim.Replicator ~tails:[ a ] ~heads:xs
    :: List.map2
         (fun x b -> Preo_reo.Prim.build Preo_reo.Prim.Lossy_sync ~tails:[ x ] ~heads:[ b ])
         xs bs
  in
  let config =
    Config.New
      { optimize_labels = true; cache_capacity = 0; expansion_budget = 10_000;
        partition = false; true_synchronous = false }
  in
  (* the automata expansion budget specifically: pin the backend so a
     PREO_BACKEND=coloring run (where this shape does not blow up) still
     exercises the JIT path *)
  let conn =
    Connector.create ~config ~backend:Preo_runtime.Sched.Automata ~sources:[| a |]
      ~sinks:(Array.of_list bs) autos
  in
  (match Port.send (Connector.outport conn a) Value.unit with
   | exception Engine.Poisoned _ -> ()
   | () -> Alcotest.fail "expected blow-up");
  Alcotest.(check bool) "failure recorded" true (Connector.failure conn <> None)

(* --- Partition ------------------------------------------------------------- *)

let partition_recognizes_fifo () =
  let a = v "a" and b = v "b" in
  let f = Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] in
  (match Partition.is_plain_fifo1 f with
   | Some (t, h) ->
     Alcotest.(check bool) "ends" true (Vertex.equal t a && Vertex.equal h b)
   | None -> Alcotest.fail "fifo1 not recognized");
  let s = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  Alcotest.(check bool) "sync not fifo" true (Partition.is_plain_fifo1 s = None);
  let ff = Preo_reo.Prim.build (Preo_reo.Prim.Fifo1_full Value.unit) ~tails:[ a ] ~heads:[ b ] in
  Alcotest.(check bool) "full fifo not plain" true (Partition.is_plain_fifo1 ff = None)

let partition_splits_pipeline () =
  (* repl -> fifo -> merger-ish chain: sync(a;m1) fifo(m1;m2) sync(m2;b) *)
  let a = v "a" and m1 = v "m1" and m2 = v "m2" and b = v "b" in
  let autos =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ m1 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ m2 ] ~heads:[ b ];
    ]
  in
  let plan =
    Partition.split ~sequentialize:false ~sources:(Iset.singleton a)
      ~sinks:(Iset.singleton b) autos
  in
  Alcotest.(check int) "2 regions" 2 (Array.length plan.Partition.regions);
  Alcotest.(check int) "1 bridge" 1 plan.Partition.nbridges;
  Array.iter
    (fun (r : Partition.region) ->
      Alcotest.(check bool) "region has adjacency" true (r.bridge_peers <> []))
    plan.Partition.regions;
  (* The sequentializer recognizes this pipeline's cut as strictly
     alternating and fuses it back when enabled. *)
  let fused =
    Partition.split ~sequentialize:true ~sources:(Iset.singleton a)
      ~sinks:(Iset.singleton b) autos
  in
  Alcotest.(check int) "fused to one region" 1
    (Array.length fused.Partition.regions);
  Alcotest.(check int) "one merge counted" 1 fused.Partition.nfused

let partition_boundary_fifo_not_cut () =
  let a = v "a" and b = v "b" in
  let autos = [ Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] ] in
  let plan =
    Partition.split ~sources:(Iset.singleton a) ~sinks:(Iset.singleton b) autos
  in
  Alcotest.(check int) "one region" 1 (Array.length plan.Partition.regions);
  Alcotest.(check int) "no bridges" 0 plan.Partition.nbridges

let partition_fifo_chain_alternates () =
  (* Chain of 6 fifos between boundary a and b: vertex-cover promotion must
     produce at least 2 regions with bridges. *)
  let vs = Array.init 7 (fun i -> v (Printf.sprintf "m%d" i)) in
  let autos =
    List.init 6 (fun i ->
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ vs.(i) ] ~heads:[ vs.(i + 1) ])
  in
  let plan =
    Partition.split ~sources:(Iset.singleton vs.(0)) ~sinks:(Iset.singleton vs.(6))
      autos
  in
  Alcotest.(check bool) "at least 2 regions" true
    (Array.length plan.Partition.regions >= 2);
  Alcotest.(check bool) "bridges exist" true (plan.Partition.nbridges >= 1)

(* A 3-state single-cell duplicator: consume on [t], then emit the datum
   twice on [h]. Every state is modal (all-tail or all-head), so the general
   SPSC recognizer must accept it even though it is no fifo. *)
let duplicator t h =
  let open Constr in
  let c = Cell.fresh "dup" in
  let tr sync constr target = { Automaton.sync; constr; command = None; target } in
  Automaton.make ~nstates:3 ~initial:0
    ~trans:
      [|
        [| tr (Iset.singleton t) [ Post c === Port t ] 1 |];
        [| tr (Iset.singleton h) [ Port h === Pre c ] 2 |];
        [| tr (Iset.singleton h) [ Port h === Pre c ] 0 |];
      |]
    ~sources:(Iset.singleton t) ~sinks:(Iset.singleton h)

let partition_classifies_shapes () =
  let a = v "a" and b = v "b" in
  (match
     Partition.classify
       (Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ])
   with
  | Some (Partition.Cut_queue { q_cap = 1; q_init = []; q_tail; q_head }) ->
    Alcotest.(check bool) "fifo ends" true
      (Vertex.equal q_tail a && Vertex.equal q_head b)
  | _ -> Alcotest.fail "fifo1 should classify as an empty capacity-1 queue");
  (match
     Partition.classify
       (Preo_reo.Prim.build
          (Preo_reo.Prim.Fifo1_full (Value.int 9))
          ~tails:[ a ] ~heads:[ b ])
   with
  | Some (Partition.Cut_queue { q_cap = 1; q_init = [ x ]; _ }) ->
    Alcotest.(check int) "seed value" 9 (Value.to_int x)
  | _ -> Alcotest.fail "full fifo1 should classify as a pre-seeded queue");
  (match
     Partition.classify
       (Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ])
   with
  | None -> ()
  | Some _ -> Alcotest.fail "sync fires tail and head together: never cut");
  match Partition.classify (duplicator a b) with
  | Some (Partition.Cut_auto { a_tail; a_head; _ }) ->
    Alcotest.(check bool) "modal ends" true
      (Vertex.equal a_tail a && Vertex.equal a_head b)
  | _ -> Alcotest.fail "modal duplicator should classify as a bridge automaton"

(* Initially-full fifo1 between two solid components: cut, and the seed
   value comes out first (the settle pass drives it to the consumer side
   before any task runs). *)
let partition_cuts_full_fifo () =
  let a = v "a" and m1 = v "m1" and m2 = v "m2" and b = v "b" in
  let autos () =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ m1 ];
      Preo_reo.Prim.build
        (Preo_reo.Prim.Fifo1_full (Value.int 99))
        ~tails:[ m1 ] ~heads:[ m2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ m2 ] ~heads:[ b ];
    ]
  in
  let plan =
    Partition.split ~sequentialize:false ~sources:(Iset.singleton a)
      ~sinks:(Iset.singleton b) (autos ())
  in
  Alcotest.(check int) "2 regions" 2 (Array.length plan.Partition.regions);
  Alcotest.(check int) "1 bridge" 1 plan.Partition.nbridges;
  let conn =
    mk_conn ~config:Config.new_partitioned (autos ()) ~sources:[| a |]
      ~sinks:[| b |]
  in
  let got = ref [] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 5 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 6 do
          got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
        done);
    ];
  Alcotest.(check (list int)) "seed first, then order"
    [ 99; 1; 2; 3; 4; 5 ] (List.rev !got)

(* Two internal fifo1s in a row collapse into ONE capacity-2 bridge: a
   single cut instead of three regions. *)
let partition_collapses_chain () =
  let a = v "a" and m1 = v "m1" and m2 = v "m2" and m3 = v "m3" and b = v "b" in
  let autos () =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ m1 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m2 ] ~heads:[ m3 ];
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ m3 ] ~heads:[ b ];
    ]
  in
  let plan =
    Partition.split ~sources:(Iset.singleton a) ~sinks:(Iset.singleton b)
      (autos ())
  in
  Alcotest.(check int) "chain collapses to 2 regions" 2
    (Array.length plan.Partition.regions);
  Alcotest.(check int) "one bridge for the whole chain" 1
    plan.Partition.nbridges;
  let conn =
    mk_conn ~config:Config.new_partitioned (autos ()) ~sources:[| a |]
      ~sinks:[| b |]
  in
  (* Capacity 2: both sends complete with no consumer attached. *)
  let far = Unix.gettimeofday () +. 2.0 in
  Alcotest.(check bool) "buffers first" true
    (Port.send_opt ~deadline:far (Connector.outport conn a) (Value.int 1) = Ok ());
  Alcotest.(check bool) "buffers second" true
    (Port.send_opt ~deadline:far (Connector.outport conn a) (Value.int 2) = Ok ());
  let got = List.init 2 (fun _ -> Value.to_int (Port.recv (Connector.inport conn b))) in
  Alcotest.(check (list int)) "order through queue" [ 1; 2 ] got

(* A modal non-fifo medium (the duplicator) is cut and behaves identically
   to the monolithic JIT run. *)
let partition_cuts_modal_medium () =
  let run config =
    let a = v "a" and t = v "t" and h = v "h" and b = v "b" in
    let autos =
      [
        Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ t ];
        duplicator t h;
        Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ h ] ~heads:[ b ];
      ]
    in
    let conn = mk_conn ~config autos ~sources:[| a |] ~sinks:[| b |] in
    let got = ref [] in
    Task.run_all
      [
        (fun () ->
          for i = 1 to 4 do
            Port.send (Connector.outport conn a) (Value.int i)
          done);
        (fun () ->
          for _ = 1 to 8 do
            got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
          done);
      ];
    (List.rev !got, Connector.nregions conn)
  in
  let jit, r1 = run Config.new_jit in
  let part, r2 = run Config.new_partitioned in
  Alcotest.(check (list int)) "each datum twice"
    [ 1; 1; 2; 2; 3; 3; 4; 4 ] part;
  Alcotest.(check (list int)) "matches jit" jit part;
  Alcotest.(check int) "jit monolithic" 1 r1;
  Alcotest.(check int) "modal medium cut" 2 r2

(* Fan-out relay rule: two boundary-headed fifos off the same replicator are
   both cut via relay regions (one per consumer), decoupling the consumers
   from each other. *)
let partition_relay_fanout () =
  let a = v "a" and x1 = v "x1" and x2 = v "x2" in
  let b1 = v "b1" and b2 = v "b2" in
  let autos () =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Replicator ~tails:[ a ]
        ~heads:[ x1; x2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ x1 ] ~heads:[ b1 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ x2 ] ~heads:[ b2 ];
    ]
  in
  let plan =
    Partition.split ~sources:(Iset.singleton a)
      ~sinks:(Iset.of_list [ b1; b2 ])
      (autos ())
  in
  Alcotest.(check int) "replicator + 2 relays" 3
    (Array.length plan.Partition.regions);
  Alcotest.(check int) "2 bridges" 2 plan.Partition.nbridges;
  let conn =
    mk_conn ~config:Config.new_partitioned (autos ()) ~sources:[| a |]
      ~sinks:[| b1; b2 |]
  in
  let streams = [| []; [] |] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 5 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 5 do
          streams.(0) <-
            Value.to_int (Port.recv (Connector.inport conn b1)) :: streams.(0)
        done);
      (fun () ->
        for _ = 1 to 5 do
          streams.(1) <-
            Value.to_int (Port.recv (Connector.inport conn b2)) :: streams.(1)
        done);
    ];
  Array.iteri
    (fun i s ->
      Alcotest.(check (list int))
        (Printf.sprintf "consumer %d full stream" i)
        [ 1; 2; 3; 4; 5 ] (List.rev s))
    streams

let partitioned_execution_matches () =
  (* Same data through a partitioned pipeline as through monolithic JIT. *)
  let run config =
    let a = v "a" and m1 = v "m1" and m2 = v "m2" and b = v "b" in
    let autos =
      [
        Preo_reo.Prim.build (Preo_reo.Prim.Transform "incr") ~tails:[ a ] ~heads:[ m1 ];
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
        Preo_reo.Prim.build (Preo_reo.Prim.Transform "incr") ~tails:[ m2 ] ~heads:[ b ];
      ]
    in
    let conn = mk_conn ~config ~compile:false autos ~sources:[| a |] ~sinks:[| b |] in
    let got = ref [] in
    Task.run_all
      [
        (fun () ->
          for i = 1 to 20 do
            Port.send (Connector.outport conn a) (Value.int i)
          done);
        (fun () ->
          for _ = 1 to 20 do
            got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
          done);
      ];
    (List.rev !got, Connector.nregions conn)
  in
  let jit, r1 = run Config.new_jit in
  let part, r2 = run Config.new_partitioned in
  Alcotest.(check (list int)) "same values" jit part;
  Alcotest.(check (list int)) "incr twice" (List.init 20 (fun i -> i + 3)) part;
  Alcotest.(check int) "jit monolithic" 1 r1;
  Alcotest.(check int) "partitioned split" 2 r2

(* Steps agree between AOT and JIT for a deterministic protocol. *)
let steps_agree_across_composers () =
  let run config =
    let a = v "a" and m = v "m" and b = v "b" in
    let autos =
      [
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m ];
        Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m ] ~heads:[ b ];
      ]
    in
    let conn = mk_conn ~config autos ~sources:[| a |] ~sinks:[| b |] in
    Task.run_all
      [
        (fun () ->
          for i = 1 to 10 do
            Port.send (Connector.outport conn a) (Value.int i)
          done);
        (fun () ->
          for _ = 1 to 10 do
            ignore (Port.recv (Connector.inport conn b))
          done);
      ];
    Connector.steps conn
  in
  let s1 = run Config.existing and s2 = run Config.new_jit in
  Alcotest.(check int) "same global steps" s1 s2;
  Alcotest.(check int) "3 steps per item" 30 s2

let gates_direct () =
  (* Drive a gated source by hand through Engine.try_step. *)
  let a = v "a" and b = v "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  let slot = Atomic.make (Some (Value.int 5)) in
  let gate =
    {
      Engine.gate_ready = (fun () -> Atomic.get slot <> None);
      gate_peek = (fun () -> Option.get (Atomic.get slot));
      gate_commit = (fun _ -> Atomic.set slot None);
      gate_dump = (fun () -> "test-slot");
    }
  in
  let comp =
    Composer.jit ~sources:(Iset.singleton a) ~sinks:(Iset.singleton b) [ auto ]
  in
  let e = Engine.create ~gates:[ (a, gate) ] comp in
  let got = ref Value.unit in
  let recvd = Task.spawn (fun () -> got := Engine.recv e b) in
  Task.join recvd;
  Alcotest.(check bool) "gate value" true (Value.equal !got (Value.int 5));
  Alcotest.(check bool) "slot consumed" true (Atomic.get slot = None)


(* --- Engine regressions ----------------------------------------------------- *)

let try_step_after_poison_raises () =
  let a = v "a" and b = v "b" in
  let auto = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  let comp =
    Composer.jit ~sources:(Iset.singleton a) ~sinks:(Iset.singleton b) [ auto ]
  in
  let e = Engine.create comp in
  Engine.poison e "gone";
  match Engine.try_step e with
  | exception Engine.Poisoned _ -> ()
  | _ -> Alcotest.fail "expected Poisoned"

(* debug_dump must release the engine lock even when the composer blows its
   expansion budget mid-dump; a second dump used to die on the wedged
   mutex. *)
let debug_dump_survives_budget () =
  let n = 18 in
  let a = v "a" in
  let xs = List.init n (fun i -> v (Printf.sprintf "x%d" i)) in
  let bs = List.init n (fun i -> v (Printf.sprintf "b%d" i)) in
  let autos =
    Preo_reo.Prim.build Preo_reo.Prim.Replicator ~tails:[ a ] ~heads:xs
    :: List.map2
         (fun x b ->
           Preo_reo.Prim.build Preo_reo.Prim.Lossy_sync ~tails:[ x ] ~heads:[ b ])
         xs bs
  in
  let comp =
    Composer.jit ~expansion_budget:10_000 ~sources:(Iset.singleton a)
      ~sinks:(Iset.of_list bs) autos
  in
  let e = Engine.create comp in
  let dump1 = Engine.debug_dump e in
  Alcotest.(check bool) "budget failure reported" true
    (let re = "expansion budget" in
     let rec contains i =
       i + String.length re <= String.length dump1
       && (String.sub dump1 i (String.length re) = re || contains (i + 1))
     in
     contains 0);
  (* The lock was released: a second dump must not raise Sys_error. *)
  ignore (Engine.debug_dump e)

(* Cyclic peer topology: partitioned token ring engines kick each other in a
   cycle; the rounds-bounded kick_all must terminate and the ring must make
   progress. *)
let kick_all_cyclic_ring () =
  match
    Preo_connectors.Driver.smoke ~config:Config.new_partitioned
      (Preo_connectors.Catalog.find "token_ring") ~n:6
  with
  | Ok steps -> Alcotest.(check bool) "ring progressed" true (steps > 0)
  | Error msg -> Alcotest.fail ("ring run failed: " ^ msg)

let firing_loop_counters () =
  (* Unoptimized labels: runtime solver calls happen, but memoization caps
     them; repeated states hit the candidate cache. *)
  let a = v "a" and m = v "m" and b = v "b" in
  let autos =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m ] ~heads:[ b ];
    ]
  in
  let config =
    Config.New
      { optimize_labels = false; cache_capacity = 0; expansion_budget = 2_000_000;
        partition = false; true_synchronous = false }
  in
  let conn = mk_conn ~config autos ~sources:[| a |] ~sinks:[| b |] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 50 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 50 do
          ignore (Port.recv (Connector.inport conn b))
        done);
    ];
  let st = Connector.stats conn in
  Alcotest.(check bool) "solver ran" true (st.Connector.st_solver_calls > 0);
  Alcotest.(check bool) "solver memoized" true
    (st.Connector.st_solver_calls < Connector.steps conn);
  Alcotest.(check bool) "candidate cache hit" true
    (st.Connector.st_cand_hits > 0);
  (* Partitioned pipeline: firings must have nudged the peer engine. *)
  let a = v "a" and m1 = v "m1" and m2 = v "m2" and b = v "b" in
  let autos =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ m1 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ m2 ] ~heads:[ b ];
    ]
  in
  let conn =
    mk_conn ~config:Config.new_partitioned ~compile:false autos ~sources:[| a |]
      ~sinks:[| b |]
  in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 20 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 20 do
          ignore (Port.recv (Connector.inport conn b))
        done);
    ];
  let st = Connector.stats conn in
  Alcotest.(check bool) "peer kicks counted" true (st.Connector.st_peer_kicks > 0)

(* --- Fifo<n> capacity and ordering ---------------------------------------- *)

let fifon_capacity_and_order () =
  List.iter
    (fun (name, config) ->
      let a = v "a" and b = v "b" in
      let auto = Preo_reo.Prim.build (Preo_reo.Prim.Fifo_n 3) ~tails:[ a ] ~heads:[ b ] in
      let conn = mk_conn ~config [ auto ] ~sources:[| a |] ~sinks:[| b |] in
      (* 3 sends complete without any receiver *)
      for i = 1 to 3 do
        Port.send (Connector.outport conn a) (Value.int i)
      done;
      Alcotest.(check int) (name ^ " buffered 3") 3 (Connector.steps conn);
      (* 4th send blocks until one receive drains a slot; run them together *)
      let got = ref [] in
      Task.run_all
        [
          (fun () ->
            for i = 4 to 10 do
              Port.send (Connector.outport conn a) (Value.int i)
            done);
          (fun () ->
            for _ = 1 to 10 do
              got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
            done);
        ];
      Alcotest.(check (list int)) (name ^ " fifo order")
        (List.init 10 (fun i -> i + 1))
        (List.rev !got))
    [ ("existing", Config.existing); ("jit", Config.new_jit) ]

let fifon_from_dsl () =
  let inst =
    Preo.instantiate
      (Preo.compile ~source:{|C(a;b) = Fifo<2>(a;b)|} ~name:"C")
      ~lengths:[]
  in
  let a = (Preo.outports inst "a").(0) in
  let b = (Preo.inports inst "b").(0) in
  Preo.Port.send a (Value.int 1);
  Preo.Port.send a (Value.int 2);
  Alcotest.(check int) "two buffered" 2 (Preo.steps inst);
  Alcotest.(check int) "first out" 1 (Value.to_int (Preo.Port.recv b));
  Alcotest.(check int) "second out" 2 (Value.to_int (Preo.Port.recv b));
  Preo.shutdown inst


(* --- lossy one-place buffers ------------------------------------------------ *)

let shift_lossy_keeps_newest () =
  let a = v "a" and b = v "b" in
  let conn =
    mk_conn ~config:Config.new_jit
      [ Preo_reo.Prim.build Preo_reo.Prim.Shift_lossy ~tails:[ a ] ~heads:[ b ] ]
      ~sources:[| a |] ~sinks:[| b |]
  in
  (* three sends complete with no receiver; only the newest survives *)
  for i = 1 to 3 do
    Port.send (Connector.outport conn a) (Value.int i)
  done;
  Alcotest.(check int) "3 accepts" 3 (Connector.steps conn);
  Alcotest.(check int) "newest wins" 3
    (Value.to_int (Port.recv (Connector.inport conn b)))

let overflow_lossy_keeps_oldest () =
  let a = v "a" and b = v "b" in
  let conn =
    mk_conn ~config:Config.new_jit
      [ Preo_reo.Prim.build Preo_reo.Prim.Overflow_lossy ~tails:[ a ] ~heads:[ b ] ]
      ~sources:[| a |] ~sinks:[| b |]
  in
  for i = 1 to 3 do
    Port.send (Connector.outport conn a) (Value.int i)
  done;
  Alcotest.(check int) "oldest wins" 1
    (Value.to_int (Port.recv (Connector.inport conn b)))

(* --- deadlines and stall diagnosis ------------------------------------------ *)

let recv_deadline_times_out () =
  (* a sync with no sender: a deadlined recv must expire with a stall
     report naming the pending vertex, not hang *)
  let conn, _, b = sync_conn Config.new_jit in
  let t0 = Unix.gettimeofday () in
  match Port.recv ~deadline:(t0 +. 0.1) (Connector.inport conn b) with
  | exception Engine.Timed_out r ->
    let waited = Unix.gettimeofday () -. t0 in
    Alcotest.(check bool) "within 2x the deadline" true (waited < 0.2);
    Alcotest.(check string) "op named" "recv" r.Engine.sr_op;
    Alcotest.(check bool) "vertex named" true
      (String.starts_with ~prefix:"b#" r.Engine.sr_vertex);
    Alcotest.(check bool) "pending vertices listed" true
      (List.exists
         (fun es ->
           List.exists
             (String.starts_with ~prefix:"b#")
             es.Engine.es_pending)
         r.Engine.sr_engines);
    Alcotest.(check bool) "stall counted" true
      ((Connector.stats conn).Connector.st_stalls > 0);
    Alcotest.(check bool) "report retrievable" true
      (Connector.last_stall conn <> None)
  | _ -> Alcotest.fail "expected Timed_out"

let send_deadline_times_out () =
  let conn, a, _ = sync_conn Config.new_jit in
  match Port.send ~deadline:(Unix.gettimeofday () +. 0.05)
          (Connector.outport conn a) Value.unit with
  | exception Engine.Timed_out r ->
    Alcotest.(check string) "op named" "send" r.Engine.sr_op
  | () -> Alcotest.fail "expected Timed_out"

let timed_out_op_is_withdrawn () =
  (* the expired recv must be withdrawn: a later send/recv pair still
     rendezvous correctly, and the value cannot leak into the dead slot *)
  let conn, a, b = sync_conn Config.new_jit in
  (match Port.recv_opt ~deadline:(Unix.gettimeofday () +. 0.05)
           (Connector.inport conn b) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected a timeout");
  let sender =
    Task.spawn (fun () -> Port.send (Connector.outport conn a) (Value.int 9))
  in
  let got = Port.recv (Connector.inport conn b) in
  Task.join sender;
  Alcotest.(check int) "fresh recv gets the value" 9 (Value.to_int got)

let stall_watchdog_records () =
  (* the watchdog snapshots a blocked op that exceeds the threshold even
     when it is eventually released — no deadline involved *)
  let saved = !Config.stall_threshold in
  Config.stall_threshold := Some 0.02;
  Fun.protect
    ~finally:(fun () -> Config.stall_threshold := saved)
    (fun () ->
      let conn, a, b = sync_conn Config.new_jit in
      let receiver =
        Task.spawn (fun () ->
            ignore (Port.recv (Connector.inport conn b)))
      in
      Thread.delay 0.1;
      (* release the blocked recv; it completed fine, but stalled first *)
      Port.send (Connector.outport conn a) Value.unit;
      Task.join receiver;
      Alcotest.(check bool) "watchdog tripped" true
        ((Connector.stats conn).Connector.st_stalls > 0);
      match Connector.last_stall conn with
      | None -> Alcotest.fail "expected a recorded stall report"
      | Some r ->
        Alcotest.(check bool) "waited at least the threshold" true
          (r.Engine.sr_waited >= 0.02))

let cross_region_poison_propagates () =
  (* partitioned pipeline: poisoning one region's engine must release tasks
     blocked on the other region, poison message intact *)
  let a = v "a" and x = v "x" and y = v "y" and b = v "b" in
  let autos =
    [
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ x ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ x ] ~heads:[ y ];
      Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ y ] ~heads:[ b ];
    ]
  in
  let conn =
    mk_conn ~config:Config.new_partitioned ~compile:false autos ~sources:[| a |]
      ~sinks:[| b |]
  in
  Alcotest.(check bool) "actually partitioned" true (Connector.nregions conn > 1);
  let released = Atomic.make None in
  let blocked =
    Task.spawn (fun () ->
        match Port.recv (Connector.inport conn b) with
        | exception Engine.Poisoned msg -> Atomic.set released (Some msg)
        | _ -> ())
  in
  Thread.delay 0.05;
  (* poison whichever engine comes first; propagation must reach the peer
     region that owns the blocked recv *)
  Engine.poison (List.hd (Connector.engines conn)) "region down";
  Task.join blocked;
  Alcotest.(check (option string)) "blocked task released, reason crossed the cut"
    (Some "region down") (Atomic.get released)

let tests =
  [
    ("sync rendezvous (all configs)", `Quick, sync_rendezvous);
    ("fifo decouples", `Quick, fifo_decouples);
    ("fifo order (all configs)", `Quick, fifo_order_preserved);
    ("poison unblocks", `Quick, poison_unblocks);
    ("send after poison", `Quick, send_after_poison_raises);
    ("unknown boundary rejected", `Quick, unknown_boundary_vertex_rejected);
    ("compile failure on budget", `Quick, compile_failure_on_budget);
    ("bounded cache recomputes", `Quick, bounded_cache_recomputes);
    ("expansion blow-up poisons", `Quick, expansion_blowup_poisons);
    ("partition recognizes fifo1", `Quick, partition_recognizes_fifo);
    ("partition splits pipeline", `Quick, partition_splits_pipeline);
    ("partition keeps boundary fifo", `Quick, partition_boundary_fifo_not_cut);
    ("partition cuts fifo chain", `Quick, partition_fifo_chain_alternates);
    ("partition classifies shapes", `Quick, partition_classifies_shapes);
    ("partition cuts full fifo", `Quick, partition_cuts_full_fifo);
    ("partition collapses chain", `Quick, partition_collapses_chain);
    ("partition cuts modal medium", `Quick, partition_cuts_modal_medium);
    ("partition relay fan-out", `Quick, partition_relay_fanout);
    ("partitioned execution matches", `Quick, partitioned_execution_matches);
    ("steps agree across composers", `Quick, steps_agree_across_composers);
    ("gated source", `Quick, gates_direct);
    ("try_step after poison", `Quick, try_step_after_poison_raises);
    ("debug_dump survives budget", `Quick, debug_dump_survives_budget);
    ("kick_all cyclic ring", `Quick, kick_all_cyclic_ring);
    ("firing-loop counters", `Quick, firing_loop_counters);
    ("fifon capacity and order", `Quick, fifon_capacity_and_order);
    ("fifon from DSL", `Quick, fifon_from_dsl);
    ("shift-lossy keeps newest", `Quick, shift_lossy_keeps_newest);
    ("overflow-lossy keeps oldest", `Quick, overflow_lossy_keeps_oldest);
    ("recv deadline times out", `Quick, recv_deadline_times_out);
    ("send deadline times out", `Quick, send_deadline_times_out);
    ("timed-out op is withdrawn", `Quick, timed_out_op_is_withdrawn);
    ("stall watchdog records", `Quick, stall_watchdog_records);
    ("cross-region poison propagates", `Quick, cross_region_poison_propagates);
  ]
