(* Deterministic simulator + nonblocking port operations. *)

module Sim = Preo_runtime.Sim

open Preo_support
open Preo_automata
open Preo_runtime

let v = Vertex.fresh
let prim = Preo_reo.Prim.build
let of_pp = Alcotest.of_pp

let fifo_roundtrip () =
  let a = v "a" and b = v "b" in
  let sim =
    Sim.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] ]
  in
  Alcotest.(check bool) "stuck initially" true (Sim.step sim = None);
  Sim.offer sim a (Value.int 7);
  (match Sim.step sim with
   | Some ev ->
     Alcotest.(check bool) "consumed a" true (ev.Sim.ev_consumed = [ a ]);
     Alcotest.(check bool) "nothing delivered" true (ev.Sim.ev_delivered = [])
   | None -> Alcotest.fail "accept should fire");
  Sim.demand sim b;
  (match Sim.step sim with
   | Some ev ->
     Alcotest.(check bool) "delivered 7" true
       (ev.Sim.ev_delivered = [ (b, Value.int 7) ])
   | None -> Alcotest.fail "emit should fire");
  Alcotest.(check int) "two steps" 2 (Sim.steps sim)

(* Sim fires through the runtime's own step: compiled closures by default,
   the interpreted walk when compiled dispatch is switched off. *)
let fires_like_the_runtime () =
  let saved = !Config.compile in
  Fun.protect
    ~finally:(fun () -> Config.compile := saved)
    (fun () ->
      List.iter
        (fun compile ->
          Config.compile := Some compile;
          let a = v "a" and b = v "b" in
          let sim =
            Sim.create ~sources:[| a |] ~sinks:[| b |]
              [ prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] ]
          in
          for i = 1 to 3 do
            Sim.offer sim a (Value.int i);
            Sim.demand sim b
          done;
          Alcotest.(check int) "six steps" 6 (List.length (Sim.run sim));
          Alcotest.(check (pair int int))
            (Printf.sprintf "compiled/interpreted fires (compile=%b)" compile)
            (if compile then (6, 0) else (0, 6))
            (Sim.compiled_fires sim, Sim.interp_fires sim))
        [ true; false ])

let ordered_merger_trace () =
  (* Script a full round of the paper's connector and check the delivery
     order deterministically. *)
  let e = Preo_connectors.Catalog.find "ordered_merger" in
  let c = Preo_connectors.Catalog.compiled e in
  let bindings, sources, sinks =
    Preo_lang.Eval.boundary_of_def c.Preo.def ~lengths:(e.lengths 3)
  in
  let venv = Preo_lang.Eval.venv ~ints:[] ~arrays:bindings in
  let mediums = Preo_lang.Template.instantiate c.Preo.template venv in
  let sim = Sim.create ~sources ~sinks mediums in
  (* all three producers offer; consumer demands all three slots *)
  Array.iteri (fun i s -> Sim.offer sim s (Value.int (100 + i))) sources;
  Array.iter (fun s -> Sim.demand sim s) sinks;
  let events = Sim.run sim in
  let delivered = List.concat_map (fun ev -> ev.Sim.ev_delivered) events in
  Alcotest.(check (list int)) "rank order"
    [ 100; 101; 102 ]
    (List.map (fun (_, x) -> Value.to_int x) delivered)

let random_policy_still_correct () =
  (* The sequencer has one enabled transition at a time: any policy yields
     the same trace. *)
  let e = Preo_connectors.Catalog.find "sequencer" in
  let c = Preo_connectors.Catalog.compiled e in
  let run policy =
    let bindings, sources, sinks =
      Preo_lang.Eval.boundary_of_def c.Preo.def ~lengths:(e.lengths 3)
    in
    let venv = Preo_lang.Eval.venv ~ints:[] ~arrays:bindings in
    let mediums = Preo_lang.Template.instantiate c.Preo.template venv in
    let sim = Sim.create ~policy ~sources ~sinks mediums in
    for _ = 1 to 2 do
      Array.iter (fun s -> Sim.demand sim s) sinks
    done;
    List.map
      (fun ev -> List.length ev.Sim.ev_delivered)
      (Sim.run sim)
  in
  Alcotest.(check (list int)) "same shape" (run Sim.First) (run (Sim.Random 5));
  Alcotest.(check int) "6 grants" 6 (List.length (run Sim.First))

let sim_matches_engine_steps () =
  (* For a deterministic pipeline the simulator and the engine agree on the
     number of global steps. *)
  let build () =
    let a = v "a" and m = v "m" and b = v "b" in
    ( [
        prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m ];
        prim Preo_reo.Prim.Fifo1 ~tails:[ m ] ~heads:[ b ];
      ],
      a, b )
  in
  let mediums, a, b = build () in
  let sim = Sim.create ~sources:[| a |] ~sinks:[| b |] mediums in
  for i = 1 to 5 do Sim.offer sim a (Value.int i) done;
  for _ = 1 to 5 do Sim.demand sim b done;
  ignore (Sim.run sim);
  let mediums2, a2, b2 = build () in
  let conn = Connector.create ~sources:[| a2 |] ~sinks:[| b2 |] mediums2 in
  Task.run_all
    [
      (fun () -> for i = 1 to 5 do Port.send (Connector.outport conn a2) (Value.int i) done);
      (fun () -> for _ = 1 to 5 do ignore (Port.recv (Connector.inport conn b2)) done);
    ];
  Alcotest.(check int) "same steps" (Connector.steps conn) (Sim.steps sim)

(* --- nonblocking ops ------------------------------------------------------ *)

let try_ops_on_fifo () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] ]
  in
  let o = Connector.outport conn a and i = Connector.inport conn b in
  Alcotest.(check (option (of_pp Value.pp))) "empty: no recv" None (Port.try_recv i);
  Alcotest.(check bool) "send into empty" true (Port.try_send o (Value.int 1));
  Alcotest.(check bool) "full: send refused" false (Port.try_send o (Value.int 2));
  Alcotest.(check (option (of_pp Value.pp))) "recv the one" (Some (Value.int 1))
    (Port.try_recv i);
  Alcotest.(check (option (of_pp Value.pp))) "empty again" None (Port.try_recv i);
  Alcotest.(check int) "2 steps" 2 (Connector.steps conn)

let try_send_on_sync_needs_partner () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  let o = Connector.outport conn a and i = Connector.inport conn b in
  Alcotest.(check bool) "no partner: refused" false (Port.try_send o Value.unit);
  (* with a blocked receiver the nonblocking send completes *)
  let recvd = Task.spawn (fun () -> ignore (Port.recv i)) in
  Thread.delay 0.02;
  Alcotest.(check bool) "partner waiting: accepted" true
    (Port.try_send o Value.unit);
  Task.join recvd

let withdrawn_offer_leaves_no_residue () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  let o = Connector.outport conn a and i = Connector.inport conn b in
  Alcotest.(check bool) "refused" false (Port.try_send o (Value.int 1));
  (* the withdrawn offer must not satisfy a later receive *)
  Alcotest.(check (option (of_pp Value.pp))) "no ghost datum" None
    (Port.try_recv i);
  Alcotest.(check int) "no steps" 0 (Connector.steps conn)

let tests =
  [
    ("sim: fifo roundtrip", `Quick, fifo_roundtrip);
    ("sim: ordered merger trace", `Quick, ordered_merger_trace);
    ("sim: fires through compiled dispatch", `Quick, fires_like_the_runtime);
    ("sim: policies agree when deterministic", `Quick, random_policy_still_correct);
    ("sim matches engine step count", `Quick, sim_matches_engine_steps);
    ("try ops on fifo", `Quick, try_ops_on_fifo);
    ("try send on sync needs partner", `Quick, try_send_on_sync_needs_partner);
    ("withdrawn offer leaves no residue", `Quick, withdrawn_offer_leaves_no_residue);
  ]
