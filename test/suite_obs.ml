(* Observability: trace rings, Chrome trace export and metrics.

   Rings are process-global, so every test starts from [Obs.reset] and turns
   tracing off again on exit. The partition "bridges" ring is cached by its
   module after first use, so the single test that exercises that path is
   also the only one that resets around it. *)

module Obs = Preo_obs.Obs
module Metrics = Preo_obs.Metrics
module Json = Preo_obs.Json

open Preo_support
open Preo_automata
open Preo_runtime

let v = Vertex.fresh
let prim = Preo_reo.Prim.build

let with_tracing f =
  Obs.reset ();
  Metrics.reset ();
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.set_tracing false) f

(* Drive [n] values through a sync channel; returns the connector (already
   poisoned) so callers can export its trace. *)
let traced_sync_run n =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  Task.run_all
    [
      (fun () ->
        for i = 1 to n do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to n do
          ignore (Port.recv (Connector.inport conn b))
        done);
    ];
  Connector.poison conn "done";
  conn

let find_ring name =
  List.find_opt (fun r -> String.equal (Obs.ring_name r) name) (Obs.rings ())

let count_kind k ring =
  List.length (List.filter (fun e -> e.Obs.e_kind = k) (Obs.events ring))

(* --- the flag ------------------------------------------------------------- *)

let tracing_off_records_nothing () =
  Obs.reset ();
  Metrics.reset ();
  Obs.set_tracing false;
  ignore (traced_sync_run 10);
  Alcotest.(check int) "no rings registered" 0 (List.length (Obs.rings ()));
  Alcotest.(check int) "no metric increments" 0
    (Metrics.counter_value (Metrics.counter "transitions_fired_total"))

(* --- engine events -------------------------------------------------------- *)

let traced_run_records_engine_events () =
  with_tracing (fun () ->
      let _conn = traced_sync_run 10 in
      match find_ring "engine0" with
      | None -> Alcotest.fail "engine ring was not registered"
      | Some r ->
        Alcotest.(check bool) "fired at least 10 times" true
          (count_kind Obs.Fire r >= 10);
        Alcotest.(check bool) "submits recorded" true
          (count_kind Obs.Submit_send r >= 10 && count_kind Obs.Submit_recv r >= 10);
        Alcotest.(check bool) "completions recorded" true
          (count_kind Obs.Complete_send r >= 10 && count_kind Obs.Complete_recv r >= 10);
        Alcotest.(check int) "poison recorded" 1 (count_kind Obs.Poison r);
        Alcotest.(check bool) "recorded counter" true (Obs.recorded r > 0);
        Alcotest.(check int) "nothing overwritten" 0 (Obs.dropped r))

(* --- Chrome trace export --------------------------------------------------- *)

(* The exported JSON must parse, expose the correlation ID, and keep each
   engine lane's events in non-decreasing timestamp order. *)
let chrome_trace_parses_and_lanes_ordered () =
  with_tracing (fun () ->
      let conn = traced_sync_run 10 in
      let json = Json.parse_exn (Connector.chrome_trace conn) in
      let events =
        match Json.member "traceEvents" json with
        | Some a -> Json.to_list a
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (events <> []);
      (match Json.member "otherData" json with
       | Some od ->
         Alcotest.(check bool) "correlation exported" true
           (Json.member "correlation" od <> None)
       | None -> Alcotest.fail "no otherData");
      let field name ev =
        match Json.member name ev with
        | Some x -> x
        | None -> Alcotest.fail (Printf.sprintf "event missing %S" name)
      in
      let num name ev = Option.get (Json.to_float (field name ev)) in
      (* group real (non-metadata) events of ring lanes by tid, in array
         order; ring lanes live at tid >= 900000 *)
      let lanes = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          let ph = Option.get (Json.to_string (field "ph" ev)) in
          let tid = int_of_float (num "tid" ev) in
          if (not (String.equal ph "M")) && tid >= 900_000 then
            Hashtbl.replace lanes tid (num "ts" ev :: (try Hashtbl.find lanes tid with Not_found -> [])))
        events;
      Alcotest.(check bool) "at least one engine lane" true
        (Hashtbl.length lanes > 0);
      Hashtbl.iter
        (fun tid rev_ts ->
          let ts = List.rev rev_ts in
          Alcotest.(check bool)
            (Printf.sprintf "lane %d has events" tid)
            true (ts <> []);
          let rec ordered = function
            | a :: (b :: _ as rest) -> a <= b && ordered rest
            | _ -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "lane %d timestamps non-decreasing" tid)
            true (ordered ts))
        lanes)

(* --- partitioned runs ------------------------------------------------------ *)

let partitioned_run_has_lane_per_engine () =
  with_tracing (fun () ->
      let a = v "a" and m1 = v "m1" and m2 = v "m2" and b = v "b" in
      let conn =
        Connector.create ~config:Config.new_partitioned ~sources:[| a |]
          ~sinks:[| b |]
          [
            prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m1 ];
            prim Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
            prim Preo_reo.Prim.Fifo1 ~tails:[ m2 ] ~heads:[ b ];
          ]
      in
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
      Connector.poison conn "done";
      Alcotest.(check bool) "actually partitioned" true
        (Connector.nregions conn > 1);
      let engine_rings =
        List.filter
          (fun r -> String.starts_with ~prefix:"engine" (Obs.ring_name r))
          (Obs.rings ())
      in
      Alcotest.(check bool) "one ring per region engine" true
        (List.length engine_rings >= Connector.nregions conn);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Obs.ring_label r ^ " recorded events")
            true
            (Obs.events r <> []))
        engine_rings;
      match find_ring "bridges" with
      | None -> Alcotest.fail "no partition-bridge ring"
      | Some r ->
        Alcotest.(check bool) "slot puts seen" true (count_kind Obs.Slot_put r >= 10);
        Alcotest.(check bool) "slot takes seen" true (count_kind Obs.Slot_take r >= 10))

(* --- metrics ---------------------------------------------------------------- *)

let metrics_capture_traced_run () =
  with_tracing (fun () ->
      ignore (traced_sync_run 10);
      Alcotest.(check bool) "fires counted" true
        (Metrics.counter_value (Metrics.counter "transitions_fired_total") >= 10);
      Alcotest.(check bool) "sends counted" true
        (Metrics.counter_value (Metrics.counter "port_sends_total") >= 10);
      Alcotest.(check bool) "port waits observed" true
        (Metrics.histogram_count (Metrics.histogram "port_wait_seconds") >= 10);
      let prom = Metrics.to_prometheus () in
      let has needle =
        let nl = String.length needle and pl = String.length prom in
        let rec go i = i + nl <= pl && (String.sub prom i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "prometheus counter line" true
        (has "preo_transitions_fired_total");
      Alcotest.(check bool) "prometheus histogram buckets" true
        (has "preo_port_wait_seconds_bucket");
      (* the JSON serialization must itself be valid JSON *)
      ignore (Json.parse_exn (Metrics.to_json ())))

let tests =
  [
    ("tracing off records nothing", `Quick, tracing_off_records_nothing);
    ("traced run records engine events", `Quick, traced_run_records_engine_events);
    ("chrome trace parses, lanes ordered", `Quick, chrome_trace_parses_and_lanes_ordered);
    ("partitioned run has lane per engine", `Quick, partitioned_run_has_lane_per_engine);
    ("metrics capture traced run", `Quick, metrics_capture_traced_run);
  ]
