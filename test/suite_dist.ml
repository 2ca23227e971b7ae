(* Distributed port bridges: wire format roundtrips, socketpair and TCP
   bridges with real connectors behind them. *)

module Wire = Preo_dist.Wire
module Bridge = Preo_dist.Bridge

open Preo_support
open Preo_automata
open Preo_runtime

let v = Vertex.fresh
let prim = Preo_reo.Prim.build

(* --- wire format ------------------------------------------------------------ *)

let roundtrip_value x =
  let buf = Buffer.create 64 in
  Wire.encode_value buf x;
  let pos = ref 0 in
  let y = Wire.decode_value (Buffer.to_bytes buf) ~pos in
  Alcotest.(check bool)
    (Format.asprintf "roundtrip %a" Value.pp x)
    true (Value.equal x y);
  Alcotest.(check int) "consumed all" (Buffer.length buf) !pos

let wire_values () =
  List.iter roundtrip_value
    [
      Value.unit;
      Value.bool true;
      Value.bool false;
      Value.int 0;
      Value.int (-12345678901);
      Value.int max_int;
      Value.float 3.14159;
      Value.float (-0.0);
      Value.float infinity;
      Value.str "";
      Value.str "hello \x00 world";
      Value.pair (Value.int 1) (Value.str "x");
      Value.list [ Value.int 1; Value.list [ Value.unit ]; Value.float 2.5 ];
      Value.float_array [| 1.0; -2.5; 1e300 |];
      Value.float_array [||];
    ]

let qcheck_wire =
  let open QCheck in
  let rec gen_value depth =
    let open Gen in
    if depth = 0 then
      oneof
        [
          return Value.unit;
          map Value.bool bool;
          map Value.int int;
          map Value.float (float_range (-1e6) 1e6);
          map Value.str string_small;
        ]
    else
      oneof
        [
          map Value.int int;
          map2 Value.pair (gen_value (depth - 1)) (gen_value (depth - 1));
          map Value.list (list_size (int_range 0 4) (gen_value (depth - 1)));
          map
            (fun l -> Value.float_array (Array.of_list l))
            (list_size (int_range 0 6) (float_range (-1e9) 1e9));
        ]
  in
  [
    QCheck.Test.make ~name:"wire roundtrip (random values)" ~count:300
      (QCheck.make ~print:Value.to_string (gen_value 3))
      (fun x ->
        let buf = Buffer.create 64 in
        Wire.encode_value buf x;
        let pos = ref 0 in
        Value.equal x (Wire.decode_value (Buffer.to_bytes buf) ~pos));
  ]

(* --- socketpair bridge -------------------------------------------------------- *)

let bridged_fifo_over_socketpair () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim (Preo_reo.Prim.Fifo_n 4) ~tails:[ a ] ~heads:[ b ] ]
  in
  let s_out, c_out = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let s_in, c_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_out = Bridge.serve_outport (Connector.outport conn a) s_out in
  let server_in = Bridge.serve_inport (Connector.inport conn b) s_in in
  let rout = Bridge.remote_outport c_out in
  let rin = Bridge.remote_inport c_in in
  let got = ref [] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 20 do
          Bridge.send rout (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 20 do
          got := Value.to_int (Bridge.recv rin) :: !got
        done);
    ];
  Alcotest.(check (list int)) "fifo order over the wire"
    (List.init 20 (fun i -> i + 1))
    (List.rev !got);
  Bridge.close_remote c_out;
  Bridge.close_remote c_in;
  Thread.join server_out;
  Thread.join server_in;
  Connector.poison conn "done"

let bridged_sync_blocks_until_partner () =
  (* A sync channel over two bridges: the remote send must not complete
     before the remote receive is in flight. *)
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  let s_out, c_out = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let s_in, c_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let _srv1 = Bridge.serve_outport (Connector.outport conn a) s_out in
  let _srv2 = Bridge.serve_inport (Connector.inport conn b) s_in in
  let rout = Bridge.remote_outport c_out in
  let rin = Bridge.remote_inport c_in in
  let send_done = Atomic.make false in
  let sender =
    Task.spawn (fun () ->
        Bridge.send rout (Value.str "x");
        Atomic.set send_done true)
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "send still blocked" false (Atomic.get send_done);
  Alcotest.(check string) "received" "x" (Value.to_str (Bridge.recv rin));
  Task.join sender;
  Alcotest.(check bool) "send completed" true (Atomic.get send_done);
  Bridge.close_remote c_out;
  Bridge.close_remote c_in;
  Connector.poison conn "done"

let bridged_over_tcp () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] ]
  in
  (* port 0: the kernel assigns a free port, so parallel test runs cannot
     collide on a hardcoded number *)
  let listener = Bridge.listen_local ~port:0 () in
  let port = Bridge.bound_port listener in
  (* Nagle must be off on both ends: with it on, every small frame sent
     while the previous one is unacknowledged waits ~40 ms for the peer's
     delayed ACK *)
  let nodelay what fd =
    Alcotest.(check bool) (what ^ " has TCP_NODELAY") true
      (Unix.getsockopt fd Unix.TCP_NODELAY)
  in
  let acceptor =
    Task.spawn (fun () ->
        let fd1 = Bridge.accept_one listener in
        nodelay "accepted fd" fd1;
        ignore (Bridge.serve_outport (Connector.outport conn a) fd1);
        let fd2 = Bridge.accept_one listener in
        nodelay "accepted fd" fd2;
        ignore (Bridge.serve_inport (Connector.inport conn b) fd2))
  in
  let c1 = Bridge.connect_local ~retries:3 ~port () in
  let c2 = Bridge.connect_local ~retries:3 ~port () in
  nodelay "connected fd" c1;
  nodelay "connected fd" c2;
  Task.join acceptor;
  let rout = Bridge.remote_outport c1 and rin = Bridge.remote_inport c2 in
  Bridge.send rout (Value.pair (Value.int 1) (Value.str "tcp"));
  let got = Bridge.recv rin in
  Alcotest.(check bool) "value across TCP" true
    (Value.equal got (Value.pair (Value.int 1) (Value.str "tcp")));
  Bridge.close_remote c1;
  Bridge.close_remote c2;
  Unix.close listener;
  Connector.poison conn "done"

let poisoned_connector_reported_remotely () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  let s_out, c_out = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let _srv = Bridge.serve_outport (Connector.outport conn a) s_out in
  let rout = Bridge.remote_outport c_out in
  let blocked =
    Task.spawn (fun () ->
        match Bridge.send rout Value.unit with
        | exception Engine.Poisoned msg ->
          (* the wire prefix must be stripped: a re-bridge hop would
             otherwise stack "poisoned: " prefixes *)
          Alcotest.(check string) "original reason, no prefix" "remote test" msg
        | () -> Alcotest.fail "expected remote poisoning")
  in
  Thread.delay 0.05;
  Connector.poison conn "remote test";
  Task.join blocked;
  Bridge.close_remote c_out

(* --- fault paths --------------------------------------------------------------- *)

(* A recoverable error response (wrong-direction request) must not end the
   serving session: the next well-formed request on the same descriptor
   still gets served. *)
let serve_survives_recoverable_error () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim (Preo_reo.Prim.Fifo_n 2) ~tails:[ a ] ~heads:[ b ] ]
  in
  Port.send (Connector.outport conn a) (Value.int 7);
  let s_in, c_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let srv = Bridge.serve_inport (Connector.inport conn b) s_in in
  (* wrong direction first: an inport bridge cannot take sends *)
  Wire.write_request c_in (Wire.Req_send (Value.int 1));
  (match Wire.read_response c_in with
   | Wire.Resp_error msg ->
     Alcotest.(check bool) "direction error" true
       (String.length msg > 0 && not (String.starts_with ~prefix:"poisoned:" msg))
   | _ -> Alcotest.fail "expected an error response");
  (* same session, now a correct request *)
  Wire.write_request c_in Wire.Req_recv;
  (match Wire.read_response c_in with
   | Wire.Resp_value x ->
     Alcotest.(check int) "served after error" 7 (Value.to_int x)
   | _ -> Alcotest.fail "session should have survived the error");
  Bridge.close_remote c_in;
  Thread.join srv;
  Connector.poison conn "done"

(* Killing the peer mid-RPC must surface as Bridge_down, not a hung thread
   or an unhandled Unix_error. *)
let peer_killed_mid_rpc () =
  let s, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rin = Bridge.remote_inport c in
  let t0 = Unix.gettimeofday () in
  let killer =
    Task.spawn (fun () ->
        Thread.delay 0.05;
        Unix.close s)
  in
  (match Bridge.recv rin with
   | exception Bridge.Bridge_down _ -> ()
   | _ -> Alcotest.fail "expected Bridge_down");
  Task.join killer;
  Alcotest.(check bool) "failed promptly" true (Unix.gettimeofday () -. t0 < 2.0);
  try Unix.close c with _ -> ()

(* A peer that is alive but never answers must trip the RPC timeout. *)
let rpc_timeout_expires () =
  let a = v "a" and b = v "b" in
  let conn =
    Connector.create ~sources:[| a |] ~sinks:[| b |]
      [ prim Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ] ]
  in
  let s_in, c_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* serving a recv on a sync with no sender: blocks indefinitely *)
  let _srv = Bridge.serve_inport (Connector.inport conn b) s_in in
  let rin = Bridge.remote_inport ~timeout:0.1 c_in in
  let t0 = Unix.gettimeofday () in
  (match Bridge.recv rin with
   | exception Bridge.Bridge_down msg ->
     Alcotest.(check bool) "timeout message" true
       (String.length msg > 0)
   | _ -> Alcotest.fail "expected Bridge_down on timeout");
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "within 2x the timeout" true (waited < 0.5);
  Connector.poison conn "done";
  (try Unix.close c_in with _ -> ())

(* Frame reads must restart on EINTR instead of corrupting the framing: an
   interval timer peppers the process with SIGALRM while frames trickle in
   byte by byte. *)
let eintr_mid_frame () =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let it =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.002; it_value = 0.002 }
  in
  ignore it;
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      let rd, wr = Unix.pipe () in
      let payload = Value.list [ Value.int 42; Value.str "eintr" ] in
      let buf = Buffer.create 64 in
      Wire.encode_value buf payload;
      let frame = Buffer.create 64 in
      Buffer.add_char frame 'V';
      Buffer.add_buffer frame buf;
      let writer =
        Task.spawn (fun () ->
            (* one byte at a time, slowly: reads in between see partial
               frames and get interrupted by the timer *)
            let header = Buffer.create 8 in
            let body = Buffer.to_bytes frame in
            let n = Bytes.length body in
            for shift = 0 to 7 do
              Buffer.add_char header
                (Char.chr ((n lsr (8 * shift)) land 0xFF))
            done;
            let all = Bytes.cat (Buffer.to_bytes header) body in
            let rec put ch =
              (* the writer gets peppered by the same timer: restart its
                 own syscalls too *)
              match Unix.write wr (Bytes.make 1 ch) 0 1 with
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> put ch
            in
            Bytes.iter
              (fun ch ->
                put ch;
                try Thread.delay 0.003 with _ -> ())
              all)
      in
      let got = Wire.read_response rd in
      Task.join writer;
      (match got with
       | Wire.Resp_value x ->
         Alcotest.(check bool) "payload intact" true (Value.equal x payload)
       | _ -> Alcotest.fail "expected the value response");
      Unix.close rd;
      Unix.close wr)

(* --- malformed-frame hardening ------------------------------------------------- *)

let decode_must_fail name bytes =
  let pos = ref 0 in
  match Wire.decode_value bytes ~pos with
  | exception Failure msg ->
    Alcotest.(check bool)
      (name ^ ": wire-prefixed failure")
      true
      (String.starts_with ~prefix:"wire:" msg)
  | _ -> Alcotest.fail (name ^ ": malformed frame decoded successfully")

let malformed_frames_rejected () =
  let le_int64 n =
    let b = Bytes.create 8 in
    for i = 0 to 7 do
      Bytes.set b i (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xFFL)))
    done;
    b
  in
  let tagged tag len = Bytes.cat (Bytes.make 1 tag) (le_int64 len) in
  decode_must_fail "negative string length" (tagged 's' (-4L));
  decode_must_fail "over-frame string length" (tagged 's' 1_000_000L);
  decode_must_fail "negative list length" (tagged 'l' (-1L));
  decode_must_fail "over-frame list length" (tagged 'l' 1_000_000_000L);
  decode_must_fail "negative float-array length" (tagged 'a' (-8L));
  decode_must_fail "huge float-array length"
    (tagged 'a' 1_099_511_627_776L (* would be an 8TB allocation *));
  decode_must_fail "truncated int" (Bytes.of_string "i\x01\x02");
  decode_must_fail "truncated pair" (Bytes.of_string "pi");
  decode_must_fail "empty frame" Bytes.empty;
  decode_must_fail "bad tag" (Bytes.of_string "z")

let qcheck_decode_fuzz =
  let open QCheck in
  [
    QCheck.Test.make ~name:"decode random frames: wire error or clean value"
      ~count:2000
      (QCheck.make
         ~print:(fun s -> Printf.sprintf "%S" s)
         Gen.(string_size ~gen:char (int_range 0 64)))
      (fun s ->
        let pos = ref 0 in
        match Wire.decode_value (Bytes.of_string s) ~pos with
        | _ -> true
        | exception Failure msg -> String.starts_with ~prefix:"wire:" msg
        (* anything else (Invalid_argument, Out_of_memory, ...) fails *));
  ]

let tests =
  [
    ("wire value roundtrips", `Quick, wire_values);
    ("bridged fifo over socketpair", `Quick, bridged_fifo_over_socketpair);
    ("bridged sync blocks until partner", `Quick, bridged_sync_blocks_until_partner);
    ("bridged over TCP", `Quick, bridged_over_tcp);
    ("remote poisoning surfaces", `Quick, poisoned_connector_reported_remotely);
    ("serve survives recoverable error", `Quick, serve_survives_recoverable_error);
    ("peer killed mid-RPC raises Bridge_down", `Quick, peer_killed_mid_rpc);
    ("RPC timeout expires as Bridge_down", `Quick, rpc_timeout_expires);
    ("EINTR mid-frame does not corrupt framing", `Quick, eintr_mid_frame);
    ("malformed frames rejected", `Quick, malformed_frames_rejected);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_wire
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_decode_fuzz
