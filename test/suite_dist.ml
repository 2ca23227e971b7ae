(* The shard fabric's wire layer: value codec roundtrips, the loopback
   socket helpers, EINTR restarts and malformed-frame hardening. *)

module Wire = Preo_dist.Wire

open Preo_support
open Preo_runtime

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

(* --- loopback sockets ------------------------------------------------------------ *)

let bridged_over_tcp () =
  (* port 0: the kernel assigns a free port, so parallel test runs cannot
     collide on a hardcoded number *)
  let listener = Wire.listen_local ~port:0 () in
  let port = Wire.bound_port listener in
  (* Nagle must be off on both ends: with it on, every small frame sent
     while the previous one is unacknowledged waits ~40 ms for the peer's
     delayed ACK *)
  let nodelay what fd =
    Alcotest.(check bool) (what ^ " has TCP_NODELAY") true
      (Unix.getsockopt fd Unix.TCP_NODELAY)
  in
  (* the acceptor task only accepts; its fds are checked after the join,
     since Alcotest's formatter is not safe to share across threads *)
  let accepted = ref [] in
  let acceptor =
    Task.spawn (fun () ->
        let fd1 = Wire.accept_one listener in
        let fd2 = Wire.accept_one listener in
        accepted := [ fd1; fd2 ])
  in
  let c1 = Wire.connect_local ~retries:3 ~port () in
  let c2 = Wire.connect_local ~retries:3 ~port () in
  Task.join acceptor;
  nodelay "connected fd" c1;
  nodelay "connected fd" c2;
  List.iter (nodelay "accepted fd") !accepted;
  (* one frame over each connection; which accepted fd pairs with which
     connect is the kernel's choice, so read whichever fd is ready *)
  let read_ready () =
    match Unix.select !accepted [] [] 5.0 with
    | fd :: _, _, _ -> Wire.read_shard fd
    | [], _, _ -> Alcotest.fail "no frame arrived"
  in
  let msg =
    Wire.Sh_batch
      { ch = 3; base = 7; items = [ Value.pair (Value.int 1) (Value.str "tcp") ] }
  in
  Wire.write_shard c1 msg;
  Alcotest.(check bool) "frame across TCP" true (read_ready () = Some msg);
  Wire.write_shard c2 Wire.Sh_close;
  Alcotest.(check bool) "second connection carries its own frame" true
    (read_ready () = Some Wire.Sh_close);
  List.iter Unix.close (c1 :: c2 :: listener :: !accepted)

(* --- fault paths --------------------------------------------------------------- *)

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
      let msg =
        Wire.Sh_batch
          {
            ch = 1;
            base = 42;
            items = [ Value.int 42; Value.list [ Value.str "eintr" ] ];
          }
      in
      let frame = Buffer.create 64 in
      Wire.encode_shard frame msg;
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
      let got = Wire.read_shard rd in
      Task.join writer;
      Alcotest.(check bool) "frame intact" true (got = Some msg);
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
    ("bridged over TCP", `Quick, bridged_over_tcp);
    ("EINTR mid-frame does not corrupt framing", `Quick, eintr_mid_frame);
    ("malformed frames rejected", `Quick, malformed_frames_rejected);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_wire
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_decode_fuzz
