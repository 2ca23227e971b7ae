open Preo_support

(* Writing to a peer that already closed must surface as EPIPE, not kill the
   process: shard senders write to sockets whose worker may have died. *)
let () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

(* --- Value encoding ------------------------------------------------------- *)

let add_int64 buf (x : int64) =
  for shift = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * shift)) 0xFFL)))
  done

let add_int buf n = add_int64 buf (Int64.of_int n)

let get_int64 b ~pos =
  let x = ref 0L in
  for shift = 7 downto 0 do
    x :=
      Int64.logor
        (Int64.shift_left !x 8)
        (Int64.of_int (Char.code (Bytes.get b (!pos + shift))))
  done;
  pos := !pos + 8;
  !x

let get_int b ~pos = Int64.to_int (get_int64 b ~pos)

let rec encode_value buf (v : Value.t) =
  match v with
  | Value.Unit -> Buffer.add_char buf 'u'
  | Value.Bool b ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Int n ->
    Buffer.add_char buf 'i';
    add_int buf n
  | Value.Float f ->
    Buffer.add_char buf 'f';
    add_int64 buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf 's';
    add_int buf (String.length s);
    Buffer.add_string buf s
  | Value.Pair (a, b) ->
    Buffer.add_char buf 'p';
    encode_value buf a;
    encode_value buf b
  | Value.List l ->
    Buffer.add_char buf 'l';
    add_int buf (List.length l);
    List.iter (encode_value buf) l
  | Value.Float_array a ->
    Buffer.add_char buf 'a';
    add_int buf (Array.length a);
    Array.iter (fun x -> add_int64 buf (Int64.bits_of_float x)) a

(* Frames can come from untrusted peers: every length and every read is
   bounds-checked against the frame, so malformed input fails with a
   [Failure "wire: ..."] instead of escaping as [Invalid_argument] (negative
   or out-of-frame index) or [Out_of_memory] (absurd allocation size). *)
let need b pos n =
  if n < 0 || n > Bytes.length b - !pos then
    failwith
      (Printf.sprintf "wire: malformed frame (need %d bytes at %d of %d)" n
         !pos (Bytes.length b))

let rec decode_value b ~pos =
  need b pos 1;
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | 'u' -> Value.Unit
  | 'b' ->
    need b pos 1;
    let c = Bytes.get b !pos in
    incr pos;
    Value.Bool (c <> '\000')
  | 'i' ->
    need b pos 8;
    Value.Int (get_int b ~pos)
  | 'f' ->
    need b pos 8;
    Value.Float (Int64.float_of_bits (get_int64 b ~pos))
  | 's' ->
    need b pos 8;
    let n = get_int b ~pos in
    need b pos n;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    Value.Str s
  | 'p' ->
    let a = decode_value b ~pos in
    let b' = decode_value b ~pos in
    Value.Pair (a, b')
  | 'l' ->
    need b pos 8;
    let n = get_int b ~pos in
    (* each element takes at least its one tag byte *)
    need b pos n;
    Value.List (List.init n (fun _ -> decode_value b ~pos))
  | 'a' ->
    need b pos 8;
    let n = get_int b ~pos in
    if n < 0 || n > (Bytes.length b - !pos) / 8 then
      failwith (Printf.sprintf "wire: malformed float-array length %d" n);
    Value.Float_array
      (Array.init n (fun _ -> Int64.float_of_bits (get_int64 b ~pos)))
  | c -> failwith (Printf.sprintf "wire: bad value tag %C" c)

(* --- Frames ---------------------------------------------------------------- *)

exception Timeout

(* A signal landing mid-frame must restart the interrupted syscall, not
   propagate EINTR and corrupt the stream framing. *)
let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

(* Block until [fd] is ready (readable/writable per [for_read]) or
   [deadline] (absolute Unix time) passes, raising {!Timeout} then. *)
let wait_ready fd ~for_read deadline =
  match deadline with
  | None -> ()
  | Some d ->
    let rec go () =
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise Timeout;
      let rd, wr = if for_read then ([ fd ], []) else ([], [ fd ]) in
      match restart_eintr (fun () -> Unix.select rd wr [] remaining) with
      | [], [], _ -> go () (* re-check the clock; select can return early *)
      | _ -> ()
    in
    go ()

let really_write ?deadline fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then begin
      wait_ready fd ~for_read:false deadline;
      let w = restart_eintr (fun () -> Unix.write fd bytes off (n - off)) in
      if w = 0 then failwith "wire: short write";
      go (off + w)
    end
  in
  go 0

(* Returns [None] on EOF at a frame boundary. *)
let really_read ?deadline fd n ~allow_eof =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some b
    else begin
      wait_ready fd ~for_read:true deadline;
      let r = restart_eintr (fun () -> Unix.read fd b off (n - off)) in
      if r = 0 then
        if off = 0 && allow_eof then None else failwith "wire: unexpected EOF"
      else go (off + r)
    end
  in
  go 0

(* Append one length-prefixed frame to [out]. Header and payload leave in
   the same [write]: split across two, the payload segment would wait on
   the peer's (delayed) ACK of the header whenever Nagle is on. *)
let add_frame out payload =
  add_int out (Buffer.length payload);
  Buffer.add_buffer out payload

(* [None] on EOF at a frame boundary. *)
let read_frame ?deadline fd =
  match really_read ?deadline fd 8 ~allow_eof:true with
  | None -> None
  | Some header ->
    let pos = ref 0 in
    let n = get_int header ~pos in
    if n < 0 || n > 64 * 1024 * 1024 then failwith "wire: absurd frame length";
    (match really_read ?deadline fd n ~allow_eof:false with
     | Some payload -> Some payload
     | None -> assert false)

(* --- Shard fabric messages -------------------------------------------------- *)

type shard_msg =
  | Sh_hello of { token : string }
  | Sh_cfg of Value.t
  | Sh_resume of (int * int) list
  | Sh_batch of { ch : int; base : int; items : Value.t list }
  | Sh_ack of { ch : int; upto : int }
  | Sh_poison of string
  | Sh_close

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let get_str b ~pos =
  need b pos 8;
  let n = get_int b ~pos in
  need b pos n;
  let s = Bytes.sub_string b !pos n in
  pos := !pos + n;
  s

let encode_shard buf = function
  | Sh_hello { token } ->
    Buffer.add_char buf 'H';
    add_str buf token
  | Sh_cfg v ->
    Buffer.add_char buf 'G';
    encode_value buf v
  | Sh_resume resumes ->
    Buffer.add_char buf 'M';
    add_int buf (List.length resumes);
    List.iter
      (fun (ch, upto) ->
        add_int buf ch;
        add_int buf upto)
      resumes
  | Sh_batch { ch; base; items } ->
    Buffer.add_char buf 'B';
    add_int buf ch;
    add_int buf base;
    add_int buf (List.length items);
    List.iter (encode_value buf) items
  | Sh_ack { ch; upto } ->
    Buffer.add_char buf 'A';
    add_int buf ch;
    add_int buf upto
  | Sh_poison reason ->
    Buffer.add_char buf 'P';
    add_str buf reason
  | Sh_close -> Buffer.add_char buf 'Z'

let decode_shard b ~pos =
  need b pos 1;
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | 'H' -> Sh_hello { token = get_str b ~pos }
  | 'G' -> Sh_cfg (decode_value b ~pos)
  | 'M' ->
    need b pos 8;
    let n = get_int b ~pos in
    (* each entry takes 16 bytes *)
    if n < 0 || n > (Bytes.length b - !pos) / 16 then
      failwith (Printf.sprintf "wire: malformed resume count %d" n);
    Sh_resume
      (List.init n (fun _ ->
           let ch = get_int b ~pos in
           let upto = get_int b ~pos in
           (ch, upto)))
  | 'B' ->
    need b pos 24;
    let ch = get_int b ~pos in
    let base = get_int b ~pos in
    let n = get_int b ~pos in
    (* each item takes at least its one tag byte *)
    need b pos n;
    Sh_batch { ch; base; items = List.init n (fun _ -> decode_value b ~pos) }
  | 'A' ->
    need b pos 16;
    let ch = get_int b ~pos in
    let upto = get_int b ~pos in
    Sh_ack { ch; upto }
  | 'P' -> Sh_poison (get_str b ~pos)
  | 'Z' -> Sh_close
  | c -> failwith (Printf.sprintf "wire: bad shard tag %C" c)

(* Every message becomes its own frame (the byte stream is what separate
   [write_shard] calls would produce), but all of them go out in one
   [write]: one syscall and one TCP segment per flush. *)
let write_shards ?deadline fd msgs =
  if msgs <> [] then begin
    let out = Buffer.create 256 and payload = Buffer.create 64 in
    List.iter
      (fun msg ->
        Buffer.clear payload;
        encode_shard payload msg;
        add_frame out payload)
      msgs;
    really_write ?deadline fd (Buffer.to_bytes out)
  end

let write_shard ?deadline fd msg = write_shards ?deadline fd [ msg ]

let read_shard ?deadline fd =
  match read_frame ?deadline fd with
  | None -> None
  | Some b ->
    let pos = ref 0 in
    Some (decode_shard b ~pos)

(* --- Loopback sockets ---------------------------------------------------------- *)

let listen_local ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* With [listen_local ~port:0] the kernel picks a free port; this reads it
   back, so tests and multi-service hosts need no hardcoded port numbers. *)
let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Wire.bound_port: not an inet socket"

(* Nagle off on every fabric socket (see the interface for why). Best
   effort: a socket the peer already reset may refuse the option, and that
   failure surfaces on its first read or write instead. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let accept_one fd =
  let s, _ = Unix.accept fd in
  set_nodelay s;
  s

let connect_local ?(retries = 0) ?(backoff = 0.05) ~port () =
  let fd () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  (* A listener that is still starting up is transient: retry with
     exponential backoff, bounded so a genuinely dead peer fails fast. The
     delay is capped at 1 s so a large retry budget bounds the total wait
     at ~retries seconds rather than growing geometrically. *)
  let rec go n delay =
    let s = fd () in
    match Unix.connect s addr with
    | () ->
      set_nodelay s;
      s
    | exception Unix.Unix_error ((ECONNREFUSED | ECONNRESET | EINTR), _, _)
      when n < retries ->
      (try Unix.close s with _ -> ());
      Thread.delay delay;
      go (n + 1) (Float.min 1.0 (delay *. 2.0))
    | exception e ->
      (try Unix.close s with _ -> ());
      raise e
  in
  go 0 backoff
