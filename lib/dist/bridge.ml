(* Writing to a peer that already closed must surface as EPIPE, not kill the
   process. *)
let () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

exception Bridge_down of string

module Obs = Preo_obs.Obs

(* One locked trace lane per side of this process's bridge RPCs: client
   calls run under per-remote locks, serve loops in their own threads, so
   neither side has a common external lock to piggyback on. *)
let rpc_ring_of : (string, Obs.ring) Hashtbl.t = Hashtbl.create 4
let rpc_ring_lock = Mutex.create ()

let rpc_ring side =
  Mutex.lock rpc_ring_lock;
  let r =
    match Hashtbl.find_opt rpc_ring_of side with
    | Some r -> r
    | None ->
      let r = Obs.create_ring ~locked:true side in
      Hashtbl.add rpc_ring_of side r;
      r
  in
  Mutex.unlock rpc_ring_lock;
  r

let poison_prefix = "poisoned:"

let is_poison_error msg = String.starts_with ~prefix:poison_prefix msg

(* Strip the "poisoned: " marker a serving side prepends, so the reason
   survives any number of re-bridge hops without accumulating prefixes. *)
let poison_reason msg =
  let n = String.length poison_prefix in
  let rest = String.sub msg n (String.length msg - n) in
  if String.starts_with ~prefix:" " rest then
    String.sub rest 1 (String.length rest - 1)
  else rest

(* --- Serving ---------------------------------------------------------------- *)

let serve loop fd =
  Thread.create
    (fun () ->
      let rec go () =
        match Wire.read_request_traced fd with
        | None | Some (Wire.Req_close, _) -> ()
        | Some (req, span) ->
          (* The span arrived inside the frame: echoing its correlation into
             our events is what lets traces from the two processes merge. *)
          let traced =
            match span with Some _ -> !Obs.tracing | None -> false
          in
          (match span with
           | Some { Wire.sp_corr; sp_span } when traced ->
             Obs.emit (rpc_ring "rpc-server") Obs.Rpc_server_start ~a:sp_span
               ~b:sp_corr
           | _ -> ());
          let resp =
            try loop req with
            | Preo_runtime.Engine.Poisoned msg ->
              Wire.Resp_error (poison_prefix ^ " " ^ msg)
            | e -> Wire.Resp_error (Printexc.to_string e)
          in
          (match span with
           | Some { Wire.sp_corr; sp_span } when traced ->
             Obs.emit (rpc_ring "rpc-server") Obs.Rpc_server_end ~a:sp_span
               ~b:sp_corr
           | _ -> ());
          Wire.write_response fd resp;
          (* Keep serving after recoverable errors (e.g. a wrong-direction
             request); only poisoning — the connector is gone for good — or
             EOF ends the session. *)
          let fatal =
            match resp with
            | Wire.Resp_error msg -> is_poison_error msg
            | _ -> false
          in
          if not fatal then go ()
      in
      (try go () with _ -> ());
      try Unix.close fd with _ -> ())
    ()

let serve_outport port fd =
  serve
    (fun req ->
      match req with
      | Wire.Req_send v ->
        Preo_runtime.Port.send port v;
        Wire.Resp_ok
      | Wire.Req_recv -> Wire.Resp_error "this bridge serves an outport"
      | Wire.Req_close -> assert false)
    fd

let serve_inport port fd =
  serve
    (fun req ->
      match req with
      | Wire.Req_recv -> Wire.Resp_value (Preo_runtime.Port.recv port)
      | Wire.Req_send _ -> Wire.Resp_error "this bridge serves an inport"
      | Wire.Req_close -> assert false)
    fd

(* --- Remote ------------------------------------------------------------------ *)

type remote_outport = {
  ofd : Unix.file_descr;
  olock : Mutex.t;
  otimeout : float option;
}

type remote_inport = {
  ifd : Unix.file_descr;
  ilock : Mutex.t;
  itimeout : float option;
}

let remote_outport ?timeout ofd = { ofd; olock = Mutex.create (); otimeout = timeout }
let remote_inport ?timeout ifd = { ifd; ilock = Mutex.create (); itimeout = timeout }

(* One request/response round trip. A dead or wedged peer — connection
   reset, EOF mid-frame, garbage framing, or no response within [timeout] —
   surfaces as the typed {!Bridge_down}, never as a hung thread or a bare
   [Unix_error]. No blind resend: a send RPC is not idempotent (the request
   may have fired before the failure), so recovery policy belongs to the
   caller. *)
let rpc fd lock timeout req =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
      let span =
        if !Obs.tracing then begin
          let sp =
            { Wire.sp_corr = Obs.correlation (); sp_span = Obs.next_span () }
          in
          Obs.emit (rpc_ring "rpc-client") Obs.Rpc_client_start ~a:sp.Wire.sp_span
            ~b:sp.Wire.sp_corr;
          Some sp
        end
        else None
      in
      let finish resp =
        (match span with
         | Some sp when !Obs.tracing ->
           Obs.emit (rpc_ring "rpc-client") Obs.Rpc_client_end ~a:sp.Wire.sp_span
             ~b:sp.Wire.sp_corr
         | _ -> ());
        resp
      in
      try
        Wire.write_request ?deadline ?span fd req;
        finish (Wire.read_response ?deadline fd)
      with
      | Wire.Timeout ->
        raise
          (Bridge_down
             (Printf.sprintf "peer did not respond within %.3fs"
                (match timeout with Some s -> s | None -> 0.0)))
      | Unix.Unix_error (e, _, _) ->
        raise (Bridge_down (Unix.error_message e))
      | Failure msg when String.starts_with ~prefix:"wire:" msg ->
        raise (Bridge_down msg))

let fail_of_error msg =
  if is_poison_error msg then
    raise (Preo_runtime.Engine.Poisoned (poison_reason msg))
  else failwith ("bridge: " ^ msg)

let send r v =
  match rpc r.ofd r.olock r.otimeout (Wire.Req_send v) with
  | Wire.Resp_ok -> ()
  | Wire.Resp_error msg -> fail_of_error msg
  | Wire.Resp_value _ -> failwith "bridge: unexpected value response"

let recv r =
  match rpc r.ifd r.ilock r.itimeout Wire.Req_recv with
  | Wire.Resp_value v -> v
  | Wire.Resp_error msg -> fail_of_error msg
  | Wire.Resp_ok -> failwith "bridge: unexpected ok response"

let close_remote fd =
  (try Wire.write_request fd Wire.Req_close with _ -> ());
  try Unix.close fd with _ -> ()

(* --- TCP ---------------------------------------------------------------------- *)

let listen_local ?(backlog = 64) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd backlog;
  fd

(* With [listen_local ~port:0] the kernel picks a free port; this reads it
   back, so tests and multi-service hosts need no hardcoded port numbers. *)
let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Bridge.bound_port: not an inet socket"

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
