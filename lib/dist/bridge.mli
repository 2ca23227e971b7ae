(** Bridging connector ports across process boundaries.

    A host that owns a connector can export individual boundary ports over
    file descriptors (sockets); a remote peer drives them with the same
    blocking semantics as local ports. One descriptor carries one port.
    This realizes the paper's remark that Reo "can in principle be used to
    … enforce protocols among tasks across heterogeneous platforms": the
    protocol stays on one host, tasks can live anywhere.

    All functions are thread-safe per descriptor (one outstanding request at
    a time per bridge, as enforced by an internal lock).

    Fault model: a serving side keeps the session alive across recoverable
    request errors (e.g. a wrong-direction request) and only closes on clean
    EOF or connector poisoning; a remote side surfaces a dead or wedged peer
    as the typed {!Bridge_down} — never as a silently hung thread. *)

open Preo_support

exception Bridge_down of string
(** The peer is unreachable: connection reset, EOF or garbage mid-frame, or
    no response within the bridge's configured [timeout]. *)

(** {1 Serving (connector-owning side)} *)

val serve_outport : Preo_runtime.Port.outport -> Unix.file_descr -> Thread.t
(** Handle [Req_send] requests by performing blocking local sends; replies
    [Resp_ok] per completed send. Returns when the peer closes or the
    connector is poisoned; recoverable errors are reported to the peer and
    the session continues. *)

val serve_inport : Preo_runtime.Port.inport -> Unix.file_descr -> Thread.t
(** Handle [Req_recv] requests by performing blocking local receives. *)

(** {1 Remote (task side)} *)

type remote_outport
type remote_inport

val remote_outport : ?timeout:float -> Unix.file_descr -> remote_outport
(** [timeout] bounds each whole RPC round trip, in seconds; when it expires
    (dead peer, or a protocol legitimately blocking longer than expected),
    {!Bridge_down} is raised. Default: wait forever. *)

val remote_inport : ?timeout:float -> Unix.file_descr -> remote_inport

val send : remote_outport -> Value.t -> unit
(** Blocks until the remote connector completed the send. Raises [Failure]
    on protocol errors, [Preo_runtime.Engine.Poisoned] if the remote
    reports poisoning (with the original reason — the wire prefix is
    stripped, so the message survives re-bridge hops unchanged), and
    {!Bridge_down} if the peer dies or the timeout expires. *)

val recv : remote_inport -> Value.t
val close_remote : Unix.file_descr -> unit
(** Send a clean close so the serving thread exits. *)

(** {1 TCP conveniences} *)

val listen_local : ?backlog:int -> port:int -> unit -> Unix.file_descr
(** Bind+listen on 127.0.0.1 with [SO_REUSEADDR] (so rapid re-binds in tests
    do not hit [EADDRINUSE]) and a real [backlog] (default 64 — a shard host
    accepting several workers at once must not refuse the burst). [~port:0]
    lets the kernel pick a free port — read it back with {!bound_port}. *)

val bound_port : Unix.file_descr -> int
(** The actual local port of a bound socket (via [getsockname]). *)

val accept_one : Unix.file_descr -> Unix.file_descr
(** Accept one connection and set [TCP_NODELAY] on it. Errors from
    [accept] propagate unchanged. *)

val connect_local :
  ?retries:int -> ?backoff:float -> port:int -> unit -> Unix.file_descr
(** Connect to 127.0.0.1:[port] and set [TCP_NODELAY] on the socket. A
    refused connection (listener still starting) is retried up to [retries]
    times with exponentially growing [backoff] (initial delay, default
    50ms); default is no retry.

    Both TCP constructors disable Nagle's algorithm because every frame on
    these sockets is a small message the peer is blocked on: with Nagle on,
    a frame sent while the previous one is unacknowledged waits for the
    peer's delayed ACK (~40 ms on Linux loopback). *)
