(** Wire format and sockets of the sharded connector fabric
    ({!module:Shard}).

    Values are encoded with a self-describing binary format (no [Marshal],
    so the two endpoints need not run the same binary); every message is a
    length-prefixed frame. Decoding bounds-checks every length against the
    frame, so malformed peer input fails with [Failure "wire: ..."] rather
    than [Invalid_argument] or [Out_of_memory]; reads and writes restart on
    [EINTR] so a signal cannot corrupt the stream framing.

    All I/O entry points take an optional [deadline] (absolute Unix time);
    when the descriptor is not ready in time, {!Timeout} is raised.

    Loading this module ignores [SIGPIPE]: a write to a peer that already
    died surfaces as [EPIPE] instead of killing the process. *)

open Preo_support

exception Timeout
(** A [deadline] passed before the peer produced (or accepted) the data. *)

val encode_value : Buffer.t -> Value.t -> unit
val decode_value : bytes -> pos:int ref -> Value.t
(** Raises [Failure] on malformed input. *)

(** Messages of the sharded connector fabric (see {!module:Shard}). One
    connection carries all cut channels between two processes; [Sh_batch]
    coalesces every value queued on one channel since the last flush into a
    single frame, and [Sh_ack] is cumulative (acknowledges all sequence
    numbers below [upto]), so the in-flight window survives reconnects. *)
type shard_msg =
  | Sh_hello of { token : string }
      (** first frame from a worker; names the link *)
  | Sh_cfg of Value.t
      (** host → worker: the placement configuration (DSL source, lengths,
          regions, channels, workloads) as one encoded value *)
  | Sh_resume of (int * int) list
      (** worker → host after [Sh_cfg]: per-channel [(ch, upto)] — every
          sequence number below [upto] was durably consumed; the host trims
          its replay window to start there *)
  | Sh_batch of { ch : int; base : int; items : Value.t list }
      (** items carry sequence numbers [base], [base+1], ... *)
  | Sh_ack of { ch : int; upto : int }  (** cumulative: acks all seq < upto *)
  | Sh_poison of string  (** structured cross-process poison *)
  | Sh_close  (** orderly shutdown *)

val encode_shard : Buffer.t -> shard_msg -> unit

val decode_shard : bytes -> pos:int ref -> shard_msg
(** Raises [Failure "wire: ..."] on malformed input. *)

val write_shard : ?deadline:float -> Unix.file_descr -> shard_msg -> unit

val write_shards :
  ?deadline:float -> Unix.file_descr -> shard_msg list -> unit
(** One frame per message, byte-for-byte what successive {!write_shard}
    calls would send, handed to the kernel in one [write] (a short write
    continues with the rest). No-op on [[]]. *)

val read_shard : ?deadline:float -> Unix.file_descr -> shard_msg option
(** [None] on clean EOF. *)

(** {1 Loopback sockets} *)

val listen_local : port:int -> unit -> Unix.file_descr
(** Bind+listen on 127.0.0.1 with [SO_REUSEADDR] (so rapid re-binds in tests
    do not hit [EADDRINUSE]) and a backlog of 64 (a shard host accepting
    several workers at once must not refuse the burst). [~port:0] lets the
    kernel pick a free port — read it back with {!bound_port}. *)

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
    50ms, capped at 1 s); default is no retry.

    Both TCP constructors disable Nagle's algorithm because every frame on
    these sockets is a small message the peer is blocked on: with Nagle on,
    a frame sent while the previous one is unacknowledged waits for the
    peer's delayed ACK (~40 ms on Linux loopback). *)
