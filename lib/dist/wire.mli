(** Wire format for port operations across process boundaries.

    Values are encoded with a self-describing binary format (no [Marshal],
    so the two endpoints need not run the same binary); every message is a
    length-prefixed frame. Decoding bounds-checks every length against the
    frame, so malformed peer input fails with [Failure "wire: ..."] rather
    than [Invalid_argument] or [Out_of_memory]; reads and writes restart on
    [EINTR] so a signal cannot corrupt the stream framing.

    All I/O entry points take an optional [deadline] (absolute Unix time);
    when the descriptor is not ready in time, {!Timeout} is raised. *)

open Preo_support

exception Timeout
(** A [deadline] passed before the peer produced (or accepted) the data. *)

val encode_value : Buffer.t -> Value.t -> unit
val decode_value : bytes -> pos:int ref -> Value.t
(** Raises [Failure] on malformed input. *)

type request =
  | Req_send of Value.t  (** complete a send on the bridged outport *)
  | Req_recv  (** complete a receive on the bridged inport *)
  | Req_close

type response =
  | Resp_ok
  | Resp_value of Value.t
  | Resp_error of string

type span = { sp_corr : int; sp_span : int }
(** Trace identity of one RPC: the client process's correlation ID plus a
    per-RPC span ID, carried inside the request frame (as a ['T'] header
    before the request tag) so traces exported on both sides of a bridge
    merge on a shared correlation. *)

val write_request :
  ?deadline:float -> ?span:span -> Unix.file_descr -> request -> unit

val read_request : ?deadline:float -> Unix.file_descr -> request option
(** [None] on clean EOF. Accepts traced and untraced frames (any span is
    dropped). *)

val read_request_traced :
  ?deadline:float -> Unix.file_descr -> (request * span option) option
(** Like {!read_request} but also returns the trace span, if the frame
    carried one. *)

val write_response : ?deadline:float -> Unix.file_descr -> response -> unit
val read_response : ?deadline:float -> Unix.file_descr -> response

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
