open Preo_support

(* Structured tracing core: fixed-size rings of binary events.

   Design constraints, in order:
   - with tracing off, instrumented code pays exactly one [!tracing] branch
     on the hot path and nothing else — no ring exists, no closure runs;
   - with tracing on, recording an event is four array stores and one
     timestamp read, no allocation, so enabling tracing perturbs the
     schedule being observed as little as possible;
   - rings never grow: a connector left tracing for hours keeps the most
     recent [cap] events per lane and counts the rest as dropped.

   An event is (timestamp, kind, a, b). The meaning of [a]/[b] depends on
   the kind (see {!kind}); vertex identifiers are resolved to names only at
   export time through [vertex_namer], so the recording side never touches
   strings. *)

let truthy = function
  | "" | "0" | "false" | "off" -> false
  | _ -> true

let tracing =
  ref (match Sys.getenv_opt "PREO_TRACE" with
       | Some s -> truthy s
       | None -> false)

let set_tracing b = tracing := b

type kind =
  | Fire  (** transition fired; [a] = |sync|, [b] = least sync vertex or -1 *)
  | Submit_send  (** blocking send registered; [a] = vertex, [b] = thread id *)
  | Submit_recv
  | Park  (** operation parked on the engine condition; [a] = vertex, [b] = tid *)
  | Wake
  | Complete_send  (** blocking op completed; [a] = vertex, [b] = tid *)
  | Complete_recv
  | Expansion  (** JIT state expansion; [a] = total expansions, [b] = delta *)
  | Stall  (** watchdog trip or deadline expiry; [a] = vertex, [b] = tid *)
  | Poison  (** engine poisoned *)
  | Slot_put  (** partition bridge slot filled; [a] = tail vertex *)
  | Slot_take  (** partition bridge slot drained; [a] = head vertex *)
  | Abort  (** blocking op left without completing; [a] = vertex, [b] = tid *)
  | Wake_targeted  (** waker signalled one vertex; [a] = vertex, [b] = parked *)
  | Wake_broadcast  (** waker woke every waiter; [a] = waiter count *)

let kinds =
  [| Fire; Submit_send; Submit_recv; Park; Wake; Complete_send; Complete_recv;
     Expansion; Stall; Poison; Slot_put; Slot_take; Abort; Wake_targeted;
     Wake_broadcast |]

let kind_index = function
  | Fire -> 0 | Submit_send -> 1 | Submit_recv -> 2 | Park -> 3 | Wake -> 4
  | Complete_send -> 5 | Complete_recv -> 6 | Expansion -> 7 | Stall -> 8
  | Poison -> 9 | Slot_put -> 10 | Slot_take -> 11 | Abort -> 12
  | Wake_targeted -> 13 | Wake_broadcast -> 14

let kind_name = function
  | Fire -> "fire" | Submit_send -> "submit-send" | Submit_recv -> "submit-recv"
  | Park -> "park" | Wake -> "wake" | Complete_send -> "complete-send"
  | Complete_recv -> "complete-recv" | Expansion -> "expansion"
  | Stall -> "stall" | Poison -> "poison" | Slot_put -> "slot-put"
  | Slot_take -> "slot-take" | Abort -> "abort"
  | Wake_targeted -> "wake-targeted" | Wake_broadcast -> "wake-broadcast"

(* Resolved by the runtime at module-init time (Vertex lives above this
   library in the dependency order). *)
let vertex_namer : (int -> string) ref = ref (fun v -> "v" ^ string_of_int v)
let set_vertex_namer f = vertex_namer := f

type ring = {
  id : int;
  name : string;
  lock : Mutex.t option;
      (* engine rings are written under the owning engine's lock and need
         none; rings shared between threads (partition bridge slots) carry
         their own *)
  cap : int;
  ts : float array;
  ev : int array;
  ra : int array;
  rb : int array;
  rd : int array;  (* recording domain id, for cross-domain attribution *)
  mutable total : int;  (** events ever written; index = total mod cap *)
}

type event = {
  e_ts : float;
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_dom : int;  (** domain that recorded the event *)
}

let default_cap =
  match Sys.getenv_opt "PREO_TRACE_CAP" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 16 -> n | _ -> 65536)
  | None -> 65536

let registry : ring list ref = ref []
let registry_lock = Mutex.create ()
let next_ring_id = ref 0

let create_ring ?(locked = false) ?cap name =
  let cap = match cap with Some c when c >= 16 -> c | _ -> default_cap in
  Mutex.lock registry_lock;
  let id = !next_ring_id in
  incr next_ring_id;
  let r =
    {
      id;
      name;
      lock = (if locked then Some (Mutex.create ()) else None);
      cap;
      ts = Array.make cap 0.0;
      ev = Array.make cap 0;
      ra = Array.make cap 0;
      rb = Array.make cap 0;
      rd = Array.make cap 0;
      total = 0;
    }
  in
  registry := r :: !registry;
  Mutex.unlock registry_lock;
  r

(* Single-writer discipline: an unlocked (engine) ring is only ever written
   by the thread holding the owning engine's mutex — whichever domain that
   thread lives in — so writes are serialized and [rd] records which domain
   each event came from. Locked rings serialize on their own mutex. *)
let emit_unlocked r kind ~a ~b =
  let i = r.total mod r.cap in
  r.ts.(i) <- Clock.now ();
  r.ev.(i) <- kind_index kind;
  r.ra.(i) <- a;
  r.rb.(i) <- b;
  r.rd.(i) <- (Domain.self () :> int);
  r.total <- r.total + 1

let emit r kind ~a ~b =
  match r.lock with
  | None -> emit_unlocked r kind ~a ~b
  | Some m ->
    Mutex.lock m;
    emit_unlocked r kind ~a ~b;
    Mutex.unlock m

let ring_name r = r.name
let ring_id r = r.id
let ring_label r = Printf.sprintf "%s#%d" r.name r.id
let recorded r = r.total
let dropped r = if r.total > r.cap then r.total - r.cap else 0

let events r =
  let snap () =
    let n = min r.total r.cap in
    let first = r.total - n in
    List.init n (fun k ->
        let i = (first + k) mod r.cap in
        {
          e_ts = r.ts.(i);
          e_kind = kinds.(r.ev.(i));
          e_a = r.ra.(i);
          e_b = r.rb.(i);
          e_dom = r.rd.(i);
        })
  in
  match r.lock with
  | None -> snap ()
  | Some m ->
    Mutex.lock m;
    let es = snap () in
    Mutex.unlock m;
    es

let rings () =
  Mutex.lock registry_lock;
  let rs = List.rev !registry in
  Mutex.unlock registry_lock;
  rs

let reset () =
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock

(* --- Trace correlation ---------------------------------------------------- *)

(* One correlation ID per trace session, written into every Chrome export
   so the exports of cooperating processes can be merged on it. *)

let correlation_state = ref 0

let correlation () =
  if !correlation_state <> 0 then !correlation_state
  else begin
    Mutex.lock registry_lock;
    if !correlation_state = 0 then begin
      let seeded =
        match Sys.getenv_opt "PREO_TRACE_CORR" with
        | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 0)
        | None -> 0
      in
      let id =
        if seeded <> 0 then seeded
        else
          (* pid in the high bits, microsecond clock in the low bits: unique
             enough across the handful of processes sharing one trace *)
          let t = int_of_float (Unix.gettimeofday () *. 1e6) in
          (((Unix.getpid () land 0x3FFFFF) lsl 40) lxor t) land max_int
      in
      correlation_state := if id = 0 then 1 else id
    end;
    Mutex.unlock registry_lock;
    !correlation_state
  end

let set_correlation id = correlation_state := id
