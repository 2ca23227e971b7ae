(* Process-wide counters of the sharded connector fabric (lib/dist/shard).
   They live here, not in lib/dist, so [Connector.stats] can report them
   without a runtime->dist dependency inversion. All are monotone and
   process-global: a connector with no cross-process cuts reports zeros. *)

let batches = Atomic.make 0
let items = Atomic.make 0
let acks = Atomic.make 0
let reconnects = Atomic.make 0

let add_batch ~items:n =
  Atomic.incr batches;
  ignore (Atomic.fetch_and_add items n)

let add_acked n = ignore (Atomic.fetch_and_add acks n)
let add_reconnect () = Atomic.incr reconnects
