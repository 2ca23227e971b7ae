(** Trace sinks over the recorded {!Obs} rings.

    Both exporters default to every registered ring; pass [?rings] to narrow
    (e.g. one engine's ring). *)

val dump : ?rings:Obs.ring list -> unit -> string
(** Human-readable per-ring listing, timestamps relative to each ring's first
    event. *)

val chrome : ?rings:Obs.ring list -> unit -> string
(** Chrome trace-event JSON (loadable in Perfetto / [chrome://tracing]).
    One "thread" lane per ring plus one per observed task thread; blocking
    port operations become duration slices (ended by completion or by an
    abort), everything else instants. Timestamps are microseconds relative to the earliest recorded
    event and non-decreasing within each ring lane. *)
