(* Monotonic nanosecond clock: Unix.gettimeofday has 1 µs resolution, too
   coarse for per-call spans. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9
