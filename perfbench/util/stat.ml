(* Order statistics over sorted samples. *)

(* 0-based nearest-rank index of quantile [q] among [n] samples. *)
let rank ~q n =
  max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* Samples strictly above the quantile's rank. *)
let beyond ~q n = if n = 0 then 0 else n - 1 - rank ~q n

let min_beyond = 10

(* A tail percentile is reported only when at least [min_beyond] samples lie
   beyond it; otherwise it rests on a handful of outliers. *)
let percentile ~q (sorted : 'a array) =
  let n = Array.length sorted in
  if n = 0 || beyond ~q n < min_beyond then None else Some sorted.(rank ~q n)

let median_float (xs : float array) =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.median_float: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let median_int (xs : int array) = median_float (Array.map float_of_int xs)

(* Ratio with an explicit empty base: 0 when nothing was counted. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
