(* Buffer of integer samples (nanoseconds, counts). A buffer created with a
   [limit] never holds more than that many: when full it keeps every other
   sample and from then on records every second one, so it always holds an
   evenly spaced subsample of everything added (the [k]-th sample is kept
   iff [k] is a multiple of the stride), in fixed memory. *)

type t = {
  mutable a : int array;
  mutable n : int;
  limit : int;
  mutable stride : int;  (** record one sample in [stride], a power of 2 *)
  mutable seen : int;  (** samples added, recorded or not *)
}

let create ?(cap = 4096) ?(limit = max_int) () =
  { a = Array.make (max 2 (min cap limit)) 0; n = 0; limit = max 2 limit; stride = 1; seen = 0 }

(* Fixed memory, allocated up front. *)
let bounded limit = create ~cap:limit ~limit ()

let kept t = t.seen land (t.stride - 1) = 0

let add t x =
  t.seen <- t.seen + 1;
  if kept t then begin
    if t.n = Array.length t.a then begin
      if t.n >= t.limit then begin
        for i = 0 to (t.n / 2) - 1 do
          t.a.(i) <- t.a.((2 * i) + 1)
        done;
        t.n <- t.n / 2;
        t.stride <- 2 * t.stride
      end
      else begin
        let b = Array.make (min t.limit (2 * t.n)) 0 in
        Array.blit t.a 0 b 0 t.n;
        t.a <- b
      end
    end;
    if kept t then begin
      t.a.(t.n) <- x;
      t.n <- t.n + 1
    end
  end

let length t = t.n
let seen t = t.seen

let clear t =
  t.n <- 0;
  t.stride <- 1;
  t.seen <- 0

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

let concat ts =
  let all = create ~cap:(List.fold_left (fun acc t -> acc + t.n) 1 ts) () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add all t.a.(i) done) ts;
  all
