(* Output checking: every op the benchmark attempts is either confirmed
   against its expected result or counted as failed. *)

open Preo_support

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
}

let create () = { attempted = 0; failed = 0; first_error = None }

let pass t = t.attempted <- t.attempted + 1

let fail t msg =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

let check t ~what ok = if ok then pass t else fail t what

let value t ~what ~expected got =
  if Value.equal expected got then pass t
  else
    fail t
      (Printf.sprintf "%s: expected %s, got %s" what (Value.to_string expected)
         (Value.to_string got))

let error_rate t = Stat.ratio t.failed t.attempted
