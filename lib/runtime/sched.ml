type backend = Automata | Coloring

let of_string s =
  match String.lowercase_ascii s with
  | "automata" -> Some Automata
  | "coloring" -> Some Coloring
  | _ -> None

let to_string = function Automata -> "automata" | Coloring -> "coloring"

let backend : backend option ref =
  ref
    (match Sys.getenv_opt "PREO_BACKEND" with
     | Some s -> of_string s
     | None -> None)

let set_backend b = backend := b

let effective ?requested () =
  match requested with
  | Some b -> b
  | None -> ( match !backend with Some b -> b | None -> Automata)

module type S = sig
  type t
  type xtrans

  val candidates : t -> pending:Preo_support.Iset.t -> xtrans array
  val commit : t -> xtrans -> unit
  val ncells : t -> int
  val sources : t -> Preo_support.Iset.t
  val sinks : t -> Preo_support.Iset.t

  val splice :
    t ->
    sources:Preo_support.Iset.t ->
    sinks:Preo_support.Iset.t ->
    retire:int list ->
    add:Preo_automata.Automaton.t list ->
    Preo_support.Iset.t
end

(* Static conformance: every backend is reached through [Composer]'s
   strategies (S_aot/S_jit = automata, S_color = coloring), so one check
   covers all three. *)
module Conformance : S = Composer
