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
