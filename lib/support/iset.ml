type t = int array
(* Invariant: strictly increasing. *)

let empty : t = [||]
let is_empty s = Array.length s = 0
let singleton x = [| x |]

let of_list l =
  match List.sort_uniq Int.compare l with
  | [] -> empty
  | l -> Array.of_list l

let of_sorted_array_unchecked a = a
let cardinal = Array.length
let nth (s : t) i = s.(i)

let mem x s =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let v = s.(mid) in
      if v = x then true else if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length s)

let add x s =
  if mem x s then s
  else begin
    let n = Array.length s in
    let r = Array.make (n + 1) x in
    let rec go i j =
      if i < n then
        if s.(i) < x then begin
          r.(j) <- s.(i);
          go (i + 1) (j + 1)
        end
        else begin
          (* Past the insertion point every element shifts one slot right. *)
          r.(i + 1) <- s.(i);
          go (i + 1) j
        end
    in
    go 0 0;
    r
  end

let remove x s =
  if not (mem x s) then s
  else begin
    let n = Array.length s in
    let r = Array.make (n - 1) 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if s.(i) <> x then begin
        r.(!j) <- s.(i);
        incr j
      end
    done;
    r
  end

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let r = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin r.(!k) <- x; incr i end
      else if x > y then begin r.(!k) <- y; incr j end
      else begin r.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < na do r.(!k) <- a.(!i); incr i; incr k done;
    while !j < nb do r.(!k) <- b.(!j); incr j; incr k done;
    if !k = na + nb then r else Array.sub r 0 !k
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then empty
  else begin
    let r = Array.make (min na nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then incr i
      else if x > y then incr j
      else begin r.(!k) <- x; incr i; incr j; incr k end
    done;
    if !k = 0 then empty else Array.sub r 0 !k
  end

let diff a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then a
  else begin
    let r = Array.make na 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin r.(!k) <- x; incr i; incr k end
      else if x > y then incr j
      else begin incr i; incr j end
    done;
    while !i < na do r.(!k) <- a.(!i); incr i; incr k done;
    if !k = na then a else Array.sub r 0 !k
  end

let disjoint a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na || j >= nb then true
    else
      let x = a.(i) and y = b.(j) in
      if x < y then go (i + 1) j else if x > y then go i (j + 1) else false
  in
  go 0 0

let subset a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else
      let x = a.(i) and y = b.(j) in
      if x = y then go (i + 1) (j + 1)
      else if x > y then go i (j + 1)
      else false
  in
  go 0 0

let equal (a : t) (b : t) = a == b || a = b

let compare (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i >= na then if i >= nb then 0 else -1
    else if i >= nb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash s = Array.fold_left (fun acc x -> (acc * 31) + x + 1) 17 s
let iter f s = Array.iter f s
let fold f s init = Array.fold_left (fun acc x -> f x acc) init s
let for_all f s = Array.for_all f s
let exists f s = Array.exists f s

let filter f s =
  let r = Array.of_list (List.filter f (Array.to_list s)) in
  if Array.length r = Array.length s then s else r

let elements s = Array.to_list s
let choose s = if is_empty s then raise Not_found else s.(0)
let min_elt = choose
let max_elt s = if is_empty s then raise Not_found else s.(Array.length s - 1)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements s)
