open Preo_support
open Preo_automata

(* Vertices are numbered densely per connector, boundary first: local ids
   [0, nb) are the boundary vertices in ascending order, the rest follow in
   order of first appearance. Scratch arrays are then sized by the
   connector, not by the global vertex counter. *)
type row = {
  flow : int array;  (* local ids colored flow *)
  no_flow : int array;  (* the medium's other local ids, colored no-flow *)
  bflow : int array;  (* [flow] on the boundary, ascending; its head seeds *)
  constr : Constr.t;
  target : int;
  mutable icap : bool;  (* internal-capable; final once [make] returns *)
}

type t = {
  mediums : Automaton.t array;
  boundary : Iset.t;
  verts : int array;  (* local id -> vertex *)
  (* owners of local vertex u: owner.(ostart.(u)) .. owner.(ostart.(u+1)-1),
     in ascending slot order (at most two on well-formed graphs) *)
  ostart : int array;
  owner : int array;
  (* tables.(j).(s) = color-table rows of medium j at local state s, one per
     local transition; the implicit all-no-flow (idle) row is represented by
     simply not selecting the medium. *)
  tables : row array array array;
  icap_at : bool array array;  (* icap_at.(j).(s): some row there is icap *)
  (* Resolution scratch, cleared again on every exit of [resolve]. *)
  color : int array;  (* local id -> uncolored / fired / idled *)
  trail : int array;  (* local ids in coloring order; undo pops back *)
  mutable tlen : int;
  pend : bool array;  (* local id -> pending *)
  mutable plocal : int array;  (* local ids of [pending], in its order *)
  selection : int array;  (* slot -> chosen row, -1 = unpulled *)
  chosen : int array;  (* selected slots, in selection order *)
  mutable clen : int;
}

type round = {
  r_sync : Iset.t;
  r_constr : Constr.t;
  r_moves : (int * int) array;
  r_key : string;
}

exception Propagation_budget of string

let uncolored = 0
let fired = 1
let idled = 2

(* Local id of a pending vertex: its rank in the boundary, -1 off it. *)
let rec boundary_rank b v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Iset.nth b mid in
    if x = v then mid
    else if x < v then boundary_rank b v (mid + 1) hi
    else boundary_rank b v lo mid

(* Open-addressing vertex -> local id table, used while [make] numbers. *)
let rec probe keys v i =
  let k = keys.(i) in
  if k = v || k < 0 then i
  else probe keys v ((i + 1) land (Array.length keys - 1))

let slot_of keys v = v * 0x9E3779B1 land (Array.length keys - 1)

(* Internal-capable rows: the greatest set of rows without boundary flow in
   which, for every vertex a row fires, every other owner of that vertex has
   a capable row (at any state) firing it too. Every row of a fully internal
   round is capable, so only capable rows need to seed or extend one.
   Computed by counting, per (owner, vertex) pair, the capable rows of that
   owner firing that vertex: a pair whose count drops to zero disqualifies
   the rows of the vertex's other owners that fire it. Each row and each
   pair is retired at most once, so this is linear in the tables. *)
let mark_internal_capable ~ostart ~owner tables =
  let npairs = Array.length owner in
  let rec pair j p = if owner.(p) = j then p else pair j (p + 1) in
  let cands = ref [] in
  Array.iteri
    (fun j ->
      Array.iter
        (Array.iter (fun r -> if r.icap then cands := (j, r) :: !cands)))
    tables;
  let cands = Array.of_list !cands in
  let support = Array.make npairs 0 in
  Array.iter
    (fun (j, r) ->
      Array.iter
        (fun u ->
          let p = pair j ostart.(u) in
          support.(p) <- support.(p) + 1)
        r.flow)
    cands;
  let bstart = Array.make (npairs + 1) 0 in
  for p = 0 to npairs - 1 do
    bstart.(p + 1) <- bstart.(p) + support.(p)
  done;
  let bucket = Array.make bstart.(npairs) 0 in
  let fill = Array.sub bstart 0 npairs in
  let pvert = Array.make npairs 0 in
  for u = 0 to Array.length ostart - 2 do
    for p = ostart.(u) to ostart.(u + 1) - 1 do
      pvert.(p) <- u
    done
  done;
  let dead = ref [] in
  Array.iteri
    (fun c (j, r) ->
      Array.iter
        (fun u ->
          let p = pair j ostart.(u) in
          bucket.(fill.(p)) <- c;
          fill.(p) <- fill.(p) + 1)
        r.flow)
    cands;
  Array.iteri (fun p n -> if n = 0 then dead := p :: !dead) support;
  while !dead <> [] do
    let p = List.hd !dead in
    dead := List.tl !dead;
    let u = pvert.(p) in
    for q = ostart.(u) to ostart.(u + 1) - 1 do
      if q <> p then
        for b = bstart.(q) to bstart.(q + 1) - 1 do
          let j, r = cands.(bucket.(b)) in
          if r.icap then begin
            r.icap <- false;
            Array.iter
              (fun u' ->
                let p' = pair j ostart.(u') in
                support.(p') <- support.(p') - 1;
                if support.(p') = 0 then dead := p' :: !dead)
              r.flow
          end
        done
    done
  done

let make ~sources ~sinks mediums =
  let boundary = Iset.union sources sinks in
  let k = Array.length mediums in
  let nb = Iset.cardinal boundary in
  let cap =
    Array.fold_left
      (fun n (a : Automaton.t) -> n + Iset.cardinal a.vertices)
      nb mediums
  in
  let size = ref 16 in
  while !size < 2 * cap do
    size := 2 * !size
  done;
  let keys = Array.make !size (-1) and ids = Array.make !size 0 in
  let verts = Array.make cap 0 in
  let nv = ref 0 in
  let intern v =
    let i = probe keys v (slot_of keys v) in
    if keys.(i) < 0 then begin
      keys.(i) <- v;
      ids.(i) <- !nv;
      verts.(!nv) <- v;
      incr nv
    end;
    ids.(i)
  in
  Iset.iter (fun v -> ignore (intern v)) boundary;
  (* mverts.(j) = local ids of medium j's vertices, in ascending vertex
     order (the order of its transitions' sync sets) *)
  let mverts =
    Array.map
      (fun (a : Automaton.t) ->
        Array.init (Iset.cardinal a.vertices) (fun i ->
            intern (Iset.nth a.vertices i)))
      mediums
  in
  let nv = !nv in
  let ostart = Array.make (nv + 1) 0 in
  Array.iter
    (Array.iter (fun u -> ostart.(u + 1) <- ostart.(u + 1) + 1))
    mverts;
  for u = 0 to nv - 1 do
    ostart.(u + 1) <- ostart.(u + 1) + ostart.(u)
  done;
  let owner = Array.make ostart.(nv) 0 in
  let fill = Array.sub ostart 0 nv in
  Array.iteri
    (fun j ->
      Array.iter (fun u ->
          owner.(fill.(u)) <- j;
          fill.(u) <- fill.(u) + 1))
    mverts;
  (* one row per transition: walk its sync set along the medium's sorted
     vertex set, splitting the medium's local ids into flow and no-flow *)
  let row_of mv (a : Automaton.t) (tr : Automaton.trans) =
    let nf = Iset.cardinal tr.sync in
    let flow = Array.make nf 0 in
    let no_flow = Array.make (Array.length mv - nf) 0 in
    let f = ref 0 and nbf = ref 0 in
    for i = 0 to Array.length mv - 1 do
      let u = mv.(i) in
      if !f < nf && Iset.nth tr.sync !f = Iset.nth a.vertices i then begin
        flow.(!f) <- u;
        incr f;
        if u < nb then incr nbf
      end
      else no_flow.(i - !f) <- u
    done;
    let bflow = Array.make !nbf 0 in
    nbf := 0;
    for i = 0 to nf - 1 do
      if flow.(i) < nb then begin
        bflow.(!nbf) <- flow.(i);
        incr nbf
      end
    done;
    {
      flow;
      no_flow;
      bflow;
      constr = tr.constr;
      target = tr.target;
      icap = !nbf = 0;
    }
  in
  let tables =
    Array.mapi
      (fun j (a : Automaton.t) ->
        Array.map (Array.map (row_of mverts.(j) a)) a.trans)
      mediums
  in
  mark_internal_capable ~ostart ~owner tables;
  {
    mediums;
    boundary;
    verts;
    ostart;
    owner;
    tables;
    icap_at = Array.map (Array.map (Array.exists (fun r -> r.icap))) tables;
    color = Array.make nv uncolored;
    trail = Array.make nv 0;
    tlen = 0;
    pend = Array.make nv false;
    plocal = Array.make nb (-1);
    selection = Array.make k (-1);
    chosen = Array.make k 0;
    clen = 0;
  }

let mediums t = t.mediums
let boundary t = t.boundary

(* --- Propagation primitives over the scratch state ------------------------ *)

let rec none_colored color c a i =
  i >= Array.length a || (color.(a.(i)) <> c && none_colored color c a (i + 1))

let rec all_pending pend a i =
  i >= Array.length a || (pend.(a.(i)) && all_pending pend a (i + 1))

(* A row is consistent with the partial coloring when it fires nothing
   already idled and idles nothing already fired. *)
let consistent t row =
  none_colored t.color fired row.no_flow 0
  && none_colored t.color idled row.flow 0
  && all_pending t.pend row.bflow 0

let paint t c a =
  for i = 0 to Array.length a - 1 do
    let u = a.(i) in
    if t.color.(u) = uncolored then begin
      t.color.(u) <- c;
      t.trail.(t.tlen) <- u;
      t.tlen <- t.tlen + 1
    end
  done

let select t j ri row =
  t.selection.(j) <- ri;
  t.chosen.(t.clen) <- j;
  t.clen <- t.clen + 1;
  paint t fired row.flow;
  paint t idled row.no_flow

let undo t ~tlen ~clen =
  for i = t.tlen - 1 downto tlen do
    t.color.(t.trail.(i)) <- uncolored
  done;
  t.tlen <- tlen;
  for i = t.clen - 1 downto clen do
    t.selection.(t.chosen.(i)) <- -1
  done;
  t.clen <- clen

let rec first_unpulled t p stop =
  if p >= stop then -1
  else
    let j = t.owner.(p) in
    if t.selection.(j) < 0 then j else first_unpulled t (p + 1) stop

(* Participants and fired vertices mostly arrive in ascending order. *)
let rec ascending a i =
  i >= Array.length a || (a.(i - 1) <= a.(i) && ascending a (i + 1))

let sort_ints a = if not (ascending a 1) then Array.sort Int.compare a

let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* One resolution. Rows with boundary flow are seeded only through their
   least boundary vertex, found among the owners of each pending vertex;
   rows without boundary flow seed only fully internal rounds, and only
   when internal-capable. Each round is enumerated exactly once: a round
   with boundary flow from its minimum-slot participant among rows with
   boundary flow (its branch skips boundary rows at lower slots), a fully
   internal round from its minimum slot (its branch skips lower slots and
   every row with boundary flow). Propagation walks the trail: each fired
   vertex's unpulled owners are pulled in, branching over their consistent
   rows, and every branch undoes its marks on the way back. *)
let resolve t ~current ~pending ~rot ~max_rounds ~budget =
  let k = Array.length t.mediums in
  let rot = rot land max_int in
  let iters = ref 0 in
  let found = ref [] in
  let nfound = ref 0 in
  let seed = ref 0 in
  let internal = ref false in
  let exception Done in
  let spend () =
    incr iters;
    if !iters > budget then
      raise
        (Propagation_budget
           (Printf.sprintf
              "coloring propagation exceeded %d iterations over %d mediums \
               (%d rounds resolved so far)"
              budget k !nfound))
  in
  let emit () =
    let parts = Array.sub t.chosen 0 t.clen in
    sort_ints parts;
    let buf = Buffer.create (8 * Array.length parts) in
    let constr = ref Constr.tt in
    for i = Array.length parts - 1 downto 0 do
      let j = parts.(i) in
      constr :=
        Constr.conj t.tables.(j).(current.(j)).(t.selection.(j)).constr !constr
    done;
    Array.iter
      (fun j ->
        add_int buf j;
        Buffer.add_char buf ':';
        add_int buf current.(j);
        Buffer.add_char buf ':';
        add_int buf t.selection.(j);
        Buffer.add_char buf ',')
      parts;
    let nsync = ref 0 in
    for i = 0 to t.tlen - 1 do
      if t.color.(t.trail.(i)) = fired then incr nsync
    done;
    let sync = Array.make !nsync 0 in
    nsync := 0;
    for i = 0 to t.tlen - 1 do
      let u = t.trail.(i) in
      if t.color.(u) = fired then begin
        sync.(!nsync) <- t.verts.(u);
        incr nsync
      end
    done;
    sort_ints sync;
    found :=
      {
        r_sync = Iset.of_sorted_array_unchecked sync;
        r_constr = !constr;
        r_moves =
          Array.map
            (fun j -> (j, t.tables.(j).(current.(j)).(t.selection.(j)).target))
            parts;
        r_key = Buffer.contents buf;
      }
      :: !found;
    incr nfound;
    if !nfound >= max_rounds then raise Done
  in
  (* [qi]: trail position of the next vertex whose owners may be unpulled.
     A pulled owner's vertex stays at [qi]: its other owner may still be
     unpulled. *)
  let rec close qi =
    if qi >= t.tlen then emit ()
    else
      let u = t.trail.(qi) in
      let j =
        if t.color.(u) = fired then
          first_unpulled t t.ostart.(u) t.ostart.(u + 1)
        else -1
      in
      if j < 0 then close (qi + 1)
      else begin
        let rows = t.tables.(j).(current.(j)) in
        let nrows = Array.length rows in
        let tlen = t.tlen and clen = t.clen in
        for ii = 0 to nrows - 1 do
          (* rotate row preference with [rot] so successive resolutions
             surface different branches of a shared-seed choice *)
          let ri = (ii + rot) mod nrows in
          let row = rows.(ri) in
          spend ();
          if
            (if !internal then row.icap && j > !seed
             else Array.length row.bflow = 0 || j > !seed)
            && consistent t row
          then begin
            select t j ri row;
            close qi;
            undo t ~tlen ~clen
          end
        done
      end
  in
  let try_seed j ri row ~inner =
    spend ();
    if inner || all_pending t.pend row.bflow 0 then begin
      seed := j;
      internal := inner;
      select t j ri row;
      close 0;
      undo t ~tlen:0 ~clen:0
    end
  in
  let np = Iset.cardinal pending in
  if Array.length t.plocal < np then t.plocal <- Array.make np (-1);
  let boundary_seeds () =
    for i = 0 to np - 1 do
      let u = t.plocal.((i + rot) mod np) in
      if u >= 0 then
        for p = t.ostart.(u) to t.ostart.(u + 1) - 1 do
          let j = t.owner.(p) in
          let rows = t.tables.(j).(current.(j)) in
          for ri = 0 to Array.length rows - 1 do
            let row = rows.(ri) in
            if Array.length row.bflow > 0 && row.bflow.(0) = u then
              try_seed j ri row ~inner:false
          done
        done
    done
  in
  (* the one scan proportional to the connector: a bool per medium *)
  let internal_seeds () =
    for jj = 0 to k - 1 do
      let j = (jj + rot) mod k in
      if t.icap_at.(j).(current.(j)) then begin
        let rows = t.tables.(j).(current.(j)) in
        for ri = 0 to Array.length rows - 1 do
          if rows.(ri).icap then try_seed j ri rows.(ri) ~inner:true
        done
      end
    done
  in
  let clear () =
    undo t ~tlen:0 ~clen:0;
    for i = 0 to np - 1 do
      let u = t.plocal.(i) in
      if u >= 0 then t.pend.(u) <- false
    done
  in
  for i = 0 to np - 1 do
    let u =
      boundary_rank t.boundary (Iset.nth pending i) 0
        (Iset.cardinal t.boundary)
    in
    t.plocal.(i) <- u;
    if u >= 0 then t.pend.(u) <- true
  done;
  (* alternate which kind of seed goes first, so that neither kind is
     starved when the [max_rounds] cap cuts a resolution short *)
  (match
     if rot land 1 = 0 then (boundary_seeds (); internal_seeds ())
     else (internal_seeds (); boundary_seeds ())
   with
   | () | (exception Done) -> clear ()
   | exception e ->
     clear ();
     raise e);
  (List.rev !found, !iters)

(* --- Exhaustive LTS (verification path) ---------------------------------- *)

module Vec_key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) = Array.fold_left (fun acc x -> (acc * 31) + x + 1) 7 a
end

let lts ?(max_states = 20_000) ?(max_iters = 5_000_000) ~sources ~sinks
    mediums =
  let t = make ~sources ~sinks (Array.of_list mediums) in
  let module H = Hashtbl.Make (Vec_key) in
  let index : int H.t = H.create 64 in
  let states : int array Dyn.t = Dyn.create () in
  let out : Automaton.trans list Dyn.t = Dyn.create () in
  let queue = Queue.create () in
  let intern vec =
    match H.find_opt index vec with
    | Some i -> i
    | None ->
      let i = Dyn.length states in
      if i >= max_states then
        raise
          (Propagation_budget
             (Printf.sprintf "coloring LTS exceeded %d states" max_states));
      H.add index vec i;
      ignore (Dyn.add states vec);
      ignore (Dyn.add out []);
      Queue.push i queue;
      i
  in
  let initial =
    intern (Array.map (fun (a : Automaton.t) -> a.initial) t.mediums)
  in
  assert (initial = 0);
  let remaining = ref max_iters in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let vec = Dyn.get states i in
    let rounds, iters =
      resolve t ~current:vec ~pending:t.boundary ~rot:0 ~max_rounds:max_int
        ~budget:!remaining
    in
    remaining := !remaining - iters;
    List.iter
      (fun r ->
        let target = Array.copy vec in
        Array.iter (fun (j, s) -> target.(j) <- s) r.r_moves;
        Dyn.set out i
          ({
             Automaton.sync = r.r_sync;
             constr = r.r_constr;
             command = None;
             target = intern target;
           }
           :: Dyn.get out i))
      rounds
  done;
  let trans =
    Array.init (Dyn.length out) (fun i ->
        Array.of_list (List.rev (Dyn.get out i)))
  in
  Automaton.trim
    (Automaton.make ~nstates:(Array.length trans) ~initial:0 ~trans ~sources
       ~sinks)
