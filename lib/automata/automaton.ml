open Preo_support

type trans = {
  sync : Iset.t;
  constr : Constr.t;
  command : Command.t option;
  target : int;
}

type t = {
  nstates : int;
  initial : int;
  trans : trans array array;
  vertices : Iset.t;
  sources : Iset.t;
  sinks : Iset.t;
  cells : Iset.t;
}

let make ~nstates ~initial ~trans ~sources ~sinks =
  assert (nstates = Array.length trans);
  assert (initial >= 0 && initial < nstates);
  let vertices = ref (Iset.union sources sinks) in
  let cells = ref Iset.empty in
  Array.iter
    (Array.iter (fun tr ->
         assert (tr.target >= 0 && tr.target < nstates);
         vertices := Iset.union !vertices tr.sync;
         cells := Iset.union !cells (Constr.cells tr.constr)))
    trans;
  { nstates; initial; trans; vertices = !vertices; sources; sinks; cells = !cells }

let num_transitions a =
  Array.fold_left (fun acc ts -> acc + Array.length ts) 0 a.trans

let internal a = Iset.diff a.vertices (Iset.union a.sources a.sinks)

let map_vertices f a =
  let set s = Iset.of_list (List.map f (Iset.elements s)) in
  {
    a with
    trans =
      Array.map
        (Array.map (fun tr ->
             {
               tr with
               sync = set tr.sync;
               constr = Constr.map_vertices f tr.constr;
               command = Option.map (Command.map_vertices f) tr.command;
             }))
        a.trans;
    vertices = set a.vertices;
    sources = set a.sources;
    sinks = set a.sinks;
  }

let map_cells f a =
  let set s = Iset.of_list (List.map f (Iset.elements s)) in
  {
    a with
    trans =
      Array.map
        (Array.map (fun tr ->
             {
               tr with
               constr = Constr.map_cells f tr.constr;
               command = Option.map (Command.map_cells f) tr.command;
             }))
        a.trans;
    cells = set a.cells;
  }

let hide h a =
  {
    a with
    trans =
      Array.map
        (Array.map (fun tr -> { tr with sync = Iset.diff tr.sync h }))
        a.trans;
    vertices = Iset.diff a.vertices h;
    sources = Iset.diff a.sources h;
    sinks = Iset.diff a.sinks h;
  }

let optimize_labels a =
  {
    a with
    trans =
      Array.map
        (fun ts ->
          Array.of_list
            (List.filter_map
               (fun tr ->
                 match tr.command with
                 | Some _ -> Some tr
                 | None ->
                   Option.map
                     (fun cmd -> { tr with command = Some cmd })
                     (Command.firable ~sources:a.sources ~sinks:a.sinks
                        tr.constr))
               (Array.to_list ts)))
        a.trans;
  }

let strip_commands a =
  {
    a with
    trans = Array.map (Array.map (fun tr -> { tr with command = None })) a.trans;
  }

let trans_equal t1 t2 =
  t1.target = t2.target && Iset.equal t1.sync t2.sync && t1.constr = t2.constr

let dedup_transitions ts =
  let keep = ref [] in
  Array.iter
    (fun tr -> if not (List.exists (trans_equal tr) !keep) then keep := tr :: !keep)
    ts;
  Array.of_list (List.rev !keep)

let trim a =
  let renum = Array.make a.nstates (-1) in
  let order = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  renum.(a.initial) <- 0;
  order := [ a.initial ];
  count := 1;
  Queue.push a.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Array.iter
      (fun tr ->
        if renum.(tr.target) < 0 then begin
          renum.(tr.target) <- !count;
          incr count;
          order := tr.target :: !order;
          Queue.push tr.target queue
        end)
      a.trans.(s)
  done;
  let old_states = Array.of_list (List.rev !order) in
  let trans =
    Array.map
      (fun old_s ->
        dedup_transitions
          (Array.map
             (fun tr -> { tr with target = renum.(tr.target) })
             a.trans.(old_s)))
      old_states
  in
  make ~nstates:!count ~initial:0 ~trans ~sources:a.sources ~sinks:a.sinks

let label_bisimilar a p q =
  if p = q then true
  else begin
    let n = a.nstates in
    let rel = Array.make_matrix n n true in
    (* Greatest fixpoint of the label-only bisimulation game: refine until
       no pair is removed. Data (constraints, commands, cells) is ignored —
       callers that care about stored values must encode them in states, as
       the fifo primitives do (a full fifo1's state is not label-bisimilar
       to its empty initial state, so quiescence checks built on this cannot
       discard buffered data). *)
    let changed = ref true in
    let simulates x y =
      (* every transition of [x] has a related-match in [y] *)
      Array.for_all
        (fun tx ->
          Array.exists
            (fun ty -> Iset.equal tx.sync ty.sync && rel.(tx.target).(ty.target))
            a.trans.(y))
        a.trans.(x)
    in
    while !changed do
      changed := false;
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          if rel.(x).(y) && not (simulates x y && simulates y x) then begin
            rel.(x).(y) <- false;
            changed := true
          end
        done
      done
    done;
    rel.(p).(q)
  end

let pp ppf a =
  Format.fprintf ppf "@[<v>automaton: %d states, %d transitions, initial %d@,"
    a.nstates (num_transitions a) a.initial;
  Format.fprintf ppf "sources %a sinks %a@," Iset.pp a.sources Iset.pp a.sinks;
  Array.iteri
    (fun s ts ->
      Array.iter
        (fun tr ->
          Format.fprintf ppf "  %d --%a %a--> %d@," s Iset.pp tr.sync Constr.pp
            tr.constr tr.target)
        ts)
    a.trans;
  Format.fprintf ppf "@]"

let pp_stats ppf a =
  Format.fprintf ppf "%d states / %d transitions / %d vertices / %d cells"
    a.nstates (num_transitions a) (Iset.cardinal a.vertices)
    (Iset.cardinal a.cells)
