open Preo_support
open Preo_automata

type policy = First | Random of int

type t = {
  comp : Composer.t;
  cells : Value.t option array;
  send_q : (Vertex.t, Value.t Queue.t) Hashtbl.t;
  recv_q : (Vertex.t, int ref) Hashtbl.t;  (** waiting receive count *)
  mutable pending : Iset.t;
  rng : Rng.t option;
  mutable nsteps : int;
}

(* Built, and resolved against the process defaults (backend, compiled
   dispatch), exactly as [Connector.create] builds one region. *)
let create ?(config = Config.new_jit) ?(policy = First) ~sources ~sinks
    mediums =
  let comp =
    Composer.of_config config ~backend:(Sched.effective ())
      ~compile:(Config.effective_compile ())
      ~sources:(Iset.of_list (Array.to_list sources))
      ~sinks:(Iset.of_list (Array.to_list sinks))
      mediums
  in
  {
    comp;
    cells = Array.make (max 1 (Composer.ncells comp)) None;
    send_q = Hashtbl.create 16;
    recv_q = Hashtbl.create 16;
    pending = Iset.empty;
    rng = (match policy with First -> None | Random seed -> Some (Rng.create seed));
    nsteps = 0;
  }

let send_queue t v =
  match Hashtbl.find_opt t.send_q v with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.send_q v q;
    q

let recv_count t v =
  match Hashtbl.find_opt t.recv_q v with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.recv_q v r;
    r

let offer t v x =
  Queue.push x (send_queue t v);
  t.pending <- Iset.add v t.pending

let demand t v =
  incr (recv_count t v);
  t.pending <- Iset.add v t.pending

type event = {
  ev_sync : Iset.t;
  ev_delivered : (Vertex.t * Value.t) list;
  ev_consumed : Vertex.t list;
}

let try_transition t (x : Composer.xtrans) =
  let read_send v = Queue.peek (send_queue t v) in
  let read_cell c =
    match t.cells.(c) with
    | Some v -> v
    | None -> failwith "sim: read from empty cell"
  in
  let staged_cells = ref [] and delivered = ref [] in
  let env =
    {
      Command.read_send;
      read_cell;
      write_cell = (fun c v -> staged_cells := (c, v) :: !staged_cells);
      deliver = (fun v value -> delivered := (v, value) :: !delivered);
    }
  in
  if not (Composer.fire t.comp x env) then None
  else begin
    List.iter (fun (c, v) -> t.cells.(c) <- Some v) !staged_cells;
    List.iter
      (fun (v, _) ->
        let r = recv_count t v in
        decr r;
        if !r = 0 then t.pending <- Iset.remove v t.pending)
      !delivered;
    let consumed = ref [] in
    Iset.iter
      (fun v ->
        consumed := v :: !consumed;
        let q = send_queue t v in
        ignore (Queue.pop q);
        if Queue.is_empty q then t.pending <- Iset.remove v t.pending)
      x.needs_send;
    Composer.commit t.comp x;
    t.nsteps <- t.nsteps + 1;
    Some { ev_sync = x.sync; ev_delivered = List.rev !delivered;
           ev_consumed = List.rev !consumed }
  end

let step t =
  let cands = Composer.candidates t.comp ~pending:t.pending in
  let n = Array.length cands in
  if n = 0 then None
  else begin
    let order =
      match t.rng with
      | None -> Array.init n Fun.id
      | Some rng ->
        let a = Array.init n Fun.id in
        Rng.shuffle rng a;
        a
    in
    let rec go i =
      if i >= n then None
      else
        match try_transition t cands.(order.(i)) with
        | Some ev -> Some ev
        | None -> go (i + 1)
    in
    go 0
  end

let run ?(max_steps = 10_000) t =
  let rec go acc k =
    if k >= max_steps then List.rev acc
    else
      match step t with
      | Some ev -> go (ev :: acc) (k + 1)
      | None -> List.rev acc
  in
  go [] 0

let pending_sends t =
  Hashtbl.fold
    (fun v q acc -> if Queue.is_empty q then acc else v :: acc)
    t.send_q []
  |> List.sort Vertex.compare

let pending_recvs t =
  Hashtbl.fold (fun v r acc -> if !r > 0 then v :: acc else acc) t.recv_q []
  |> List.sort Vertex.compare

let steps t = t.nsteps
let compiled_fires t = Composer.compiled_fires t.comp
let interp_fires t = Composer.interp_fires t.comp
