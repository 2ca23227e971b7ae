(* Spans recorded by the benchmark around its calls into each layer: name,
   start, end, parent span and the op they belong to. Kept in fixed-size
   arrays (recording stops when they are full) and written out at exit. A
   span's name is "<layer>.<call>"; its layer is the part before the dot. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable by_id : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  op : int array;
  mutable n : int;
  mu : Mutex.t;
}

let none = -1

let create cap =
  {
    names = Hashtbl.create 16;
    by_id = [||];
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap none;
    op = Array.make cap 0;
    n = 0;
    mu = Mutex.create ();
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.by_id in
    Hashtbl.replace t.names s i;
    t.by_id <- Array.append t.by_id [| s |];
    i

let count t = t.n

(* Returns the span's index, or [none] once the buffer is full. Safe from
   several threads: only the slot allocation is locked, and each slot is
   then written by the thread that owns it. *)
let enter t ~name ~parent ~op =
  Mutex.lock t.mu;
  let i = t.n in
  if i < Array.length t.name then t.n <- i + 1;
  Mutex.unlock t.mu;
  if i >= Array.length t.name then none
  else begin
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.op.(i) <- op;
    t.stop.(i) <- -1;
    t.start.(i) <- Mono.now_ns ();
    i
  end

let leave t i = if i <> none then t.stop.(i) <- Mono.now_ns ()

let layer_of name =
  match String.index_opt name '.' with
  | Some k -> String.sub name 0 k
  | None -> name

(* Self time of an interval [start, stop): its length minus the part that
   the union of its children's intervals covers (children are clipped to
   the parent, and overlapping children are counted once). *)
let self_time ~start ~stop (children : (int * int) list) =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let sorted = List.sort compare clipped in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc + (b - max a reach), b))
      (0, start) sorted
  in
  stop - start - covered

let closed t i = t.stop.(i) >= t.start.(i)

(* Per-layer self time, summed over closed spans. *)
let layer_self t =
  let kids = Array.make t.n [] in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p <> none && closed t i then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  let acc = Hashtbl.create 8 in
  for i = 0 to t.n - 1 do
    if closed t i then begin
      let l = layer_of t.by_id.(t.name.(i)) in
      let s = self_time ~start:t.start.(i) ~stop:t.stop.(i) kids.(i) in
      Hashtbl.replace acc l (s + Option.value ~default:0 (Hashtbl.find_opt acc l))
    end
  done;
  acc

(* Total duration of the closed root spans (those without a parent). *)
let root_total t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) = none && closed t i then s := !s + (t.stop.(i) - t.start.(i))
  done;
  !s

(* Durations of every closed span called [name]. *)
let durations t name =
  let out = Samples.create () in
  (match Hashtbl.find_opt t.names name with
   | None -> ()
   | Some id ->
     for i = 0 to t.n - 1 do
       if t.name.(i) = id && closed t i then Samples.add out (t.stop.(i) - t.start.(i))
     done);
  out

(* One line per span: name, start_ns, end_ns, parent index, op id. *)
let write t path =
  let oc = open_out path in
  output_string oc "# name\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" t.by_id.(t.name.(i)) t.start.(i)
      t.stop.(i) t.parent.(i) t.op.(i)
  done;
  close_out oc
