open Preo_support

type outcome =
  | Steps of {
      steps : int;
      compile_seconds : float;
      run_seconds : float;
      stats : Preo.Connector.stats;
    }
  | Compile_failed of string
  | Run_failed of string

(* [batch > 1] hammers each port with the batch API instead of one
   blocking op at a time: one lock-free publication burst and at most one
   park per [batch] values — the submission pattern the engines' MPSC
   queues exist to amortize. *)
let port_threads ?(batch = 1) inst =
  let bodies = ref [] in
  List.iter
    (fun (name, is_source) ->
      if is_source then
        Array.iter
          (fun p ->
            bodies :=
              (if batch > 1 then (fun () ->
                 let i = ref 0 in
                 while true do
                   Preo.Port.send_batch p
                     (List.init batch (fun k -> Value.int (!i + k)));
                   i := !i + batch
                 done)
               else fun () ->
                 let i = ref 0 in
                 while true do
                   Preo.Port.send p (Value.int !i);
                   incr i
                 done)
              :: !bodies)
          (Preo.outports inst name)
      else
        Array.iter
          (fun p ->
            bodies :=
              (if batch > 1 then (fun () ->
                 while true do
                   ignore (Preo.Port.recv_batch p batch)
                 done)
               else fun () ->
                 while true do
                   ignore (Preo.Port.recv p)
                 done)
              :: !bodies)
          (Preo.inports inst name))
    (Preo.groups inst);
  !bodies

let dbg fmt =
  if Sys.getenv_opt "PREO_DRIVER_DEBUG" <> None then
    Printf.eprintf ("[driver] " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let run_window ?config ?backend ?domains ?batch ~seconds entry n =
  let compiled = Catalog.compiled entry in
  match
    Preo.instantiate ?config ?backend ?domains compiled
      ~lengths:(entry.Catalog.lengths n)
  with
  | exception Preo.Connector.Compile_failure msg -> Compile_failed msg
  | inst ->
    dbg "instantiated %s" entry.Catalog.name;
    let conn = Preo.connector inst in
    let threads =
      List.map (Preo.Task.spawn ~on:(Preo.sched inst)) (port_threads ?batch inst)
    in
    dbg "spawned %d" (List.length threads);
    Thread.delay seconds;
    let steps = Preo.steps inst in
    let run_seconds = seconds in
    dbg "window over, steps=%d; shutting down" steps;
    let stats = Preo.Connector.stats conn in
    Preo.shutdown inst;
    dbg "poisoned; joining";
    List.iteri
      (fun i t ->
        dbg "join %d" i;
        try Preo.Task.join t with _ -> ())
      threads;
    dbg "joined";
    (match Preo.Connector.failure conn with
     | Some msg -> Run_failed msg
     | None ->
       Steps
         {
           steps;
           compile_seconds = Preo.Connector.compile_seconds conn;
           run_seconds;
           stats;
         })

let run_noop ?config ?backend ?domains ?batch ?(seconds = 0.2) entry ~n =
  run_window ?config ?backend ?domains ?batch ~seconds entry n

let smoke ?config ?backend entry ~n =
  match run_window ?config ?backend ~seconds:0.05 entry n with
  | Steps { steps; _ } -> Ok steps
  | Compile_failed msg -> Error ("compile: " ^ msg)
  | Run_failed msg -> Error ("run: " ^ msg)
