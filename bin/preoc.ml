(* preoc: command-line front end for the connector DSL.

     preoc check FILE                  parse + semantic check
     preoc print FILE                  pretty-print the parsed program
     preoc fmt FILE                    reformat a protocol file (canonical form)
     preoc flatten FILE CONN           flatten one definition
     preoc eval FILE CONN K=N ...      list the primitives for concrete sizes
     preoc automaton FILE CONN K=N ... compose and print the large automaton
     preoc dot FILE CONN K=N ...       Graphviz of the large automaton
     preoc graph FILE CONN K=N ...     Graphviz of the connector data flow
     preoc trace FILE CONN K=N ... [--json OUT] [--metrics]
                                       run 0.5s with port spammers under
                                       tracing; print the recorded events
                                       (or write Chrome trace JSON to OUT);
                                       --metrics appends the metrics registry
                                       in Prometheus text format
     preoc verify FILE CONN K=N ... [--prop P]
                                       deadlock/property check the composition
     preoc template FILE CONN          show the compile-time share
     preoc emit FILE CONN              generate a standalone OCaml module
     preoc simulate FILE CONN K=N ... [--backend B] [--deadline SECS]
                                      [--trace OUT]
                                       run with port-spamming tasks for 1s;
                                       --backend automata or coloring selects
                                       the round scheduler;
                                       with --deadline, a blocked operation
                                       times out and prints a stall report;
                                       with --trace, record under tracing and
                                       write Chrome trace JSON to OUT (also on
                                       the timed-out path)
     preoc compile FILE CONN K=N ... [--dump]
                                       lower every medium transition into a
                                       compiled dispatch entry and report
                                       the partition layout (regions,
                                       sequentializer merges); --dump prints
                                       the per-transition tables
     preoc catalog                     list the built-in connector families
     preoc worker --port P --token T [--retries N] [--backoff S]
                                       shard-fabric worker process; spawned
                                       by Shard.host, not usually by hand

   Unknown subcommands, missing arguments and malformed operands all print
   usage to stderr and exit 2. *)

module Ast = Preo_lang.Ast
module Parser = Preo_lang.Parser
module Eval = Preo_lang.Eval
module Template = Preo_lang.Template
module Iset = Preo_support.Iset
module Automaton = Preo_automata.Automaton
module Product = Preo_automata.Product
module Verify = Preo_verify.Verify

let usage () =
  prerr_endline
    "usage: preoc \
     {check|print|fmt|flatten|eval|automaton|dot|graph|trace|verify|template|\
     emit|simulate|compile} FILE [CONNECTOR] [ARR=N ...] [--backend \
     {automata|coloring}] [--deadline SECS] [--trace OUT] [--json OUT] \
     [--metrics] [--prop P] [--dump]\n\
     \       preoc catalog\n\
     \       preoc worker --port P --token T [--retries N] [--backoff S]";
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let bad_operand fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "preoc: %s\n" msg;
      usage ())
    fmt

let parse_lengths args =
  List.map
    (fun s ->
      match String.index_opt s '=' with
      | Some i -> begin
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some n -> (String.sub s 0 i, n)
        | None -> bad_operand "%s: expected ARR=N with integer N" s
      end
      | None -> bad_operand "%s: expected ARR=N" s)
    args

let parse_float_arg flag s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> bad_operand "%s %s: expected a number" flag s

let compiled path name = Preo.compile ~source:(read_file path) ~name

let large_automaton_full c lengths =
  let bindings, sources, sinks = Eval.boundary_of_def c.Preo.def ~lengths in
  let venv = Eval.venv ~ints:[] ~arrays:bindings in
  let prims = Eval.prims venv c.Preo.flat.Ast.c_body in
  let large = Product.all (Eval.small_automata prims) in
  let keep = Iset.of_list (Array.to_list sources @ Array.to_list sinks) in
  ( Automaton.trim
      (Automaton.hide (Iset.diff large.Automaton.vertices keep) large),
    bindings )

let large_automaton c lengths = fst (large_automaton_full c lengths)

let main () =
  match Array.to_list Sys.argv with
  | _ :: "catalog" :: _ ->
    List.iter
      (fun (e : Preo_connectors.Catalog.entry) ->
        Printf.printf "%-16s %s\n" e.name e.description)
      Preo_connectors.Catalog.all
  | _ :: "check" :: path :: _ ->
    ignore (Preo.parse_check (read_file path));
    print_endline "ok"
  | _ :: "print" :: path :: _ ->
    Format.printf "%a@." Ast.pp_program (Preo.parse_check (read_file path))
  | _ :: "fmt" :: path :: _ ->
    (* parse (without semantic checks, so fragments format too) and print *)
    let p =
      try Parser.program (read_file path)
      with Parser.Error (msg, line) ->
        Printf.eprintf "parse error (line %d): %s\n" line msg;
        exit 2
    in
    Format.printf "%a@." Ast.pp_program p
  | _ :: "flatten" :: path :: name :: _ ->
    let c = compiled path name in
    Format.printf "%a@." Ast.pp_conn_def c.Preo.flat
  | _ :: "template" :: path :: name :: _ ->
    let c = compiled path name in
    Printf.printf
      "compile-time share of %s: %d static medium template(s), %d \
       dynamic-arity constituent(s)\n"
      name
      (Template.count_static_mediums c.Preo.template)
      (Template.count_dynamic_mediums c.Preo.template)
  | _ :: "emit" :: path :: name :: _ ->
    let c = compiled path name in
    print_string
      (Preo_lang.Codegen.connector
         ~module_comment:(Printf.sprintf "Connector %s from %s" name path)
         c.Preo.template)
  | _ :: "eval" :: path :: name :: rest ->
    let c = compiled path name in
    let bindings, _, _ =
      Eval.boundary_of_def c.Preo.def ~lengths:(parse_lengths rest)
    in
    let venv = Eval.venv ~ints:[] ~arrays:bindings in
    List.iter
      (fun (p : Eval.prim_inst) ->
        Printf.printf "%s(%s;%s)\n"
          (Preo_reo.Prim.kind_name p.pi_kind)
          (String.concat ","
             (List.map Preo_automata.Vertex.name p.pi_tails))
          (String.concat ","
             (List.map Preo_automata.Vertex.name p.pi_heads)))
      (Eval.prims venv c.Preo.flat.Ast.c_body)
  | _ :: "automaton" :: path :: name :: rest ->
    let large = large_automaton (compiled path name) (parse_lengths rest) in
    Format.printf "%a@." Automaton.pp large
  | _ :: "graph" :: path :: name :: rest ->
    (* Dataflow rendering: vertices as circles, primitives as boxes. *)
    let c = compiled path name in
    let bindings, sources, sinks =
      Eval.boundary_of_def c.Preo.def ~lengths:(parse_lengths rest)
    in
    let venv = Eval.venv ~ints:[] ~arrays:bindings in
    let prims = Eval.prims venv c.Preo.flat.Ast.c_body in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=LR;\n" name);
    let vertex_attrs v =
      let vname = Preo_automata.Vertex.name v in
      let shape =
        if Array.exists (Preo_automata.Vertex.equal v) sources then
          ",style=filled,fillcolor=lightblue"
        else if Array.exists (Preo_automata.Vertex.equal v) sinks then
          ",style=filled,fillcolor=lightsalmon"
        else ""
      in
      Printf.sprintf "  v%d [label=\"%s\",shape=circle%s];\n" v vname shape
    in
    let seen = Hashtbl.create 32 in
    List.iteri
      (fun i (p : Eval.prim_inst) ->
        Buffer.add_string buf
          (Printf.sprintf "  p%d [label=\"%s\",shape=box];\n" i
             (Preo_reo.Prim.kind_name p.pi_kind));
        List.iter
          (fun v ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              Buffer.add_string buf (vertex_attrs v)
            end)
          (p.pi_tails @ p.pi_heads);
        List.iter
          (fun v -> Buffer.add_string buf (Printf.sprintf "  v%d -> p%d;\n" v i))
          p.pi_tails;
        List.iter
          (fun v -> Buffer.add_string buf (Printf.sprintf "  p%d -> v%d;\n" i v))
          p.pi_heads)
      prims;
    Buffer.add_string buf "}\n";
    print_string (Buffer.contents buf)
  | _ :: "trace" :: path :: name :: rest ->
    (* Run briefly under tracing and export what was recorded: the recorded
       rings as a human dump (default) or Chrome trace JSON (--json OUT),
       plus the metrics registry in Prometheus text format (--metrics). *)
    let json_out, metrics_wanted, rest =
      let rec split json metrics = function
        | "--json" :: out :: more -> split (Some out) metrics more
        | "--json" :: [] -> bad_operand "--json: missing output file"
        | "--metrics" :: more -> split json true more
        | x :: more ->
          let j, m, r = split json metrics more in
          (j, m, x :: r)
        | [] -> (json, metrics, [])
      in
      split None false rest
    in
    Preo.set_tracing true;
    let c = compiled path name in
    let inst = Preo.instantiate c ~lengths:(parse_lengths rest) in
    let threads =
      List.concat_map
        (fun (gname, is_source) ->
          if is_source then
            Array.to_list
              (Array.map
                 (fun p ->
                   Preo.Task.spawn (fun () ->
                       let i = ref 0 in
                       while !i < 5 do
                         Preo.Port.send p (Preo.Value.int !i);
                         incr i
                       done))
                 (Preo.outports inst gname))
          else
            Array.to_list
              (Array.map
                 (fun p ->
                   Preo.Task.spawn (fun () ->
                       while true do
                         ignore (Preo.Port.recv p)
                       done))
                 (Preo.inports inst gname)))
        (Preo.groups inst)
    in
    Thread.delay 0.5;
    Preo.shutdown inst;
    List.iter (fun t -> try Preo.Task.join t with _ -> ()) threads;
    (match json_out with
     | Some out ->
       write_file out (Preo.chrome_trace inst);
       Printf.printf "wrote %s\n" out
     | None -> print_string (Preo.dump_trace inst));
    if metrics_wanted then print_string (Preo.Metrics.to_prometheus ())
  | _ :: "dot" :: path :: name :: rest ->
    let large = large_automaton (compiled path name) (parse_lengths rest) in
    print_string (Preo_automata.Dot.automaton ~name large)
  | _ :: "verify" :: path :: name :: rest ->
    let props, rest =
      let rec split acc = function
        | "--prop" :: p :: more -> split (p :: acc) more
        | x :: more ->
          let ps, r = split acc more in
          (ps, x :: r)
        | [] -> (acc, [])
      in
      split [] rest
    in
    let large, bindings =
      large_automaton_full (compiled path name) (parse_lengths rest)
    in
    (* Drop what the runtime drops: transitions whose data constraint can
       never fire (Command.firable), which no schedule can take. *)
    let large = Automaton.trim (Automaton.optimize_labels large) in
    Printf.printf "%d reachable states, %d transitions\n" large.Automaton.nstates
      (Automaton.num_transitions large);
    (match Verify.deadlocks large with
     | [] -> print_endline "deadlock-free"
     | ce :: _ ->
       Printf.printf "DEADLOCK reachable after %d steps\n"
         (List.length ce.Verify.path);
       List.iter
         (fun (s, sync) ->
           let names = List.map Preo_automata.Vertex.name (Iset.elements sync) in
           Printf.printf "  state %d fires {%s}\n" s (String.concat ", " names))
         ce.Verify.path;
       Printf.printf "  state %d: no transition can fire\n" ce.Verify.state;
       exit 1);
    let resolve pname =
      (* "tl[2]" or scalar "hd" against the boundary bindings *)
      let base, idx =
        match String.index_opt pname '[' with
        | Some i ->
          ( String.sub pname 0 i,
            int_of_string
              (String.sub pname (i + 1) (String.length pname - i - 2)) )
        | None -> (pname, 1)
      in
      match List.assoc_opt base bindings with
      | Some vs when idx >= 1 && idx <= Array.length vs -> Some vs.(idx - 1)
      | _ -> None
    in
    List.iter
      (fun psrc ->
        match Preo_verify.Prop.parse psrc with
        | Error msg ->
          Printf.printf "property %S: parse error: %s\n" psrc msg;
          exit 2
        | Ok prop -> begin
          match Preo_verify.Prop.check ~resolve large prop with
          | Ok () -> Printf.printf "property %S holds\n" psrc
          | Error msg ->
            Printf.printf "property %S FAILS: %s\n" psrc msg;
            exit 1
        end)
      (List.rev props)
  | _ :: "compile" :: rest ->
    (* Static view of what the run-time dispatch compiler will do: every
       medium transition is solved and lowered exactly as the composer's
       [lower] would (the JIT builds product entries on demand from these),
       and the partitioner runs with sequentialization on, so the printed
       region layout is the one a partitioned instantiation would use. *)
    let dump, rest =
      let rec split d = function
        | "--dump" :: more -> split true more
        | x :: more ->
          let d', r = split d more in
          (d', x :: r)
        | [] -> (d, [])
      in
      split false rest
    in
    (match rest with
     | path :: name :: rest ->
       let c = compiled path name in
       let bindings, sources, sinks =
         Eval.boundary_of_def c.Preo.def ~lengths:(parse_lengths rest)
       in
       let venv = Eval.venv ~ints:[] ~arrays:bindings in
       let autos = Eval.small_automata (Eval.prims venv c.Preo.flat.Ast.c_body) in
       let plan =
         Preo_runtime.Partition.split ~sequentialize:true
           ~sources:(Iset.of_list (Array.to_list sources))
           ~sinks:(Iset.of_list (Array.to_list sinks))
           autos
       in
       Printf.printf "%s: %d medium(s), %d region(s), %d bridge(s), %d fused\n"
         name (List.length autos)
         (Array.length plan.Preo_runtime.Partition.regions)
         plan.Preo_runtime.Partition.nbridges
         plan.Preo_runtime.Partition.nfused;
       let ncompiled = ref 0 and ninterp = ref 0 and nunsat = ref 0 in
       let sync_names sync =
         let acc = ref [] in
         Iset.iter (fun v -> acc := Preo_automata.Vertex.name v :: !acc) sync;
         String.concat "," (List.rev !acc)
       in
       Array.iteri
         (fun ri (r : Preo_runtime.Partition.region) ->
           Printf.printf "region %d: %d medium(s)%s\n" ri
             (List.length r.Preo_runtime.Partition.mediums)
             (match r.Preo_runtime.Partition.bridge_peers with
              | [] -> ""
              | ps ->
                " bridges to "
                ^ String.concat "," (List.map string_of_int ps));
           List.iteri
             (fun mi (a : Automaton.t) ->
               if dump then Printf.printf "  medium %d.%d:\n" ri mi;
               Array.iteri
                 (fun s trs ->
                   Array.iter
                     (fun (tr : Automaton.trans) ->
                       let entry =
                         match
                           Preo_automata.Command.solve
                             ~readable:
                               (Iset.inter a.Automaton.sources tr.Automaton.sync)
                             ~writable:
                               (Iset.inter a.Automaton.sinks tr.Automaton.sync)
                             tr.Automaton.constr
                         with
                         | Error _ ->
                           incr nunsat;
                           "unsatisfiable (never fires)"
                         | Ok cmd -> begin
                           match Preo_automata.Command.compile cmd with
                           | Some k ->
                             incr ncompiled;
                             Printf.sprintf "compiled, %d residual guard(s)"
                               (Preo_automata.Command.compiled_nguards k)
                           | None ->
                             incr ninterp;
                             "interpreted (late-bound data function)"
                         end
                       in
                       if dump then
                         Printf.printf "    s%d --{%s}--> s%d  %s\n" s
                           (sync_names tr.Automaton.sync) tr.Automaton.target
                           entry)
                     trs)
                 a.Automaton.trans)
             r.Preo_runtime.Partition.mediums)
         plan.Preo_runtime.Partition.regions;
       Printf.printf
         "dispatch: %d compiled, %d interpreted, %d unsatisfiable\n" !ncompiled
         !ninterp !nunsat
     | _ -> bad_operand "compile: expected FILE CONNECTOR [ARR=N ...] [--dump]")
  | _ :: "worker" :: rest ->
    (* Shard-fabric worker: connect back to the host, rebuild the plan from
       the shipped configuration, run assigned regions until closed. Errors
       here are operational, not usage mistakes — report and exit without
       printing usage (the host's manager interprets the code). *)
    let port = ref None
    and token = ref None
    and retries = ref None
    and backoff = ref None in
    let rec parse = function
      | "--port" :: v :: more ->
        port := int_of_string_opt v;
        parse more
      | "--token" :: v :: more ->
        token := Some v;
        parse more
      | "--retries" :: v :: more ->
        retries := int_of_string_opt v;
        parse more
      | "--backoff" :: v :: more ->
        backoff := float_of_string_opt v;
        parse more
      | [] -> ()
      | x :: _ -> bad_operand "worker: unexpected argument %s" x
    in
    parse rest;
    (match (!port, !token) with
     | Some port, Some token ->
       let code =
         try
           Preo_dist.Shard.worker_main ?retries:!retries ?backoff:!backoff
             ~port ~token ()
         with e ->
           Printf.eprintf "preoc worker %s: %s\n" token (Printexc.to_string e);
           1
       in
       exit code
     | _ -> bad_operand "worker: expected --port P --token T")
  | _ :: "simulate" :: path :: name :: rest ->
    (* --deadline SECS: every port operation of the spamming tasks carries
       a deadline. On expiry the stall report is printed (which pending
       vertices, how many enabled transitions, engine counters) and the
       connector is poisoned with the report attached, so this doubles as a
       runtime deadlock detector for protocols too big to verify
       statically. *)
    let deadline_s, trace_out, backend, rest =
      let rec split dl tr bk = function
        | "--deadline" :: s :: more ->
          split (Some (parse_float_arg "--deadline" s)) tr bk more
        | "--deadline" :: [] -> bad_operand "--deadline: missing seconds"
        | "--trace" :: out :: more -> split dl (Some out) bk more
        | "--trace" :: [] -> bad_operand "--trace: missing output file"
        | "--backend" :: b :: more -> begin
          match Preo.Sched.of_string b with
          | Some bk -> split dl tr (Some bk) more
          | None ->
            bad_operand "--backend %s: expected 'automata' or 'coloring'" b
        end
        | "--backend" :: [] -> bad_operand "--backend: missing name"
        | x :: more ->
          let d, t, b, r = split dl tr bk more in
          (d, t, b, x :: r)
        | [] -> (dl, tr, bk, [])
      in
      split None None None rest
    in
    if trace_out <> None then Preo.set_tracing true;
    let c = compiled path name in
    let inst = Preo.instantiate ?backend c ~lengths:(parse_lengths rest) in
    let write_trace () =
      match trace_out with
      | Some out ->
        write_file out (Preo.chrome_trace inst);
        Printf.printf "wrote %s\n" out
      | None -> ()
    in
    let stall_lock = Mutex.create () in
    let stall : Preo.Engine.stall_report option ref = ref None in
    let on_timeout (r : Preo.Engine.stall_report) =
      Mutex.lock stall_lock;
      if !stall = None then stall := Some r;
      Mutex.unlock stall_lock;
      Preo.Connector.poison ~stall:r (Preo.connector inst) "deadline expired";
      raise (Preo.Engine.Timed_out r)
    in
    let deadline () = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
    let threads =
      List.concat_map
        (fun (gname, is_source) ->
          if is_source then
            Array.to_list
              (Array.map
                 (fun p ->
                   Preo.Task.spawn (fun () ->
                       let i = ref 0 in
                       while true do
                         (try Preo.Port.send ?deadline:(deadline ()) p
                                (Preo.Value.int !i)
                          with Preo.Engine.Timed_out r -> on_timeout r);
                         incr i
                       done))
                 (Preo.outports inst gname))
          else
            Array.to_list
              (Array.map
                 (fun p ->
                   Preo.Task.spawn (fun () ->
                       while true do
                         try ignore (Preo.Port.recv ?deadline:(deadline ()) p)
                         with Preo.Engine.Timed_out r -> on_timeout r
                       done))
                 (Preo.inports inst gname)))
        (Preo.groups inst)
    in
    Thread.delay 1.0;
    Format.printf "%a@." Preo.Connector.pp_stats
      (Preo.Connector.stats (Preo.connector inst));
    Preo.shutdown inst;
    List.iter (fun t -> try Preo.Task.join t with _ -> ()) threads;
    write_trace ();
    (match !stall with
     | None -> ()
     | Some r ->
       Printf.printf "TIMED OUT after %.3fs:\n%s\n" r.Preo.Engine.sr_waited
         (Preo.Engine.string_of_stall_report r);
       exit 1)
  | _ -> usage ()

(* Every failure mode of a CLI invocation — unknown subcommand (the fallback
   match arm), unreadable file, parse/check errors, malformed operands —
   lands on stderr with usage and exit code 2; only a connector that
   actually deadlocked or failed a property exits 1. *)
let () =
  try main () with
  | Preo.Error msg | Failure msg | Sys_error msg ->
    Printf.eprintf "preoc: %s\n" msg;
    usage ()
  | Preo.Connector.Compile_failure msg ->
    Printf.eprintf "preoc: composition failed: %s\n" msg;
    exit 1
