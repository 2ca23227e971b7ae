(* Compiled transition dispatch certified against the interpreted
   reference:
   - every solved catalog command agrees with its closure-compiled form on
     randomized environments — verdict, cell writes and deliveries, in
     order (the per-label equivalence behind the dispatch swap);
   - every catalog family executes with compilation on and off under both
     backends; compiled runs fire through closures (st_compiled_fires),
     the PREO_COMPILE=0 reference never does;
   - randomized chains transport identical data and count identical steps
     compiled vs interpreted;
   - splicing a live compiled instance rebuilds the compiled tables (grow
     and shrink keep firing through closures);
   - the sequencer ring is sequentialized to a single region and its
     grant order matches the unfused reference. *)

open Preo_support
open Preo_automata
module Catalog = Preo_connectors.Catalog
module Driver = Preo_connectors.Driver
module Config = Preo_runtime.Config
module Connector = Preo_runtime.Connector
module Partition = Preo_runtime.Partition
module Port = Preo_runtime.Port
module Task = Preo_runtime.Task
module Sched = Preo_runtime.Sched

(* --- per-label equivalence: compiled ≡ interpreted over the catalog ------- *)

type effect_ = E_cell of int * Value.t | E_sink of Vertex.t * Value.t

let effects_equal a b =
  List.compare_lengths a b = 0
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | E_cell (i, v), E_cell (j, w) -> i = j && Value.equal v w
         | E_sink (p, v), E_sink (q, w) -> Vertex.equal p q && Value.equal v w
         | _ -> false)
       a b

(* Deterministic environment: the same (seed, vertex/cell) always yields the
   same value, so the interpreted and compiled runs see identical inputs;
   writes and deliveries are logged, not applied. *)
let mk_env ~seed log =
  {
    Command.read_send =
      (fun v -> Value.int ((seed * 131) + (Hashtbl.hash v land 0xfff)));
    read_cell = (fun i -> Value.int ((seed * 31) + (7 * i) + 3));
    write_cell = (fun i x -> log := E_cell (i, x) :: !log);
    deliver = (fun v x -> log := E_sink (v, x) :: !log);
  }

let catalog_commands_agree () =
  let ncompiled = ref 0 and nexotic = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      let c = Catalog.compiled e in
      let bindings, _, _ =
        Preo_lang.Eval.boundary_of_def c.Preo.def ~lengths:(e.Catalog.lengths 3)
      in
      let venv = Preo_lang.Eval.venv ~ints:[] ~arrays:bindings in
      let prims = Preo_lang.Eval.prims venv c.Preo.flat.Preo.Ast.c_body in
      let autos = Preo_lang.Eval.small_automata prims in
      List.iter
        (fun (a : Automaton.t) ->
          Array.iter
            (Array.iter (fun (tr : Automaton.trans) ->
                 match
                   Command.solve
                     ~readable:(Iset.inter a.Automaton.sources tr.Automaton.sync)
                     ~writable:(Iset.inter a.Automaton.sinks tr.Automaton.sync)
                     tr.Automaton.constr
                 with
                 | Error _ -> () (* never fires; nothing to dispatch *)
                 | Ok cmd -> (
                   match Command.compile cmd with
                   | None -> incr nexotic
                   | Some k ->
                     incr ncompiled;
                     for seed = 1 to 5 do
                       let ilog = ref [] and clog = ref [] in
                       let ienv = mk_env ~seed ilog
                       and cenv = mk_env ~seed clog in
                       let ifired = Command.guards_hold cmd ienv in
                       if ifired then Command.execute cmd ienv;
                       let cfired = Command.fire_compiled k cenv in
                       Alcotest.(check bool)
                         (e.Catalog.name ^ ": verdict agrees")
                         ifired cfired;
                       Alcotest.(check bool)
                         (e.Catalog.name ^ ": effects agree")
                         true
                         (effects_equal (List.rev !ilog) (List.rev !clog))
                     done)))
            a.Automaton.trans)
        autos)
    Catalog.all;
  Alcotest.(check bool) "catalog exercises compiled commands" true
    (!ncompiled > 100);
  Alcotest.(check int) "stock catalog has no exotic commands" 0 !nexotic

(* --- the whole catalog executes, compiled and interpreted, both backends -- *)

let catalog_runs_both_modes () =
  List.iter
    (fun backend ->
      let bname = Sched.to_string backend in
      List.iter
        (fun (e : Catalog.entry) ->
          List.iter
            (fun mode ->
              let saved = !Config.compile in
              Fun.protect
                ~finally:(fun () -> Config.compile := saved)
                (fun () ->
                  Config.compile := Some mode;
                  let label =
                    Printf.sprintf "%s/%s/compile=%b" e.Catalog.name bname mode
                  in
                  match Driver.run_noop ~backend ~seconds:0.02 e ~n:3 with
                  | Driver.Steps { steps; stats; _ } ->
                    Alcotest.(check bool) (label ^ " progresses") true
                      (steps > 0);
                    if mode then
                      Alcotest.(check bool)
                        (label ^ " fires through closures")
                        true
                        (stats.Connector.st_compiled_fires > 0)
                    else
                      Alcotest.(check int)
                        (label ^ " reference never compiles")
                        0 stats.Connector.st_compiled_fires
                  | Driver.Compile_failed msg | Driver.Run_failed msg ->
                    Alcotest.fail (label ^ ": " ^ msg)))
            [ true; false ])
        Catalog.all)
    [ Sched.Automata; Sched.Coloring ]

(* --- randomized value/step agreement -------------------------------------- *)

type stage = St_sync | St_fifo | St_incr | St_full

let build_chain rng len =
  let stages =
    List.init len (fun _ ->
        match Rng.int rng 4 with
        | 0 -> St_sync
        | 1 -> St_fifo
        | 2 -> St_incr
        | _ -> St_full)
  in
  let a = Vertex.fresh "in" in
  let rec go tail = function
    | [] -> ([], tail)
    | st :: rest ->
      let head = Vertex.fresh "v" in
      let auto =
        match st with
        | St_sync ->
          Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ tail ] ~heads:[ head ]
        | St_fifo ->
          Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ tail ]
            ~heads:[ head ]
        | St_incr ->
          Preo_reo.Prim.build
            (Preo_reo.Prim.Transform "incr")
            ~tails:[ tail ] ~heads:[ head ]
        | St_full ->
          Preo_reo.Prim.build
            (Preo_reo.Prim.Fifo1_full (Value.int 0))
            ~tails:[ tail ] ~heads:[ head ]
      in
      let autos, last = go head rest in
      (auto :: autos, last)
  in
  let autos, b = go a stages in
  (autos, a, b)

let run_chain config compile autos a b nitems =
  let conn =
    Connector.create ~config ~compile ~sources:[| a |] ~sinks:[| b |] autos
  in
  let got = ref [] in
  Task.run_all
    [
      (fun () ->
        for i = 1 to nitems do
          Port.send (Connector.outport conn a) (Value.int (i * 100))
        done);
      (fun () ->
        for _ = 1 to nitems do
          got := Value.to_int (Port.recv (Connector.inport conn b)) :: !got
        done);
    ];
  let steps = Connector.steps conn in
  let stats = Connector.stats conn in
  Connector.poison conn "done";
  (List.rev !got, steps, stats)

let chains_agree_compiled_vs_interpreted () =
  let rng = Rng.create 9099 in
  for _case = 1 to 8 do
    let len = 1 + Rng.int rng 6 in
    let descr_rng = Rng.copy rng in
    List.iter
      (fun (cname, config, compare_steps) ->
        let run compile =
          let rng' = Rng.copy descr_rng in
          let autos, a, b = build_chain rng' len in
          run_chain config compile autos a b 8
        in
        let ivals, isteps, istats = run false in
        let cvals, csteps, cstats = run true in
        Alcotest.(check (list int))
          (Printf.sprintf "values len=%d config=%s" len cname)
          ivals cvals;
        (* Sequentialization legitimately changes the partitioned step
           count: fused fifos fire as ordinary transitions where the
           unfused run hands values across a bridge queue. *)
        if compare_steps then
          Alcotest.(check int)
            (Printf.sprintf "steps len=%d config=%s" len cname)
            isteps csteps;
        Alcotest.(check int)
          (cname ^ " reference never compiles")
          0 istats.Connector.st_compiled_fires;
        Alcotest.(check bool)
          (cname ^ " compiled run uses closures")
          true
          (cstats.Connector.st_compiled_fires > 0
          && cstats.Connector.st_interp_fires = 0))
      [
        ("jit", Config.new_jit, true);
        ("partitioned", Config.new_partitioned, false);
      ];
    ignore (build_chain rng len)
  done

(* --- splice on a live compiled instance ----------------------------------- *)

let bcast_src =
  {|NBcastFifo(tl;hd[]) =
  Repl(tl;x[1..#hd])
  mult prod (i:1..#hd) Fifo1(x[i];hd[i])|}

let splice_rebuilds_compiled_tables () =
  let open Preo in
  let c = compile ~source:bcast_src ~name:"NBcastFifo" in
  let inst = instantiate ~compile:true c ~lengths:[ ("hd", 2) ] in
  Fun.protect
    ~finally:(fun () -> shutdown inst)
    (fun () ->
      (* Tasks only record what they receive; the checks run on the caller
         after the join, because Alcotest's formatter is not domain-safe. *)
      let bcast n v =
        let got = Array.make n 0 in
        Task.run_all ~on:(sched inst)
          ((fun () -> Port.send (outports inst "tl").(0) (Value.int v))
          :: List.init n (fun k -> fun () ->
                 got.(k) <-
                   Value.to_int (Port.recv (inport_at inst "hd" (k + 1)))));
        Alcotest.(check (list int)) "broadcast value" (List.init n (fun _ -> v))
          (Array.to_list got)
      in
      bcast 2 7;
      let fires0 =
        (Connector.stats (connector inst)).Connector.st_compiled_fires
      in
      Alcotest.(check bool) "compiled before splice" true (fires0 > 0);
      ignore (grow inst "hd");
      bcast 3 8;
      let fires1 =
        (Connector.stats (connector inst)).Connector.st_compiled_fires
      in
      Alcotest.(check bool) "grown tables compiled" true (fires1 > fires0);
      shrink inst "hd";
      bcast 2 9;
      let st = Connector.stats (connector inst) in
      Alcotest.(check bool) "shrunk tables compiled" true
        (st.Connector.st_compiled_fires > fires1);
      Alcotest.(check int) "nothing fell back to interpretation" 0
        st.Connector.st_interp_fires)

(* --- sequentialization: fused ≡ unfused on the sequencer ring ------------- *)

let seq_src =
  {|NSequencer(;hd[]) =
  prod (i:1..#hd) Repl2(v[i];hd[i],u[i])
  mult prod (i:1..#hd-1) Fifo1(u[i];v[i+1])
  mult Fifo1Full(u[#hd];v[1])|}

let sequencer_fuses_to_one_region () =
  let open Preo in
  let n = 4 in
  let rounds inst k =
    (* One receiver walking the ring in grant order: any deviation from
       strict round-robin deadlocks and trips the deadline. *)
    for _ = 1 to k do
      for i = 1 to n do
        ignore (Port.recv ~deadline:5.0 (inport_at inst "hd" i))
      done
    done
  in
  let c = compile ~source:seq_src ~name:"NSequencer" in
  let run cmode =
    let inst =
      instantiate ~config:Config.new_partitioned ~domains:2 ~compile:cmode c
        ~lengths:[ ("hd", n) ]
    in
    Fun.protect
      ~finally:(fun () -> shutdown inst)
      (fun () ->
        rounds inst 3;
        (Connector.nregions (connector inst),
         Connector.regions_fused (connector inst)))
  in
  let uregions, ufused = run false in
  let fregions, ffused = run true in
  Alcotest.(check int) "unfused split keeps the ring cut" n uregions;
  Alcotest.(check int) "unfused run reports no merges" 0 ufused;
  Alcotest.(check int) "ring sequentialized to one region" 1 fregions;
  Alcotest.(check int) "all cuts merged" (n - 1) ffused

let tests =
  [
    ("catalog: compiled ≡ interpreted commands", `Quick, catalog_commands_agree);
    ("catalog runs compiled and interpreted (both backends)", `Slow,
     catalog_runs_both_modes);
    ("random chains agree compiled vs interpreted", `Quick,
     chains_agree_compiled_vs_interpreted);
    ("splice rebuilds compiled tables", `Quick, splice_rebuilds_compiled_tables);
    ("sequencer fuses to one region", `Quick, sequencer_fuses_to_one_region);
  ]
