(* The coloring backend certified against the automata semantics:
   - Coloring.lts is label-bisimilar to the interleaving product over the
     full connector catalog (the ISSUE's equivalence obligation);
   - randomized connector networks transport identical data and count
     identical steps under both backends (and under partitioned coloring);
   - the §V-C blow-up family (lossy_bcast) at N=64 defeats both automata
     paths within a small budget while the coloring backend executes it;
   - budget diagnostics name the connector and report how far composition
     got (satellite: Explore/Product error enrichment);
   - backend resolution and downgrade rules (Existing, true_synchronous);
   - deadline storms, stall reports and the watchdog behave identically on
     the coloring backend (satellite: timer parity);
   - elastic splices keep working when rounds are resolved by coloring;
   - resolution from a pending subset yields exactly the all-pending rounds
     whose boundary flow it covers, each once, and the resolver's scratch
     state survives an aborted resolution;
   - iterations and minor words per round stay flat from N=16 to N=256. *)

open Preo_support
open Preo_automata
module Coloring = Preo_coloring.Coloring
module Bisim = Preo_verify.Bisim
module Catalog = Preo_connectors.Catalog
module Driver = Preo_connectors.Driver
module Config = Preo_runtime.Config
module Connector = Preo_runtime.Connector
module Composer = Preo_runtime.Composer
module Engine = Preo_runtime.Engine
module Port = Preo_runtime.Port
module Task = Preo_runtime.Task
module Sched = Preo_runtime.Sched

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- backend selection ---------------------------------------------------- *)

let sched_unit () =
  Alcotest.(check bool) "coloring parses" true
    (Sched.of_string "coloring" = Some Sched.Coloring);
  Alcotest.(check bool) "case-insensitive" true
    (Sched.of_string "COLORING" = Some Sched.Coloring);
  Alcotest.(check bool) "automata parses" true
    (Sched.of_string "Automata" = Some Sched.Automata);
  Alcotest.(check bool) "unknown rejected" true (Sched.of_string "bogus" = None);
  Alcotest.(check string) "roundtrip" "coloring"
    (Sched.to_string Sched.Coloring);
  let saved = !Sched.backend in
  Fun.protect
    ~finally:(fun () -> Sched.backend := saved)
    (fun () ->
      Sched.backend := None;
      Alcotest.(check bool) "default automata" true
        (Sched.effective () = Sched.Automata);
      Sched.backend := Some Sched.Coloring;
      Alcotest.(check bool) "process default wins over automata" true
        (Sched.effective () = Sched.Coloring);
      Alcotest.(check bool) "explicit request wins over default" true
        (Sched.effective ~requested:Sched.Automata () = Sched.Automata))

(* --- equivalence: coloring ~ product over the catalog ---------------------- *)

(* The primitive automata of a catalog entry at size [n], with its
   boundary. *)
let catalog_autos (e : Catalog.entry) n =
  let c = Catalog.compiled e in
  let bindings, sources, sinks =
    Preo_lang.Eval.boundary_of_def c.Preo.def ~lengths:(e.Catalog.lengths n)
  in
  let venv = Preo_lang.Eval.venv ~ints:[] ~arrays:bindings in
  let prims = Preo_lang.Eval.prims venv c.Preo.flat.Preo.Ast.c_body in
  ( Preo_lang.Eval.small_automata prims,
    Iset.of_list (Array.to_list sources),
    Iset.of_list (Array.to_list sinks) )

let catalog_bisimulation () =
  List.iter
    (fun (e : Catalog.entry) ->
      let autos, srcs, snks = catalog_autos e 3 in
      let keep = Iset.union srcs snks in
      let restrict a =
        Automaton.trim (Automaton.hide (Iset.diff a.Automaton.vertices keep) a)
      in
      let reference = restrict (Product.all autos) in
      let colored = restrict (Coloring.lts ~sources:srcs ~sinks:snks autos) in
      Alcotest.(check bool)
        (e.Catalog.name ^ " coloring ~ product")
        true
        (Bisim.equivalent reference colored))
    Catalog.all

(* --- randomized agreement -------------------------------------------------- *)

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
          Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ tail ]
            ~heads:[ head ]
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

let run_chain config backend autos a b nitems =
  let conn =
    Connector.create ~config ~backend ~sources:[| a |] ~sinks:[| b |] autos
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

(* Partitioned connectors legitimately count fewer global steps than the
   monolithic runtime (bridge hand-offs replace fifo hops), so each
   coloring run is compared against an automata run of the SAME config:
   values and step counts must both coincide. *)
let chains_agree () =
  let rng = Rng.create 4242 in
  for _case = 1 to 10 do
    let len = 1 + Rng.int rng 6 in
    let descr_rng = Rng.copy rng in
    List.iter
      (fun (cname, config) ->
        let run backend =
          let rng' = Rng.copy descr_rng in
          let autos, a, b = build_chain rng' len in
          run_chain config backend autos a b 8
        in
        let rvals, rsteps, _ = run Sched.Automata in
        let cvals, csteps, stats = run Sched.Coloring in
        Alcotest.(check (pair (list int) int))
          (Printf.sprintf "case len=%d config=%s" len cname)
          (rvals, rsteps) (cvals, csteps);
        Alcotest.(check bool)
          (cname ^ " resolved by coloring")
          true
          (stats.Connector.st_color_rounds > 0
          && stats.Connector.st_color_iters >= stats.Connector.st_color_rounds))
      [ ("jit", Config.new_jit); ("partitioned", Config.new_partitioned) ];
    ignore (build_chain rng len)
  done

(* A replicator fanning [a] out to [k] lanes, each a fifo except lane
   [incr_lane], a transform. *)
let build_fanout k incr_lane =
  let a = Vertex.fresh "a" in
  let mids = Array.init k (fun _ -> Vertex.fresh "m") in
  let outs = Array.init k (fun _ -> Vertex.fresh "o") in
  let autos =
    Preo_reo.Prim.build Preo_reo.Prim.Replicator ~tails:[ a ]
      ~heads:(Array.to_list mids)
    :: List.init k (fun i ->
           if i = incr_lane then
             Preo_reo.Prim.build
               (Preo_reo.Prim.Transform "incr")
               ~tails:[ mids.(i) ] ~heads:[ outs.(i) ]
           else
             Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ mids.(i) ]
               ~heads:[ outs.(i) ])
  in
  (autos, a, outs)

let fanout_agree () =
  let rng = Rng.create 88 in
  for _case = 1 to 4 do
    let k = 2 + Rng.int rng 4 in
    let incr_lane = Rng.int rng k in
    let run config backend =
      let autos, a, outs = build_fanout k incr_lane in
      let conn =
        Connector.create ~config ?backend ~sources:[| a |] ~sinks:outs autos
      in
      let lanes = Array.make k [] in
      let lock = Mutex.create () in
      Task.run_all
        ((fun () ->
           for i = 1 to 5 do
             Port.send (Connector.outport conn a) (Value.int i)
           done)
        :: List.init k (fun i -> fun () ->
               for _ = 1 to 5 do
                 let x =
                   Value.to_int (Port.recv (Connector.inport conn outs.(i)))
                 in
                 Mutex.lock lock;
                 lanes.(i) <- x :: lanes.(i);
                 Mutex.unlock lock
               done));
      Connector.poison conn "done";
      Array.map List.rev lanes
    in
    let reference = run Config.existing None in
    List.iter
      (fun (name, config) ->
        let got = run config (Some Sched.Coloring) in
        Array.iteri
          (fun i lane ->
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d lane=%d %s" k i name)
              reference.(i) lane)
          got)
      [ ("coloring", Config.new_jit); ("coloring-part", Config.new_partitioned) ]
  done

(* --- round-set oracle --------------------------------------------------- *)

let resolve_all ?(rot = 0) col ~current ~pending =
  fst
    (Coloring.resolve col ~current ~pending ~rot ~max_rounds:max_int
       ~budget:max_int)

let keys rounds =
  List.sort compare (List.map (fun r -> r.Coloring.r_key) rounds)

(* Pending sets to try: every subset of the boundary when there are at most
   64, else the empty set and 32 seeded draws. *)
let pending_subsets rng boundary =
  let vs = Iset.elements boundary in
  if List.length vs <= 6 then
    List.init
      (1 lsl List.length vs)
      (fun m ->
        Iset.of_list (List.filteri (fun i _ -> m land (1 lsl i) <> 0) vs))
  else
    Iset.empty
    :: List.init 32 (fun _ -> Iset.filter (fun _ -> Rng.bool rng) boundary)

(* Explores up to [max_states] local-state vectors that resolution reaches
   with every boundary vertex pending. At each, the rounds resolved from a
   pending subset [p] must be exactly the all-pending rounds whose boundary
   flow lies in [p], none twice, each with its moves in ascending slot
   order. Returns how many fully internal rounds it met. *)
let check_round_sets ?(max_states = 32) name ~sources ~sinks autos =
  let col = Coloring.make ~sources ~sinks (Array.of_list autos) in
  let boundary = Coloring.boundary col in
  let rng = Rng.create 17 in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit vec =
    if (not (Hashtbl.mem seen vec)) && Hashtbl.length seen < max_states
    then begin
      Hashtbl.add seen vec ();
      Queue.push vec queue
    end
  in
  let well_formed what rounds =
    let ks = keys rounds in
    if List.length (List.sort_uniq compare ks) <> List.length ks then
      Alcotest.failf "%s: a round resolved twice (%s)" name what;
    List.iter
      (fun (r : Coloring.round) ->
        Array.iteri
          (fun i (j, _) ->
            if i > 0 && fst r.r_moves.(i - 1) >= j then
              Alcotest.failf "%s: moves out of slot order in %s" name r.r_key)
          r.r_moves)
      rounds
  in
  visit (Array.map (fun (a : Automaton.t) -> a.initial) (Coloring.mediums col));
  let nstates = ref 0 and internal = ref 0 in
  while not (Queue.is_empty queue) do
    let current = Queue.pop queue in
    incr nstates;
    let full = resolve_all col ~current ~pending:boundary in
    well_formed "all pending" full;
    List.iter
      (fun (r : Coloring.round) ->
        if Iset.disjoint r.r_sync boundary then incr internal;
        let next = Array.copy current in
        Array.iter (fun (j, s) -> next.(j) <- s) r.r_moves;
        visit next)
      full;
    List.iteri
      (fun i p ->
        let got = resolve_all ~rot:(i + !nstates) col ~current ~pending:p in
        well_formed "subset" got;
        let want =
          List.filter
            (fun (r : Coloring.round) ->
              Iset.subset (Iset.inter r.r_sync boundary) p)
            full
        in
        if keys want <> keys got then
          Alcotest.failf "%s state %d pending %s: want [%s] got [%s]" name
            !nstates
            (Format.asprintf "%a" Iset.pp p)
            (String.concat " " (keys want))
            (String.concat " " (keys got)))
      (pending_subsets rng boundary)
  done;
  !internal

let round_set_oracle () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun n ->
          let autos, sources, sinks = catalog_autos e n in
          let internal =
            check_round_sets
              (Printf.sprintf "%s N=%d" e.Catalog.name n)
              ~sources ~sinks autos
          in
          (* relay_ring's fifo -> fifo hops are its fully internal rounds *)
          if e.Catalog.name = "relay_ring" then
            Alcotest.(check bool)
              (Printf.sprintf "%s N=%d has fully internal rounds"
                 e.Catalog.name n)
              true (internal > 0))
        [ 2; 3; 4 ])
    Catalog.all;
  let rng = Rng.create 515 in
  for case = 1 to 6 do
    let k = 2 + Rng.int rng 4 in
    let autos, a, outs = build_fanout k (Rng.int rng k) in
    ignore
      (check_round_sets
         (Printf.sprintf "fanout %d (k=%d)" case k)
         ~sources:(Iset.singleton a)
         ~sinks:(Iset.of_list (Array.to_list outs))
         autos);
    let autos, a, b = build_chain rng (1 + Rng.int rng 6) in
    ignore
      (check_round_sets
         (Printf.sprintf "chain %d" case)
         ~sources:(Iset.singleton a) ~sinks:(Iset.singleton b) autos)
  done

(* The scratch state is cleared on every exit: after a resolution cut short
   by its budget or by [max_rounds], the same tables resolve exactly what
   fresh ones do. *)
let resolve_resets_after_abort () =
  List.iter
    (fun name ->
      let autos, sources, sinks = catalog_autos (Catalog.find name) 4 in
      let fresh () = Coloring.make ~sources ~sinks (Array.of_list autos) in
      let col = fresh () in
      let current =
        Array.map (fun (a : Automaton.t) -> a.initial) (Coloring.mediums col)
      in
      let pending = Coloring.boundary col in
      let syncs rounds =
        List.map
          (fun (r : Coloring.round) -> (r.r_key, Iset.elements r.r_sync))
          rounds
        |> List.sort compare
      in
      let reference = syncs (resolve_all (fresh ()) ~current ~pending) in
      Alcotest.(check bool) (name ^ ": something is enabled") true
        (reference <> []);
      (match
         Coloring.resolve col ~current ~pending ~rot:0 ~max_rounds:max_int
           ~budget:2
       with
       | exception Coloring.Propagation_budget _ -> ()
       | _ -> Alcotest.failf "%s: budget 2 must trip mid-propagation" name);
      Alcotest.(check (list (pair string (list int))))
        (name ^ ": same rounds after Propagation_budget")
        reference
        (syncs (resolve_all col ~current ~pending));
      ignore
        (Coloring.resolve col ~current ~pending ~rot:1 ~max_rounds:1
           ~budget:max_int);
      Alcotest.(check (list (pair string (list int))))
        (name ^ ": same rounds after a capped resolution")
        reference
        (syncs (resolve_all col ~current ~pending)))
    [ "broadcast_fifo"; "sequencer"; "token_ring" ]

(* --- count gates: a round's cost does not grow with the connector -------- *)

(* broadcast_fifo driven by one thread: each op sends once, then receives
   on all [n] sinks, i.e. n + 1 rounds. Returns propagation iterations and
   minor words per fired round, after a warm-up. *)
let bcast_cost_per_round n =
  let e = Catalog.find "broadcast_fifo" in
  let inst =
    Preo.instantiate ~config:Config.new_jit ~backend:Sched.Coloring ~domains:1
      (Catalog.compiled e) ~lengths:(e.Catalog.lengths n)
  in
  Fun.protect
    ~finally:(fun () -> Preo.shutdown inst)
    (fun () ->
      let tl = (Preo.outports inst "tl").(0) and hd = Preo.inports inst "hd" in
      let op k =
        Port.send tl (Value.int k);
        Array.iter (fun p -> ignore (Port.recv p)) hd
      in
      for k = 1 to 5 do
        op k
      done;
      let stats () = Connector.stats (Preo.connector inst) in
      let s0 = stats () in
      let w0 = Gc.minor_words () in
      for k = 1 to 20 do
        op k
      done;
      let w1 = Gc.minor_words () in
      let s1 = stats () in
      let rounds =
        float_of_int (s1.Connector.st_steps - s0.Connector.st_steps)
      in
      Alcotest.(check (float 0.5))
        (Printf.sprintf "N=%d: n + 1 rounds per op" n)
        (float_of_int (20 * (n + 1)))
        rounds;
      ( float_of_int (s1.Connector.st_color_iters - s0.Connector.st_color_iters)
        /. rounds,
        (w1 -. w0) /. rounds ))

let count_gates () =
  let iters16, words16 = bcast_cost_per_round 16 in
  let iters256, words256 = bcast_cost_per_round 256 in
  let within what small big =
    if big > 2.0 *. small then
      Alcotest.failf "%s per round grows with N: %.1f at N=16, %.1f at N=256"
        what small big
  in
  within "st_color_iters" iters16 iters256;
  within "minor words" words16 words256

(* --- the §V-C blow-up family at N=64 -------------------------------------- *)

let blowup_escape () =
  let e = Catalog.find "lossy_bcast" in
  let n = 64 in
  let existing =
    Config.Existing
      {
        use_dispatch = true;
        optimize_labels = true;
        max_states = 2_000;
        max_trans = 8_000;
        max_compile_seconds = 1.0;
        true_synchronous = false;
      }
  in
  let jit =
    Config.New
      {
        optimize_labels = true;
        cache_capacity = 0;
        expansion_budget = 50_000;
        partition = false;
        true_synchronous = false;
      }
  in
  (match Driver.run_noop ~config:existing ~seconds:0.05 e ~n with
   | Driver.Compile_failed msg ->
     Alcotest.(check bool) "AOT failure names the connector" true
       (contains ~sub:"NLossyBcast" msg);
     Alcotest.(check bool) "AOT failure reports progress" true
       (contains ~sub:"exceeded" msg)
   | _ -> Alcotest.fail "existing approach must trip its budget at N=64");
  (match
     Driver.run_noop ~config:jit ~backend:Sched.Automata ~seconds:0.05 e ~n
   with
   | Driver.Run_failed msg ->
     Alcotest.(check bool) "JIT failure names the connector" true
       (contains ~sub:"NLossyBcast" msg)
   | Driver.Compile_failed msg -> Alcotest.fail ("unexpected compile: " ^ msg)
   | Driver.Steps _ ->
     Alcotest.fail "JIT expansion must trip its budget at N=64");
  match Driver.run_noop ~config:jit ~backend:Sched.Coloring ~seconds:0.1 e ~n with
  | Driver.Steps { steps; stats; _ } ->
    Alcotest.(check bool) "coloring makes progress" true (steps > 0);
    Alcotest.(check bool) "rounds resolved by coloring" true
      (stats.Connector.st_color_rounds > 0)
  | Driver.Compile_failed msg -> Alcotest.fail ("coloring compile: " ^ msg)
  | Driver.Run_failed msg -> Alcotest.fail ("coloring run: " ^ msg)

(* --- budget diagnostics (satellite) ---------------------------------------- *)

let product_budget_messages () =
  let chain () =
    let a = Vertex.fresh "a" and m1 = Vertex.fresh "m1" in
    let m2 = Vertex.fresh "m2" and b = Vertex.fresh "b" in
    [
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ m1 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m1 ] ~heads:[ m2 ];
      Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ m2 ] ~heads:[ b ];
    ]
  in
  (match Product.all ~label:"widget" ~max_states:4 (chain ()) with
   | exception Product.Budget_exceeded msg ->
     Alcotest.(check bool) "state message names connector" true
       (contains ~sub:"product of widget exceeded 4 states" msg);
     Alcotest.(check bool) "state message reports transitions" true
       (contains ~sub:"transitions reached" msg)
   | _ -> Alcotest.fail "state budget must trip");
  (match Product.all ~label:"widget" ~max_trans:3 (chain ()) with
   | exception Product.Budget_exceeded msg ->
     Alcotest.(check bool) "transition message names connector" true
       (contains ~sub:"product of widget exceeded 3 transitions" msg);
     Alcotest.(check bool) "transition message reports states" true
       (contains ~sub:"states reached" msg)
   | _ -> Alcotest.fail "transition budget must trip");
  (* the quadratic connectivity-ordering loop is covered by the same
     compile-time budget; an already-expired deadline must trip there,
     before any pairwise product is attempted *)
  match Product.all ~label:"widget" ~max_seconds:(-1.0) (chain ()) with
  | exception Product.Budget_exceeded msg ->
    Alcotest.(check bool) "ordering message names connector" true
      (contains ~sub:"product of widget exceeded its compile-time budget" msg);
    Alcotest.(check bool) "ordering message reports progress" true
      (contains ~sub:"while ordering the composition (1 of 3 automata ordered)"
         msg)
  | _ -> Alcotest.fail "ordering deadline must trip"

(* --- resolution and downgrade rules ---------------------------------------- *)

let fifo1 () =
  let a = Vertex.fresh "a" and b = Vertex.fresh "b" in
  (a, b, Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ])

let backend_downgrades () =
  (* neutralize any PREO_BACKEND process default: these cases pin down the
     resolution rules themselves *)
  let saved = !Sched.backend in
  Sched.backend := None;
  Fun.protect ~finally:(fun () -> Sched.backend := saved) @@ fun () ->
  let check name config backend expect =
    let a, b, auto = fifo1 () in
    let conn =
      Connector.create ~config ?backend ~sources:[| a |] ~sinks:[| b |]
        [ auto ]
    in
    Fun.protect
      ~finally:(fun () -> Connector.close conn)
      (fun () ->
        Alcotest.(check string) name (Sched.to_string expect)
          (Sched.to_string (Connector.backend conn)))
  in
  check "jit honors coloring" Config.new_jit (Some Sched.Coloring)
    Sched.Coloring;
  check "default is automata" Config.new_jit None Sched.Automata;
  check "existing downgrades to automata" Config.existing (Some Sched.Coloring)
    Sched.Automata;
  check "true_synchronous downgrades to automata"
    (Config.synchronous_of Config.new_jit)
    (Some Sched.Coloring) Sched.Automata

let color_counters () =
  let a, b, auto = fifo1 () in
  let conn =
    Connector.create ~backend:Sched.Coloring ~sources:[| a |] ~sinks:[| b |]
      [ auto ]
  in
  Task.run_all
    [
      (fun () ->
        for i = 1 to 5 do
          Port.send (Connector.outport conn a) (Value.int i)
        done);
      (fun () ->
        for _ = 1 to 5 do
          ignore (Port.recv (Connector.inport conn b))
        done);
    ];
  let st = Connector.stats conn in
  Connector.close conn;
  Alcotest.(check bool) "color rounds counted" true
    (st.Connector.st_color_rounds >= 10);
  Alcotest.(check bool) "iters dominate rounds" true
    (st.Connector.st_color_iters >= st.Connector.st_color_rounds);
  (* and the automata backend reports zeros *)
  let a, b, auto = fifo1 () in
  let conn =
    Connector.create ~backend:Sched.Automata ~sources:[| a |] ~sinks:[| b |]
      [ auto ]
  in
  Port.send (Connector.outport conn a) Value.unit;
  ignore (Port.recv (Connector.inport conn b));
  let st = Connector.stats conn in
  Connector.close conn;
  Alcotest.(check int) "automata: no color rounds" 0
    st.Connector.st_color_rounds;
  Alcotest.(check int) "automata: no color iters" 0 st.Connector.st_color_iters

(* --- deadline/watchdog parity (satellite) ---------------------------------- *)

let with_family_coloring ?(n = 4) name f =
  let e = Catalog.find name in
  List.iter
    (fun (cname, config) ->
      let inst =
        Preo.instantiate ~config ~backend:Sched.Coloring
          (Catalog.compiled e)
          ~lengths:(e.Catalog.lengths n)
      in
      Fun.protect
        ~finally:(fun () -> Preo.shutdown inst)
        (fun () ->
          f cname n inst;
          let st = Preo.Connector.stats (Preo.connector inst) in
          Alcotest.(check bool)
            (cname ^ " storm ran on the coloring backend")
            true
            (st.Preo.Connector.st_color_rounds > 0)))
    [ ("jit", Config.new_jit); ("partitioned", Config.new_partitioned) ]

let recv_retry rng p =
  let rec go () =
    if Rng.int rng 4 = 0 then
      match Port.recv_opt ~deadline:(Unix.gettimeofday () +. 0.002) p with
      | Ok v -> v
      | Error _ -> go ()
    else Port.recv p
  in
  go ()

let send_retry rng p v =
  let rec go () =
    if Rng.int rng 4 = 0 then
      match Port.send_opt ~deadline:(Unix.gettimeofday () +. 0.002) p v with
      | Ok () -> ()
      | Error _ -> go ()
    else Port.send p v
  in
  go ()

let sequencer_storm_coloring () =
  with_family_coloring "sequencer" (fun cname n inst ->
      let ins = Preo.inports inst "hd" in
      let rng = Rng.create 303 in
      let order = ref [] in
      Task.run_all
        [
          (fun () ->
            for _round = 1 to 25 do
              Array.iteri
                (fun i p ->
                  ignore (recv_retry rng p);
                  order := i :: !order)
                ins
            done);
        ];
      Alcotest.(check (list int))
        (cname ^ " rotation survives deadlines under coloring")
        (List.concat (List.init 25 (fun _ -> List.init n Fun.id)))
        (List.rev !order))

let broadcast_storm_coloring () =
  with_family_coloring "broadcast_fifo" (fun cname n inst ->
      let out = (Preo.outports inst "tl").(0) in
      let ins = Preo.inports inst "hd" in
      let rounds = 40 in
      let streams = Array.make n [] in
      let lock = Mutex.create () in
      Task.run_all
        ((fun () ->
           let rng = Rng.create 9 in
           for r = 1 to rounds do
             send_retry rng out (Value.int r)
           done)
        :: List.init n (fun i -> fun () ->
               let rng = Rng.create (2000 + i) in
               for _ = 1 to rounds do
                 let x = Value.to_int (recv_retry rng ins.(i)) in
                 Mutex.lock lock;
                 streams.(i) <- x :: streams.(i);
                 Mutex.unlock lock
               done));
      Array.iteri
        (fun i s ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s stream %d in order under coloring" cname i)
            (List.init rounds (fun r -> r + 1))
            (List.rev s))
        streams)

(* A timed-out operation must carry the same structured snapshot on both
   backends: op, vertex, wait time, and one engine snapshot whose pending
   set lists the parked vertex. *)
let stall_report_parity () =
  List.iter
    (fun backend ->
      let tag = Sched.to_string backend in
      let a, b, auto = fifo1 () in
      let conn =
        Connector.create ~backend ~sources:[| a |] ~sinks:[| b |] [ auto ]
      in
      Fun.protect
        ~finally:(fun () -> Connector.close conn)
        (fun () ->
          match
            Port.recv_opt
              ~deadline:(Unix.gettimeofday () +. 0.02)
              (Connector.inport conn b)
          with
          | Ok _ -> Alcotest.fail (tag ^ ": empty fifo cannot deliver")
          | Error r ->
            Alcotest.(check string) (tag ^ " op") "recv" r.Engine.sr_op;
            Alcotest.(check bool) (tag ^ " vertex named") true
              (String.length r.Engine.sr_vertex > 0);
            Alcotest.(check bool) (tag ^ " waited") true
              (r.Engine.sr_waited >= 0.0);
            Alcotest.(check int)
              (tag ^ " one engine snapshot")
              1
              (List.length r.Engine.sr_engines);
            let es = List.hd r.Engine.sr_engines in
            Alcotest.(check bool) (tag ^ " pending recorded") true
              (List.exists
                 (fun v -> contains ~sub:r.Engine.sr_vertex v)
                 es.Engine.es_pending);
            Alcotest.(check bool) (tag ^ " not poisoned") true
              (es.Engine.es_poisoned = None);
            let st = Connector.stats conn in
            Alcotest.(check bool) (tag ^ " stall counted") true
              (st.Connector.st_stalls >= 1);
            Alcotest.(check bool) (tag ^ " last_stall kept") true
              (Connector.last_stall conn <> None)))
    [ Sched.Automata; Sched.Coloring ]

(* --- elastic splicing under coloring --------------------------------------- *)

let bcast_src =
  {|NBcastFifo(tl;hd[]) =
  Repl(tl;x[1..#hd])
  mult prod (i:1..#hd) Fifo1(x[i];hd[i])|}

let elastic_grow_under_coloring () =
  let c = Preo.compile ~source:bcast_src ~name:"NBcastFifo" in
  let inst =
    Preo.instantiate ~backend:Sched.Coloring c ~lengths:[ ("hd", 2) ]
  in
  Fun.protect
    ~finally:(fun () -> Preo.shutdown inst)
    (fun () ->
      let tl = (Preo.outports inst "tl").(0) in
      Port.send tl (Value.int 7);
      let idx = Preo.grow inst "hd" in
      Alcotest.(check int) "new slot is 3" 3 idx;
      Alcotest.(check string) "backend survives the splice" "coloring"
        (Sched.to_string (Preo.Connector.backend (Preo.connector inst)));
      Alcotest.(check int) "pre-splice datum survives (slot 1)" 7
        (Value.to_int (Port.recv (Preo.inport_at inst "hd" 1)));
      Alcotest.(check int) "pre-splice datum survives (slot 2)" 7
        (Value.to_int (Port.recv (Preo.inport_at inst "hd" 2)));
      let got = Array.make 3 0 in
      Task.run_all ~on:(Preo.sched inst)
        ((fun () -> Port.send tl (Value.int 9))
        :: List.init 3 (fun k -> fun () ->
               got.(k) <-
                 Value.to_int (Port.recv (Preo.inport_at inst "hd" (k + 1)))));
      Alcotest.(check (list int)) "all three slots served" [ 9; 9; 9 ]
        (Array.to_list got);
      let st = Preo.Connector.stats (Preo.connector inst) in
      Alcotest.(check bool) "rounds resolved by coloring" true
        (st.Preo.Connector.st_color_rounds > 0))

(* --- catalog smoke --------------------------------------------------------- *)

let catalog_smoke_coloring () =
  List.iter
    (fun name ->
      let e = Catalog.find name in
      match Driver.smoke ~backend:Sched.Coloring e ~n:4 with
      | Ok steps ->
        Alcotest.(check bool) (name ^ " makes progress") true (steps > 0)
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    [ "sequencer"; "broadcast_fifo"; "ordered_merger"; "token_ring" ]

let tests =
  [
    ("sched selection unit", `Quick, sched_unit);
    ("catalog: coloring ~ product (bisimulation)", `Quick, catalog_bisimulation);
    ("random chains agree across backends", `Quick, chains_agree);
    ("random fanouts agree across backends", `Quick, fanout_agree);
    ("lossy_bcast N=64: coloring escapes the blow-up", `Quick, blowup_escape);
    ("product budget messages name the connector", `Quick,
     product_budget_messages);
    ("backend resolution and downgrades", `Quick, backend_downgrades);
    ("st_color_* counters", `Quick, color_counters);
    ("sequencer deadline storm (coloring)", `Quick, sequencer_storm_coloring);
    ("broadcast deadline storm (coloring)", `Quick, broadcast_storm_coloring);
    ("stall report parity across backends", `Quick, stall_report_parity);
    ("elastic grow under coloring", `Quick, elastic_grow_under_coloring);
    ("catalog smoke under coloring", `Quick, catalog_smoke_coloring);
    ("round sets: pending subsets filter, no repeats", `Quick,
     round_set_oracle);
    ("resolve resets after budget and cap", `Quick,
     resolve_resets_after_abort);
    ("count gates: per-round cost flat in N", `Quick, count_gates);
  ]
