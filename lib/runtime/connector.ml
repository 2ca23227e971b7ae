open Preo_support
open Preo_automata

exception Compile_failure of string
exception Splice_error of string

type t = {
  engines : Engine.t array;
  region_engines : Engine.t option array;
      (* plan-region index -> engine; [None] for regions placed in another
         process (the shard fabric kicks engines through this map) *)
  (* vertex -> owning engine *)
  route : (Vertex.t, Engine.t) Hashtbl.t;
  mutable sources : Vertex.t array;  (* mutable: elastic splices move the boundary *)
  mutable sinks : Vertex.t array;
  compile_seconds : float;
  domains : int;  (* effective domain count this connector was built for *)
  pool : Pool.t option;  (* shared pool when domains > 1 *)
  elastic : bool;  (* JIT composition — the product can be spliced live *)
  slots : Automaton.t list ref array;
      (* per engine: the RAW medium automata, in composer slot order (the
         same positional order Composer.live_mediums reports); updated in
         lockstep with every splice. Callers diff against these by physical
         identity. *)
  bridges : Automaton.t list;
      (* raw mediums the partitioner replaced with cut-queue bridges: part
         of the live connector, but owned by no engine — retiring one needs
         a rebuild, not a splice *)
  nsplices : int Atomic.t;
  splice_lock : Mutex.t;  (* serializes splices (engine locks nest inside) *)
  backend : Sched.backend;  (* the round scheduler this instance runs on *)
  nfused : int;  (* region pairs the sequentializer merged at split time *)
}

let create ?(config = Config.new_jit) ?backend ?(name = "connector") ?domains
    ?compile ?local ?cut_gates ~sources ~sinks mediums =
  let eff_domains = Config.effective_domains ?requested:domains () in
  let eff_compile = Config.effective_compile ?requested:compile () in
  let src_set = Iset.of_list (Array.to_list sources) in
  let snk_set = Iset.of_list (Array.to_list sinks) in
  let backend = Composer.backend_of config (Sched.effective ?requested:backend ()) in
  let placed = local <> None in
  let t0 = Clock.now () in
  let mk_composer ~sources ~sinks mediums =
    Composer.of_config ~name ~backend ~compile:eff_compile ~sources ~sinks
      config mediums
  in
  let engines, region_engines, routes, slots, bridges, elastic, nfused =
    match config with
    | Config.Existing _ | Config.New { partition = false; _ } ->
      let comp =
        try mk_composer ~sources:src_set ~sinks:snk_set mediums with
        | Product.Budget_exceeded msg -> raise (Compile_failure msg)
        | Stack_overflow -> raise (Compile_failure "stack overflow during composition")
      in
      let e = Engine.create ~name:"engine0" comp in
      (* only a JIT/coloring composer splices live *)
      let elastic = match config with Config.New _ -> true | _ -> false in
      ( [| e |],
        [| Some e |],
        [ (Iset.union src_set snk_set, e) ],
        [| ref (if elastic then mediums else []) |],
        [],
        elastic,
        0 )
    | Config.New { partition = true; _ } ->
      let plan =
        Partition.split ~domains:eff_domains ~sequentialize:eff_compile
          ?gate_for:cut_gates ~sources:src_set ~sinks:snk_set mediums
      in
      (* Placement: [?local] elects the subset of plan regions this
         process runs (the shard fabric gives each worker its share; the
         default runs everything). Non-local regions get no engine and no
         composer — the other process pays for those — and peer edges
         into them are dropped: cross-process kicks travel through the
         shard channels' gates instead. *)
      let is_local = match local with Some f -> f | None -> fun _ -> true in
      let region_engines =
        Array.mapi
          (fun i (r : Partition.region) ->
            if not (is_local i) then None
            else
              let comp =
                mk_composer ~sources:r.r_sources ~sinks:r.r_sinks r.mediums
              in
              Some
                (Engine.create ~gates:r.gates
                   ~name:(Printf.sprintf "engine%d" i)
                   comp))
          plan.regions
      in
      let engines =
        Array.of_list
          (List.filter_map Fun.id (Array.to_list region_engines))
      in
      Array.iteri
        (fun i (r : Partition.region) ->
          match region_engines.(i) with
          | None -> ()
          | Some e ->
            Engine.set_peers e
              (List.filter_map (fun j -> region_engines.(j)) r.bridge_peers);
            Engine.set_gate_peers e
              (List.filter_map
                 (fun (v, j) ->
                   Option.map (fun pe -> (v, pe)) region_engines.(j))
                 r.gate_peers))
        plan.regions;
      (* Settle: initially-full cut fifos make some regions enabled at
         construction with nothing to kick them (a gate commit kicks the
         peer, but the initial queue contents were placed by the planner,
         not by a commit). Drive every engine until the whole network is
         quiescent; tasks attach afterwards. *)
      let rec settle () =
        if Array.fold_left (fun acc e -> Engine.try_step e || acc) false engines
        then settle ()
      in
      settle ();
      let routes =
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i (r : Partition.region) ->
                  Option.map
                    (fun e -> (Iset.union r.r_sources r.r_sinks, e))
                    region_engines.(i))
                plan.regions))
      in
      let slots =
        Array.of_list
          (List.filter_map Fun.id
             (Array.to_list
                (Array.mapi
                   (fun i (r : Partition.region) ->
                     if region_engines.(i) = None then None
                     else Some (ref r.mediums))
                   plan.regions)))
      in
      (* Mediums the planner replaced with bridges live in no region. *)
      let bridges =
        List.filter
          (fun a ->
            not
              (Array.exists (fun (r : Partition.region) -> List.memq a r.mediums)
                 plan.regions))
          mediums
      in
      ( engines,
        region_engines,
        routes,
        slots,
        bridges,
        (not placed),
        plan.nfused )
  in
  let route = Hashtbl.create 32 in
  List.iter
    (fun (vs, e) ->
      Iset.iter
        (fun v -> if not (Hashtbl.mem route v) then Hashtbl.add route v e)
        vs)
    routes;
  {
    engines;
    region_engines;
    route;
    sources;
    sinks;
    compile_seconds = Clock.now () -. t0;
    domains = eff_domains;
    pool =
      (* The pool is shared process-wide and never shut down here: tasks
         spawned on it may outlive the connector. *)
      (if eff_domains > 1 then Some (Pool.default ~domains:eff_domains ())
       else None);
    elastic;
    slots;
    bridges;
    nsplices = Atomic.make 0;
    splice_lock = Mutex.create ();
    backend;
    nfused;
  }

let backend t = t.backend

let engine_of t v =
  match Hashtbl.find_opt t.route v with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Connector: vertex %s is not on the boundary"
         (Vertex.name v))

let outport t v = Port.make_out (engine_of t v) v
let inport t v = Port.make_in (engine_of t v) v
let outports t = Array.map (outport t) t.sources
let inports t = Array.map (inport t) t.sinks
let has_port t v = Hashtbl.mem t.route v

let engine_for_region t i =
  if i < 0 || i >= Array.length t.region_engines then None
  else t.region_engines.(i)

let plan_regions t = Array.length t.region_engines

(* --- Elastic splicing --------------------------------------------------------
   Rewiring a live connector for one task slot: retire the slot's medium
   automata, add replacements, move the boundary — all against the running
   product, no global rebuild. The connector tracks its raw mediums per
   engine in composer slot order, so callers (Preo.grow/shrink) can diff a
   fresh template instantiation against the live set and hand the delta
   here by physical identity. *)

let live_mediums t =
  List.concat (Array.to_list (Array.map ( ! ) t.slots)) @ t.bridges

let splices t = Atomic.get t.nsplices

(* Engine index owning raw medium [a], by physical identity. *)
let owner_of t a =
  let n = Array.length t.slots in
  let rec go i =
    if i >= n then None
    else if List.memq a !(t.slots.(i)) then Some i
    else go (i + 1)
  in
  go 0

(* All vertices an engine currently touches: its composer boundary plus its
   mediums' alphabets (splice anchoring and cross-region validation). *)
let engine_vertices t i =
  let comp = Engine.composer t.engines.(i) in
  List.fold_left
    (fun acc (a : Automaton.t) -> Iset.union acc a.vertices)
    (Iset.union (Composer.sources comp) (Composer.sinks comp))
    !(t.slots.(i))

let array_mem v arr = Array.exists (Vertex.equal v) arr

let splice t ~add ~retire ~add_sources ~add_sinks ~retire_vertices =
  if not t.elastic then
    raise
      (Splice_error
         "connector is not elastic: ahead-of-time composition (Config.Existing) \
          freezes the product — rebuild with Config.New to splice live");
  Mutex.lock t.splice_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.splice_lock) @@ fun () ->
  (* Locate the retired mediums; they must all live on one engine. *)
  List.iter
    (fun a ->
      if List.memq a t.bridges then
        raise
          (Splice_error
             "cannot retire a partition-bridge medium: a cut queue owns it \
              (splice-vs-rebuild boundary; rebuild the connector instead)"))
    retire;
  let anchor =
    match
      List.fold_left
        (fun acc a ->
          match (owner_of t a, acc) with
          | None, _ ->
            raise
              (Splice_error
                 "retired medium is not part of this connector (already \
                  retired, or from another instantiation)")
          | Some i, None -> Some i
          | Some i, Some j when i = j -> acc
          | Some _, Some _ ->
            raise
              (Splice_error
                 "splice spans partition regions: the retired mediums live on \
                  different engines (rebuild instead)"))
        None retire
    with
    | Some i -> i
    | None ->
      if Array.length t.engines = 1 then 0
      else begin
        (* Pure attach on a partitioned connector: anchor to the engine
           already owning the added mediums' shared vertices. *)
        let shared =
          List.fold_left
            (fun acc (a : Automaton.t) -> Iset.union acc a.vertices)
            Iset.empty add
        in
        let candidates =
          List.filter
            (fun i -> not (Iset.disjoint shared (engine_vertices t i)))
            (List.init (Array.length t.engines) Fun.id)
        in
        match candidates with
        | [ i ] -> i
        | [] ->
          raise
            (Splice_error
               "cannot anchor the splice: added mediums share no vertex with \
                any region")
        | _ ->
          raise
            (Splice_error
               "splice spans partition regions: added mediums touch several \
                engines (rebuild instead)")
      end
  in
  (* Cross-region safety: the added mediums must not touch other engines'
     vertices or bridge alphabets. *)
  if Array.length t.engines > 1 then begin
    let foreign = ref Iset.empty in
    Array.iteri
      (fun i _ ->
        if i <> anchor then foreign := Iset.union !foreign (engine_vertices t i))
      t.engines;
    List.iter
      (fun (a : Automaton.t) ->
        foreign := Iset.union !foreign a.vertices)
      t.bridges;
    List.iter
      (fun (a : Automaton.t) ->
        if not (Iset.disjoint a.vertices !foreign) then
          raise
            (Splice_error
               "added medium touches a vertex owned by another region or a \
                partition bridge (splice-vs-rebuild boundary)"))
      add
  end;
  let engine = t.engines.(anchor) in
  Array.iter
    (fun v ->
      match Hashtbl.find_opt t.route v with
      | Some e when e == engine -> ()
      | Some _ ->
        raise
          (Splice_error
             "retired boundary vertex belongs to a different region than the \
              retired mediums")
      | None ->
        raise
          (Splice_error
             (Printf.sprintf "retired vertex %s is not on the boundary"
                (Vertex.name v))))
    retire_vertices;
  (* The anchor engine's new boundary. *)
  let comp = Engine.composer engine in
  let retired_set = Iset.of_list (Array.to_list retire_vertices) in
  let e_sources =
    Array.fold_left
      (fun acc v -> Iset.add v acc)
      (Iset.diff (Composer.sources comp) retired_set)
      add_sources
  in
  let e_sinks =
    Array.fold_left
      (fun acc v -> Iset.add v acc)
      (Iset.diff (Composer.sinks comp) retired_set)
      add_sinks
  in
  (* Slot indices of the retired mediums in composer order. *)
  let slot_list = !(t.slots.(anchor)) in
  let retire_idx =
    List.map
      (fun a ->
        let rec go i = function
          | [] -> assert false (* owner_of found it above *)
          | x :: _ when x == a -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 slot_list)
      retire
  in
  (* The engine validates quiescence before mutating anything, so a
     [Composer.Not_quiescent] here leaves connector bookkeeping untouched. *)
  Engine.splice engine ~sources:e_sources ~sinks:e_sinks ~retire:retire_idx
    ~add;
  t.slots.(anchor) :=
    List.filter (fun a -> not (List.memq a retire)) slot_list @ add;
  Array.iter (fun v -> Hashtbl.remove t.route v) retire_vertices;
  Array.iter
    (fun v -> if not (Hashtbl.mem t.route v) then Hashtbl.add t.route v engine)
    add_sources;
  Array.iter
    (fun v -> if not (Hashtbl.mem t.route v) then Hashtbl.add t.route v engine)
    add_sinks;
  t.sources <-
    Array.append
      (Array.of_list
         (List.filter
            (fun v -> not (array_mem v retire_vertices))
            (Array.to_list t.sources)))
      add_sources;
  t.sinks <-
    Array.append
      (Array.of_list
         (List.filter
            (fun v -> not (array_mem v retire_vertices))
            (Array.to_list t.sinks)))
      add_sinks;
  Atomic.incr t.nsplices

let attach t ?(retire = []) ~sources ~sinks add =
  splice t ~add ~retire ~add_sources:sources ~add_sinks:sinks
    ~retire_vertices:[||]

let detach t ?(add = []) ?(retire = []) ~vertices () =
  splice t ~add ~retire ~add_sources:[||] ~add_sinks:[||]
    ~retire_vertices:vertices

let steps t = Array.fold_left (fun acc e -> acc + Engine.steps e) 0 t.engines
let compile_seconds t = t.compile_seconds
let engines t = Array.to_list t.engines
let nregions t = Array.length t.engines
let regions_fused t = t.nfused
let domains t = t.domains
let pool t = t.pool

(* Where this connector's tasks should run: on the shared pool when it was
   built for more than one domain, inline threads otherwise. *)
let sched t =
  match t.pool with Some p -> Task.Domains p | None -> Task.Threads

let expansions t =
  Array.fold_left
    (fun acc e -> acc + Composer.expansions (Engine.composer e))
    0 t.engines

let cache_evictions t =
  Array.fold_left
    (fun acc e -> acc + Composer.cache_evictions (Engine.composer e))
    0 t.engines

(* [stall] (defaulting to the engines' most recent stall report, if any)
   is rendered into the poison message, so every task released by the
   shutdown — including those blocked on other regions, via cross-region
   poison propagation — sees the diagnosis in its [Poisoned] payload. *)
let poison ?stall t msg =
  let stall =
    match stall with
    | Some _ -> stall
    | None ->
      Array.fold_left
        (fun acc e -> match acc with Some _ -> acc | None -> Engine.last_stall e)
        None t.engines
  in
  let msg =
    match stall with
    | Some r when msg <> "shutdown" ->
      msg ^ "\n" ^ Engine.string_of_stall_report r
    | _ -> msg
  in
  Array.iter (fun e -> Engine.poison e msg) t.engines

let close t = poison t "shutdown"

let last_stall t =
  Array.fold_left
    (fun acc e ->
      match (acc, Engine.last_stall e) with
      | None, r -> r
      | Some (a : Engine.stall_report), Some b ->
        Some (if b.sr_waited > a.sr_waited then b else a)
      | acc, None -> acc)
    None t.engines

let failure t =
  Array.fold_left
    (fun acc e ->
      match acc with
      | Some _ -> acc
      | None -> begin
        match Engine.poisoned_reason e with
        | Some msg when msg <> "shutdown" -> Some msg
        | _ -> None
      end)
    None t.engines

type stats = {
  st_steps : int;
  st_regions : int;
  st_expansions : int;
  st_cache_hits : int;
  st_cache_evictions : int;
  st_compile_seconds : float;
  st_solver_calls : int;
  st_cond_waits : int;
  st_peer_kicks : int;
  st_cand_hits : int;
  st_stalls : int;
  st_wakes_targeted : int;
  st_wakes_spurious : int;
  st_wakes_broadcast : int;
  st_mpsc_ops : int;
  st_mpsc_batches : int;
  st_mpsc_fast : int;
  st_domains : int;
  st_splices : int;
  st_color_rounds : int;
  st_color_iters : int;
  st_compiled_fires : int;
  st_interp_fires : int;
  st_regions_fused : int;
  st_shard_batches : int;
  st_shard_items : int;
  st_shard_acks : int;
  st_shard_reconnects : int;
      (** the four [st_shard_*] fields are process-wide (every shard link in
          the process, see {!Shard_stats}); in-process connectors report 0 *)
}

let sum_engines t f = Array.fold_left (fun acc e -> acc + f e) 0 t.engines

let stats t =
  {
    st_steps = steps t;
    st_regions = nregions t;
    st_expansions = expansions t;
    st_cache_hits = sum_engines t (fun e -> Composer.cache_hits (Engine.composer e));
    st_cache_evictions = cache_evictions t;
    st_compile_seconds = compile_seconds t;
    st_solver_calls =
      sum_engines t (fun e -> Composer.solver_calls (Engine.composer e));
    st_cond_waits = sum_engines t Engine.cond_waits;
    st_peer_kicks = sum_engines t Engine.peer_kicks;
    st_cand_hits = sum_engines t (fun e -> Composer.cand_hits (Engine.composer e));
    st_stalls = sum_engines t Engine.stalls;
    st_wakes_targeted = sum_engines t Engine.wakes_targeted;
    st_wakes_spurious = sum_engines t Engine.wakes_spurious;
    st_wakes_broadcast = sum_engines t Engine.wakes_broadcast;
    st_mpsc_ops = sum_engines t Engine.mpsc_ops;
    st_mpsc_batches = sum_engines t Engine.mpsc_batches;
    st_mpsc_fast = sum_engines t Engine.mpsc_fast;
    st_domains = t.domains;
    st_splices = Atomic.get t.nsplices;
    st_color_rounds =
      sum_engines t (fun e -> Composer.color_rounds (Engine.composer e));
    st_color_iters =
      sum_engines t (fun e -> Composer.color_iters (Engine.composer e));
    st_compiled_fires = sum_engines t Engine.compiled_fires;
    st_interp_fires = sum_engines t Engine.interp_fires;
    st_regions_fused = t.nfused;
    st_shard_batches = Atomic.get Shard_stats.batches;
    st_shard_items = Atomic.get Shard_stats.items;
    st_shard_acks = Atomic.get Shard_stats.acks;
    st_shard_reconnects = Atomic.get Shard_stats.reconnects;
  }

(* Exports cover every lane registered in the process — this connector's
   engines (whose rings are forced into existence so each appears even if it
   recorded nothing yet) plus shared lanes such as partition bridges. *)
let dump_trace t =
  Array.iter (fun e -> ignore (Engine.obs_ring e)) t.engines;
  Preo_obs.Export.dump ()

let chrome_trace t =
  Array.iter (fun e -> ignore (Engine.obs_ring e)) t.engines;
  Preo_obs.Export.chrome ()

let pp_stats ppf s =
  Format.fprintf ppf
    "steps=%d regions=%d domains=%d expansions=%d cache-hits=%d evictions=%d \
     compile=%.3fs solves=%d waits=%d kicks=%d cand-hits=%d stalls=%d \
     wakes=%d/%d/%d mpsc=%d/%d fast=%d splices=%d \
     color-rounds=%d color-iters=%d compiled-fires=%d interp-fires=%d \
     fused=%d shard=%d/%d/%d/%d"
    s.st_steps s.st_regions s.st_domains s.st_expansions s.st_cache_hits
    s.st_cache_evictions s.st_compile_seconds s.st_solver_calls s.st_cond_waits
    s.st_peer_kicks s.st_cand_hits s.st_stalls s.st_wakes_targeted
    s.st_wakes_spurious s.st_wakes_broadcast s.st_mpsc_ops s.st_mpsc_batches
    s.st_mpsc_fast s.st_splices s.st_color_rounds
    s.st_color_iters s.st_compiled_fires s.st_interp_fires s.st_regions_fused
    s.st_shard_batches s.st_shard_items s.st_shard_acks s.st_shard_reconnects
