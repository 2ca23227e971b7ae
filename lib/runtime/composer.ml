open Preo_support
open Preo_automata
module Coloring = Preo_coloring.Coloring

type xtrans = {
  sync : Iset.t;
  needs_send : Iset.t;
  needs_recv : Iset.t;
  constr : Constr.t;
  mutable cmd : cmd_state;
      (* solved eagerly under label optimization, lazily (once, on first
         firing attempt) otherwise *)
  target : target;
}

and cmd_state =
  | C_unsolved
  | C_solved of Command.t
  | C_compiled of Command.t * Command.compiled
      (* solved and lowered into closed closures; the engine fires the
         compiled form and never revisits the guard/move trees *)
  | C_unsat

and target =
  | T_aot of int
  | T_jit of int array
  | T_color of (int * int) array
      (* participating (medium slot, local target) pairs only — cacheable
         across resolutions because the round key pins the participants'
         source states, and non-participants are untouched by commit *)

exception Expansion_budget of string

(* A per-state index bucketing transitions by their least needed boundary
   vertex, so only transitions that could be enabled by the pending
   operations are examined. *)
type state_index = {
  si_silent : xtrans array;
  si_by_least : (Vertex.t, xtrans list) Hashtbl.t;
}

(* Per-state candidate memo: the firing loop recomputes the pending-filtered
   candidate array for the same state over and over. The memo key is the
   pending set *restricted to the boundary vertices this state's transitions
   actually test* ([relevant]) — pending operations on other vertices cannot
   change the filter result, so collapsing them makes the key nearly
   constant under load and the memo a short move-nothing assoc list. *)
type expanded = {
  all : xtrans array;
  index : state_index option;
  relevant : Iset.t;
  mutable cand_memo : (Iset.t * xtrans array) list;
}

module Tuple_key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) = Array.fold_left (fun acc x -> (acc * 31) + x + 1) 7 a
end

module Cache = Lru.Make (Tuple_key)

type jit_state = {
  mutable mediums : Automaton.t array;
  cache : expanded Cache.t;
  mutable jit_current : int array;
  mutable jit_owners : (int, int list) Hashtbl.t option;
      (* vertex -> indices of mediums whose automaton mentions it, built
         lazily from [mediums] and dropped on splice; lets the expansion
         closure pull the next medium by scanning the fired vertices
         instead of all k mediums *)
  expansion_budget : int;
  true_synchronous : bool;
  (* Atomic for the same reason as the engine counters: bumped under the
     owning engine's lock, read lock-free by [Connector.stats], possibly
     from another domain. *)
  nexpansions : int Atomic.t;
  ncache_hits : int Atomic.t;
}

type aot_state = { states : expanded array; mutable aot_current : int }

module Round_key = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end

module Xcache = Lru.Make (Round_key)

(* Coloring backend: rounds are re-resolved by color propagation on every
   candidate request (cost: the pending set plus the closures propagated
   over), but the
   per-round work that does not depend on the resolution — building the
   xtrans, solving its command — is memoized on the round's canonical key.
   The cached entry is [None] when the round's constraint is structurally
   unsatisfiable under label optimization, so it is rejected once, not
   re-solved per resolution. *)
type color_state = {
  mutable col : Coloring.t;  (* rebuilt by {!splice} *)
  mutable col_current : int array;
  col_max_rounds : int;
  col_budget : int;  (* propagation-iteration budget per resolution *)
  xcache : xtrans option Xcache.t;
  mutable col_rot : int;
      (* seed-rotation cursor: resolutions start their seed scan at a
         different pending vertex (and medium) each time, so rounds beyond
         the per-resolution cap are not starved *)
  mutable col_version : int;  (* bumped on commit/splice: memo validity *)
  mutable col_memo : (int * Iset.t * xtrans array) option;
      (* single-slot candidates memo keyed on (version, pending): the
         firing loop re-asks for the same state's candidates repeatedly *)
  ncolor_rounds : int Atomic.t;
  ncolor_iters : int Atomic.t;
}

type strategy = S_aot of aot_state | S_jit of jit_state | S_color of color_state

let cand_memo_capacity = 8

type t = {
  strategy : strategy;
  name : string;  (* connector name, for diagnosable budget errors *)
  mutable srcs : Iset.t;  (* mutable: {!splice} moves the boundary *)
  mutable snks : Iset.t;
  mutable cells : int;  (* splice appends fresh cell slots; never reused *)
  optimize : bool;
  compile : bool;
      (* lower solved commands into closed closures (Command.compile);
         commands with unregistered Datafun names stay interpreted *)
  ncand_hits : int Atomic.t;
  ncand_evictions : int Atomic.t;
  nsolves : int Atomic.t;
      (* runtime (post-expansion) Command.solve calls, i.e. firing-loop
         solver work that label optimization would have precompiled *)
  ncfires : int Atomic.t;  (* firings through compiled (closure) commands *)
  nifires : int Atomic.t;  (* firings through the interpreted walk *)
}

(* --- Shared helpers ----------------------------------------------------- *)

let mk_expanded ~index (ts : xtrans array) =
  let relevant =
    Array.fold_left
      (fun acc tr -> Iset.union acc (Iset.union tr.needs_send tr.needs_recv))
      Iset.empty ts
  in
  { all = ts; index; relevant; cand_memo = [] }

let build_index boundary (ts : xtrans array) =
  let silent = ref [] in
  let by_least = Hashtbl.create 8 in
  Array.iter
    (fun tr ->
      let needs = Iset.inter tr.sync boundary in
      if Iset.is_empty needs then silent := tr :: !silent
      else begin
        let key = Iset.min_elt needs in
        let prev = try Hashtbl.find by_least key with Not_found -> [] in
        Hashtbl.replace by_least key (tr :: prev)
      end)
    ts;
  { si_silent = Array.of_list (List.rev !silent); si_by_least = by_least }

let lower ~compile c =
  if compile then
    match Command.compile c with
    | Some k -> C_compiled (c, k)
    | None -> C_solved c (* exotic (late-bound Datafun): stay interpreted *)
  else C_solved c

let make_xtrans ~srcs ~snks ~optimize ~compile ~sync ~constr ~target =
  let cmd =
    if optimize then
      match Command.firable ~sources:srcs ~sinks:snks constr with
      | Some c -> lower ~compile c
      | None -> C_unsat (* can never fire: caller drops it *)
    else C_unsolved
  in
  let keep = (not optimize) || (match cmd with C_unsat -> false | _ -> true) in
  if keep then
    Some
      {
        sync;
        needs_send = Iset.inter sync srcs;
        needs_recv = Iset.inter sync snks;
        constr;
        cmd;
        target;
      }
  else None

(* Densely renumber the cells mentioned by a list of automata. *)
let renumber_cells autos =
  let mapping : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let fresh = ref 0 in
  let remap c =
    match Hashtbl.find_opt mapping c with
    | Some d -> d
    | None ->
      let d = !fresh in
      incr fresh;
      Hashtbl.add mapping c d;
      d
  in
  let autos = List.map (Automaton.map_cells remap) autos in
  (autos, !fresh)

(* --- Ahead-of-time ------------------------------------------------------ *)

let aot ?(name = "connector") ?(use_dispatch = true) ?(optimize_labels = true)
    ?compile (large : Automaton.t) =
  let compile = Config.effective_compile ?requested:compile () in
  let large, cells = match renumber_cells [ large ] with
    | [ a ], n -> (a, n)
    | _ -> assert false
  in
  let srcs = large.sources and snks = large.sinks in
  let boundary = Iset.union srcs snks in
  let states =
    Array.init large.nstates (fun s ->
        let ts =
          Array.to_list large.trans.(s)
          |> List.filter_map (fun (tr : Automaton.trans) ->
                 make_xtrans ~srcs ~snks ~optimize:optimize_labels ~compile
                   ~sync:tr.sync ~constr:tr.constr ~target:(T_aot tr.target))
          |> Array.of_list
        in
        mk_expanded ts
          ~index:(if use_dispatch then Some (build_index boundary ts) else None))
  in
  {
    strategy = S_aot { states; aot_current = large.initial };
    name;
    srcs;
    snks;
    cells;
    optimize = optimize_labels;
    compile;
    ncand_hits = Atomic.make 0;
    ncand_evictions = Atomic.make 0;
    nsolves = Atomic.make 0;
    ncfires = Atomic.make 0;
    nifires = Atomic.make 0;
  }

(* --- Just-in-time ------------------------------------------------------- *)

let prepare_mediums ~sources ~sinks mediums =
  (* Hide vertices that occur in exactly one medium and are not boundary:
     they need no cross-medium synchronization. *)
  let boundary = Iset.union sources sinks in
  let count : (Vertex.t, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a : Automaton.t) ->
      Iset.iter
        (fun v ->
          Hashtbl.replace count v
            (1 + try Hashtbl.find count v with Not_found -> 0))
        a.vertices)
    mediums;
  List.map
    (fun (a : Automaton.t) ->
      let hidden =
        Iset.filter
          (fun v -> (not (Iset.mem v boundary)) && Hashtbl.find count v = 1)
          a.vertices
      in
      Automaton.trim (Automaton.hide hidden a))
    mediums

let jit ?(name = "connector") ?(cache_capacity = 0) ?(optimize_labels = true)
    ?(expansion_budget = 2_000_000) ?(true_synchronous = false) ?compile
    ~sources ~sinks mediums =
  let compile = Config.effective_compile ?requested:compile () in
  let mediums = prepare_mediums ~sources ~sinks mediums in
  let mediums, cells = renumber_cells mediums in
  let mediums = Array.of_list mediums in
  let initial = Array.map (fun (a : Automaton.t) -> a.initial) mediums in
  {
    strategy =
      S_jit
        {
          mediums;
          cache = Cache.create ~capacity:cache_capacity;
          jit_current = initial;
          jit_owners = None;
          expansion_budget;
          true_synchronous;
          nexpansions = Atomic.make 0;
          ncache_hits = Atomic.make 0;
        };
    name;
    srcs = sources;
    snks = sinks;
    cells;
    optimize = optimize_labels;
    compile;
    ncand_hits = Atomic.make 0;
    ncand_evictions = Atomic.make 0;
    nsolves = Atomic.make 0;
    ncfires = Atomic.make 0;
    nifires = Atomic.make 0;
  }

(* --- Connector coloring -------------------------------------------------- *)

let coloring ?(name = "connector") ?(cache_capacity = 0)
    ?(optimize_labels = true) ?(expansion_budget = 2_000_000)
    ?(max_rounds = 16) ?compile ~sources ~sinks mediums =
  let compile = Config.effective_compile ?requested:compile () in
  let mediums = prepare_mediums ~sources ~sinks mediums in
  let mediums, cells = renumber_cells mediums in
  let mediums = Array.of_list mediums in
  let initial = Array.map (fun (a : Automaton.t) -> a.initial) mediums in
  {
    strategy =
      S_color
        {
          col = Coloring.make ~sources ~sinks mediums;
          col_current = initial;
          col_max_rounds = max_rounds;
          (* the one budget knob covers both backends: per state expansion
             for the JIT product, per color resolution here *)
          col_budget = expansion_budget;
          xcache = Xcache.create ~capacity:cache_capacity;
          col_rot = 0;
          col_version = 0;
          col_memo = None;
          ncolor_rounds = Atomic.make 0;
          ncolor_iters = Atomic.make 0;
        };
    name;
    srcs = sources;
    snks = sinks;
    cells;
    optimize = optimize_labels;
    compile;
    ncand_hits = Atomic.make 0;
    ncand_evictions = Atomic.make 0;
    nsolves = Atomic.make 0;
    ncfires = Atomic.make 0;
    nifires = Atomic.make 0;
  }

(* --- From a configuration ----------------------------------------------- *)

(* Coloring implements interleaving semantics only: 2 colors cannot express
   the textbook synchronous product's joint independent firings, so
   [true_synchronous] stays on the JIT expander; and [Config.Existing] is
   the precomposed large automaton, with no per-round resolution to
   replace. *)
let backend_of (config : Config.t) backend =
  match config with
  | Config.New { true_synchronous = false; _ } -> backend
  | Config.New _ | Config.Existing _ -> Sched.Automata

let of_config ?(name = "connector") ~backend ~compile ~sources ~sinks
    (config : Config.t) mediums =
  match config with
  | Config.Existing
      { use_dispatch; optimize_labels; max_states; max_trans;
        max_compile_seconds; true_synchronous } ->
    let large =
      Product.all ~label:name ~max_states ~max_trans
        ~max_seconds:max_compile_seconds ~joint_independent:true_synchronous
        mediums
    in
    let hidden = Iset.diff large.vertices (Iset.union sources sinks) in
    let large = Automaton.trim (Automaton.hide hidden large) in
    (* Force boundary polarity from the declared signature. *)
    aot ~name ~use_dispatch ~optimize_labels ~compile
      { large with sources; sinks }
  | Config.New
      { optimize_labels; cache_capacity; expansion_budget; true_synchronous;
        partition = _ } -> (
    match backend_of config backend with
    | Sched.Coloring ->
      coloring ~name ~cache_capacity ~optimize_labels ~expansion_budget
        ~compile ~sources ~sinks mediums
    | Sched.Automata ->
      jit ~name ~cache_capacity ~optimize_labels ~expansion_budget
        ~true_synchronous ~compile ~sources ~sinks mediums)

(* Expand one product state, interleaving flavour: every global transition is
   the synchronization closure of one seed local transition — mediums are
   pulled in only when a fired vertex belongs to them, so independent local
   transitions stay separate steps. Exponential growth can still arise from
   genuinely synchronized choice (several compatible local options per pulled
   medium); that is the paper's §V-C blow-up, guarded by the budget. *)
let jit_owners_of (js : jit_state) =
  match js.jit_owners with
  | Some o -> o
  | None ->
    let o = Hashtbl.create (4 * Array.length js.mediums) in
    Array.iteri
      (fun j (a : Automaton.t) ->
        Iset.iter
          (fun v ->
            let prev = try Hashtbl.find o v with Not_found -> [] in
            Hashtbl.replace o v (j :: prev))
          a.vertices)
      js.mediums;
    js.jit_owners <- Some o;
    o

let expand_interleaved t (js : jit_state) (state : int array) : expanded =
  let k = Array.length js.mediums in
  let owners = jit_owners_of js in
  let result = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let budget = ref js.expansion_budget in
  let spend () =
    decr budget;
    if !budget <= 0 then
      raise
        (Expansion_budget
           (Printf.sprintf
              "state expansion of %s exceeded %d combinations over %d \
               mediums, %d transitions emitted (exponential transition \
               structure)"
              t.name js.expansion_budget k
              (List.length !result)))
  in
  (* selection: medium index -> chosen transition index, or unset *)
  let selection = Array.make k (-1) in
  let emit () =
    let key =
      String.concat ","
        (List.filter_map
           (fun i ->
             if selection.(i) >= 0 then Some (Printf.sprintf "%d:%d" i selection.(i))
             else None)
           (List.init k Fun.id))
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let sync = ref Iset.empty in
      let constr = ref Constr.tt in
      let target = Array.copy state in
      Array.iteri
        (fun j ti ->
          if ti >= 0 then begin
            let tr = js.mediums.(j).trans.(state.(j)).(ti) in
            sync := Iset.union !sync tr.sync;
            constr := Constr.conj tr.constr !constr;
            target.(j) <- tr.target
          end)
        selection;
      match
        make_xtrans ~srcs:t.srcs ~snks:t.snks ~optimize:t.optimize
          ~compile:t.compile ~sync:!sync ~constr:!constr ~target:(T_jit target)
      with
      | Some x -> result := x :: !result
      | None -> ()
    end
  in
  (* Close the current selection: if some unselected medium owns a fired
     vertex, branch over its compatible local transitions. *)
  let rec close fired idled =
    spend ();
    (* minimum-index unselected medium owning a fired vertex — the same
       pull order as scanning all k mediums, but via the vertex->mediums
       index the cost is the fired set, not the connector size *)
    let pulled = ref (-1) in
    Iset.iter
      (fun v ->
        List.iter
          (fun j ->
            if selection.(j) < 0 && (!pulled < 0 || j < !pulled) then
              pulled := j)
          (try Hashtbl.find owners v with Not_found -> []))
      fired;
    if !pulled < 0 then emit ()
    else begin
      let j = !pulled in
      let vj = js.mediums.(j).vertices in
      let need = Iset.inter fired vj in
      Array.iteri
        (fun ti (tr : Automaton.trans) ->
          if Iset.subset need tr.sync && Iset.disjoint tr.sync idled then begin
            selection.(j) <- ti;
            close (Iset.union fired tr.sync)
              (Iset.union idled (Iset.diff vj tr.sync));
            selection.(j) <- -1
          end)
        js.mediums.(j).trans.(state.(j))
    end
  in
  for i = 0 to k - 1 do
    let vi = js.mediums.(i).vertices in
    Array.iteri
      (fun ti (tr : Automaton.trans) ->
        selection.(i) <- ti;
        close tr.sync (Iset.diff vi tr.sync);
        selection.(i) <- -1)
      js.mediums.(i).trans.(state.(i))
  done;
  Atomic.incr js.nexpansions;
  let ts = Array.of_list (List.rev !result) in
  let boundary = Iset.union t.srcs t.snks in
  mk_expanded ts ~index:(Some (build_index boundary ts))

(* Fully synchronous flavour: enumerate all maximal consistent combinations
   of per-medium local transitions (each medium either idles or contributes
   one transition), including joint firings of independent parts. *)
let expand_synchronous t (js : jit_state) (state : int array) : expanded =
  let k = Array.length js.mediums in
  let result = ref [] in
  let budget = ref js.expansion_budget in
  let spend () =
    decr budget;
    if !budget <= 0 then
      raise
        (Expansion_budget
           (Printf.sprintf
              "state expansion of %s exceeded %d combinations over %d \
               mediums, %d transitions emitted (exponential transition \
               structure)"
              t.name js.expansion_budget k
              (List.length !result)))
  in
  (* choices.(i) = None (idle) or Some tr *)
  let choices = Array.make k None in
  let rec go i must_fire must_idle any =
    spend ();
    if i >= k then begin
      if any then begin
        let sync = ref Iset.empty in
        let constr = ref Constr.tt in
        let target = Array.copy state in
        Array.iteri
          (fun j choice ->
            match choice with
            | None -> ()
            | Some (tr : Automaton.trans) ->
              sync := Iset.union !sync tr.sync;
              constr := Constr.conj tr.constr !constr;
              target.(j) <- tr.target)
          choices;
        match
          make_xtrans ~srcs:t.srcs ~snks:t.snks ~optimize:t.optimize
            ~compile:t.compile ~sync:!sync ~constr:!constr
            ~target:(T_jit target)
        with
        | Some x -> result := x :: !result
        | None -> ()
      end
    end
    else begin
      let a = js.mediums.(i) in
      let va = a.vertices in
      (* Option 1: medium i idles. *)
      if Iset.disjoint must_fire va then begin
        choices.(i) <- None;
        go (i + 1) must_fire (Iset.union must_idle va) any
      end;
      (* Option 2: medium i contributes a local transition. *)
      Array.iter
        (fun (tr : Automaton.trans) ->
          if
            Iset.disjoint tr.sync must_idle
            && Iset.subset (Iset.inter must_fire va) tr.sync
          then begin
            choices.(i) <- Some tr;
            go (i + 1) (Iset.union must_fire tr.sync)
              (Iset.union must_idle (Iset.diff va tr.sync))
              true
          end)
        a.trans.(state.(i));
      choices.(i) <- None
    end
  in
  go 0 Iset.empty Iset.empty false;
  Atomic.incr js.nexpansions;
  let ts = Array.of_list (List.rev !result) in
  let boundary = Iset.union t.srcs t.snks in
  mk_expanded ts ~index:(Some (build_index boundary ts))

let expanded_of_current t =
  match t.strategy with
  | S_aot s -> s.states.(s.aot_current)
  | S_color _ ->
    invalid_arg "Composer: coloring strategy has no expanded product state"
  | S_jit js -> begin
    match Cache.find js.cache js.jit_current with
    | Some e ->
      Atomic.incr js.ncache_hits;
      e
    | None ->
      let e =
        if js.true_synchronous then expand_synchronous t js (Array.copy js.jit_current)
        else expand_interleaved t js (Array.copy js.jit_current)
      in
      Cache.add js.cache (Array.copy js.jit_current) e;
      e
  end

let build_candidates e ~pending =
  match e.index with
  | None ->
    Array.of_list
      (List.filter
         (fun tr ->
           Iset.subset tr.needs_send pending && Iset.subset tr.needs_recv pending)
         (Array.to_list e.all))
  | Some idx ->
    let acc = ref (Array.to_list idx.si_silent) in
    Iset.iter
      (fun v ->
        match Hashtbl.find_opt idx.si_by_least v with
        | None -> ()
        | Some entries ->
          List.iter
            (fun tr ->
              if
                Iset.subset tr.needs_send pending
                && Iset.subset tr.needs_recv pending
              then acc := tr :: !acc)
            entries)
      pending;
    Array.of_list !acc

(* Coloring candidates: resolve up to [col_max_rounds] rounds by color
   propagation, then map each round to its memoized xtrans. A single-slot
   memo keyed on (state version, pending) serves the firing loop's repeated
   requests for the same situation without re-propagating. *)
let color_candidates t (cs : color_state) ~pending =
  match cs.col_memo with
  | Some (v, p, arr) when v = cs.col_version && Iset.equal p pending ->
    Atomic.incr t.ncand_hits;
    arr
  | _ ->
    let rounds, iters =
      try
        Coloring.resolve cs.col ~current:cs.col_current ~pending
          ~rot:cs.col_rot ~max_rounds:cs.col_max_rounds ~budget:cs.col_budget
      with Coloring.Propagation_budget msg ->
        raise (Expansion_budget (Printf.sprintf "%s: %s" t.name msg))
    in
    cs.col_rot <- cs.col_rot + 1;
    ignore (Atomic.fetch_and_add cs.ncolor_iters iters);
    ignore (Atomic.fetch_and_add cs.ncolor_rounds (List.length rounds));
    let arr =
      rounds
      |> List.filter_map (fun (r : Coloring.round) ->
             match Xcache.find cs.xcache r.r_key with
             | Some cached -> cached
             | None ->
               let x =
                 make_xtrans ~srcs:t.srcs ~snks:t.snks ~optimize:t.optimize
                   ~compile:t.compile ~sync:r.r_sync ~constr:r.r_constr
                   ~target:(T_color r.r_moves)
               in
               Xcache.add cs.xcache r.r_key x;
               x)
      |> Array.of_list
    in
    cs.col_memo <- Some (cs.col_version, pending, arr);
    arr

let candidates t ~pending =
  match t.strategy with
  | S_color cs -> color_candidates t cs ~pending
  | S_aot _ | S_jit _ ->
  let e = expanded_of_current t in
  let key = Iset.inter pending e.relevant in
  let rec probe = function
    | [] -> None
    | (k, arr) :: _ when Iset.equal k key -> Some arr
    | _ :: rest -> probe rest
  in
  match probe e.cand_memo with
  | Some arr ->
    Atomic.incr t.ncand_hits;
    arr (* shared buffer: callers must not mutate it *)
  | None ->
    (* Filtering with the restricted key is equivalent: every transition's
       needed vertices are contained in [relevant]. *)
    let arr = build_candidates e ~pending:key in
    let memo = (key, arr) :: e.cand_memo in
    let memo =
      if List.length memo > cand_memo_capacity then begin
        Atomic.incr t.ncand_evictions;
        List.filteri (fun i _ -> i < cand_memo_capacity) memo
      end
      else memo
    in
    e.cand_memo <- memo;
    arr

(* One firing attempt. A transition's command is precompiled at expansion
   time under label optimization, otherwise solved (once) on its first
   attempt. Compiled commands check guards and execute in one closure call
   (its writes only stage through [env], so a [false] has no effect to
   undo); interpreted ones walk the guard/move trees. *)
let rec fire t (x : xtrans) env =
  match x.cmd with
  | C_compiled (_, k) ->
    let ok = Command.fire_compiled k env in
    if ok then Atomic.incr t.ncfires;
    ok
  | C_solved c ->
    let ok = Command.guards_hold c env in
    if ok then begin
      Atomic.incr t.nifires;
      Command.execute c env
    end;
    ok
  | C_unsat -> false
  | C_unsolved ->
    Atomic.incr t.nsolves;
    x.cmd <-
      (match Command.firable ~sources:t.srcs ~sinks:t.snks x.constr with
       | Some c -> lower ~compile:t.compile c
       | None -> C_unsat);
    fire t x env

let commit t (x : xtrans) =
  match (t.strategy, x.target) with
  | S_aot s, T_aot target -> s.aot_current <- target
  | S_jit js, T_jit target -> js.jit_current <- target
  | S_color cs, T_color moves ->
    Array.iter (fun (j, s) -> cs.col_current.(j) <- s) moves;
    (* Invalidate the candidates memo even for self-loops: the next
       resolution restarts the seed rotation, keeping round selection fair
       when more rounds are enabled than one resolution returns. *)
    cs.col_version <- cs.col_version + 1
  | _ -> invalid_arg "Composer.commit: transition from a different composer"

let ncells t = t.cells
let sources t = t.srcs
let sinks t = t.snks

(* --- Elastic splice ------------------------------------------------------ *)

exception Not_quiescent of string

let live_mediums t =
  match t.strategy with
  | S_aot _ -> [||]
  | S_jit js -> Array.copy js.mediums
  | S_color cs -> Array.copy (Coloring.mediums cs.col)

let medium_vertices acc (a : Automaton.t) = Iset.union acc a.vertices

(* Replace medium slots of a live JIT composer. [retire] indexes the current
   mediums array; [add] automata arrive raw (un-hidden, un-renumbered) and go
   through the same preparation as at {!jit} time, with occurrence counts
   taken across the surviving mediums so cross-medium vertices stay visible.
   Retired mediums must be quiescent: their current local state must be
   label-bisimilar to their initial state, so that dropping them (and letting
   any replacement start from its own initial state) is invisible at the
   synchronization level. The expansion cache is flushed; the JIT expander
   rediscovers the new product states lazily — no global rebuild. Returns
   the set of vertices that vanished from the connector (retired and no
   longer referenced by any medium or the new boundary). *)
let splice t ~sources ~sinks ~retire ~add =
  match t.strategy with
  | S_aot _ ->
    invalid_arg
      "Composer.splice: only JIT/coloring composers are elastic (AOT \
       composition freezes the product; rebuild instead)"
  | S_jit _ | S_color _ ->
    let mediums, current =
      match t.strategy with
      | S_jit js -> (js.mediums, js.jit_current)
      | S_color cs -> (Coloring.mediums cs.col, cs.col_current)
      | S_aot _ -> assert false
    in
    let k = Array.length mediums in
    List.iter
      (fun i ->
        if i < 0 || i >= k then invalid_arg "Composer.splice: bad medium index")
      retire;
    let retired = Array.make k false in
    List.iter (fun i -> retired.(i) <- true) retire;
    Array.iteri
      (fun i r ->
        if r then begin
          let a = mediums.(i) in
          if not (Automaton.label_bisimilar a current.(i) a.initial) then
            raise
              (Not_quiescent
                 (Printf.sprintf
                    "medium %d (vertices %s) is mid-protocol: local state %d \
                     is not label-bisimilar to its initial state %d — retry \
                     once in-flight exchanges drain"
                    i
                    (String.concat ","
                       (List.map Vertex.name (Iset.elements a.vertices)))
                    current.(i) a.initial))
        end)
      retired;
    let kept = ref [] and kept_cur = ref [] in
    Array.iteri
      (fun i a ->
        if not retired.(i) then begin
          kept := a :: !kept;
          kept_cur := current.(i) :: !kept_cur
        end)
      mediums;
    let kept = List.rev !kept and kept_cur = List.rev !kept_cur in
    (* Prepare the added mediums exactly as [jit] does, but count vertex
       occurrences across kept ∪ added so shared vertices stay visible. *)
    let boundary = Iset.union sources sinks in
    let count : (Vertex.t, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (a : Automaton.t) ->
        Iset.iter
          (fun v ->
            Hashtbl.replace count v
              (1 + try Hashtbl.find count v with Not_found -> 0))
          a.vertices)
      (kept @ add);
    let add_cooked =
      List.map
        (fun (a : Automaton.t) ->
          let hidden =
            Iset.filter
              (fun v -> (not (Iset.mem v boundary)) && Hashtbl.find count v = 1)
              a.vertices
          in
          Automaton.trim (Automaton.hide hidden a))
        add
    in
    (* Fresh cell slots for the added mediums, appended after the existing
       ones; retired mediums' slots are not reclaimed (the engine just
       clears them), so ids stay stable for surviving mediums. *)
    let mapping : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let freshc = ref t.cells in
    let remap c =
      match Hashtbl.find_opt mapping c with
      | Some d -> d
      | None ->
        let d = !freshc in
        incr freshc;
        Hashtbl.add mapping c d;
        d
    in
    let add_cooked = List.map (Automaton.map_cells remap) add_cooked in
    let before =
      Array.fold_left medium_vertices (Iset.union t.srcs t.snks) mediums
    in
    let mediums' = Array.of_list (kept @ add_cooked) in
    let current' =
      Array.of_list
        (kept_cur @ List.map (fun (a : Automaton.t) -> a.initial) add_cooked)
    in
    (match t.strategy with
     | S_jit js ->
       js.mediums <- mediums';
       js.jit_current <- current';
       js.jit_owners <- None;
       Cache.clear js.cache
     | S_color cs ->
       (* The color tables are derived state: rebuild them over the new
          medium array (O(graph), no product exploration involved). *)
       cs.col <- Coloring.make ~sources ~sinks mediums';
       cs.col_current <- current';
       Xcache.clear cs.xcache;
       cs.col_memo <- None;
       cs.col_version <- cs.col_version + 1
     | S_aot _ -> assert false);
    t.srcs <- sources;
    t.snks <- sinks;
    t.cells <- !freshc;
    let after = Array.fold_left medium_vertices boundary mediums' in
    Iset.diff before after

let expansions t =
  match t.strategy with
  | S_aot _ | S_color _ -> 0
  | S_jit js -> Atomic.get js.nexpansions

let cache_hits t =
  match t.strategy with
  | S_aot _ -> 0
  | S_jit js -> Atomic.get js.ncache_hits
  | S_color cs -> Xcache.hits cs.xcache

let cache_evictions t =
  match t.strategy with
  | S_aot _ -> 0
  | S_jit js -> Cache.evictions js.cache
  | S_color cs -> Xcache.evictions cs.xcache

let solver_calls t = Atomic.get t.nsolves
let compiled_fires t = Atomic.get t.ncfires
let interp_fires t = Atomic.get t.nifires
let cand_hits t = Atomic.get t.ncand_hits
let cand_evictions t = Atomic.get t.ncand_evictions

let color_rounds t =
  match t.strategy with
  | S_color cs -> Atomic.get cs.ncolor_rounds
  | S_aot _ | S_jit _ -> 0

let color_iters t =
  match t.strategy with
  | S_color cs -> Atomic.get cs.ncolor_iters
  | S_aot _ | S_jit _ -> 0

let current_out_degree t =
  match t.strategy with
  | S_color cs ->
    (* Rounds enabled assuming every boundary vertex has a pending
       operation, capped at the per-resolution limit (a lower bound on the
       true out-degree — enumerating it exactly is the blow-up this backend
       exists to avoid). Debug-path only. *)
    Array.length (color_candidates t cs ~pending:(Iset.union t.srcs t.snks))
  | S_aot _ | S_jit _ -> Array.length (expanded_of_current t).all
