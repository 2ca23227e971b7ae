open Preo_support
open Preo_automata
module Obs = Preo_obs.Obs

(* All bridge slots of the process share one trace lane. The two gate sides
   commit under two different engine locks, so this ring needs its own. *)
let bridge_ring : Obs.ring option ref = ref None
let bridge_ring_lock = Mutex.create ()

let get_bridge_ring () =
  match !bridge_ring with
  | Some r -> r
  | None ->
    Mutex.lock bridge_ring_lock;
    let r =
      match !bridge_ring with
      | Some r -> r
      | None ->
        let r = Obs.create_ring ~locked:true "bridges" in
        bridge_ring := Some r;
        r
    in
    Mutex.unlock bridge_ring_lock;
    r

type region = {
  mediums : Automaton.t list;
  r_sources : Iset.t;
  r_sinks : Iset.t;
  gates : (Vertex.t * Engine.gate) list;
  bridge_peers : int list;
  gate_peers : (Vertex.t * int) list;
}

(* --- Cut-shape recognition -------------------------------------------------

   A medium can be cut out of the synchronous product and replaced by a
   native bridge when no transition ever synchronizes its source side with
   its sink side: the two sides then never fire together, so the product
   across the medium never needs to be computed (Jongmans–Santini–Arbab
   2015). Three recognized shapes, in order of preference:

   - [Cut_queue]: fifo1 (empty or initially full) — a lock-free SPSC slot.
     Chains of these collapse into one queue of summed capacity.
   - [Cut_auto]: any other single-producer single-consumer medium whose
     states are "modal": every state's transitions all consume (sync =
     {tail}) or all emit (sync = {head}), never mixed and never both in one
     sync. Modality is what makes the interpreted bridge safe: while the
     consumer side is between peek and commit the automaton sits in an
     all-head state, where the producer has no enabled transition — and
     symmetrically — so the two engines can never interleave on the bridge,
     and cached gate readiness only ever flips ON from the outside (the
     invariant the engine's gate cache relies on). *)

type cut_shape =
  | Cut_queue of {
      q_tail : Vertex.t;
      q_head : Vertex.t;
      q_cap : int;
      q_init : Value.t list;  (** first element = next to pop *)
    }
  | Cut_auto of {
      a_tail : Vertex.t;
      a_head : Vertex.t;
      a_auto : Automaton.t;  (** label-optimized, cells densely renumbered *)
    }

(* A realized cut, in plan order: cut index [i] is position [i] of this
   array. The ordering is deterministic for a given (mediums, domains,
   sequentialize) input — two processes that build the same connector from
   the same source agree on every cut and region index, which is what lets
   the shard fabric name its wire channels by cut index alone. *)
type cut = { c_shape : cut_shape; c_tail_region : int; c_head_region : int }

type plan = {
  regions : region array;
  cuts : cut array;
  nbridges : int;
  nfused : int;
}

let is_plain_fifo1 (a : Automaton.t) =
  if
    a.nstates = 2 && a.initial = 0
    && Iset.cardinal a.sources = 1
    && Iset.cardinal a.sinks = 1
    && Array.length a.trans.(0) = 1
    && Array.length a.trans.(1) = 1
  then begin
    let tail = Iset.choose a.sources and head = Iset.choose a.sinks in
    let t0 = a.trans.(0).(0) and t1 = a.trans.(1).(0) in
    if
      t0.target = 1 && t1.target = 0
      && Iset.equal t0.sync (Iset.singleton tail)
      && Iset.equal t1.sync (Iset.singleton head)
    then Some (tail, head)
    else None
  end
  else None

(* The initially-full fifo1 built by [Prim]: state 0 emits a constant, then
   the automaton is a plain fifo1 over states 1 (empty) / 2 (full). *)
let is_full_fifo1 (a : Automaton.t) =
  if
    a.nstates = 3 && a.initial = 0
    && Iset.cardinal a.sources = 1
    && Iset.cardinal a.sinks = 1
    && Array.length a.trans.(0) = 1
    && Array.length a.trans.(1) = 1
    && Array.length a.trans.(2) = 1
  then begin
    let tail = Iset.choose a.sources and head = Iset.choose a.sinks in
    let t0 = a.trans.(0).(0) and t1 = a.trans.(1).(0) and t2 = a.trans.(2).(0) in
    if
      t0.target = 1 && t1.target = 2 && t2.target = 1
      && Iset.equal t0.sync (Iset.singleton head)
      && Iset.equal t1.sync (Iset.singleton tail)
      && Iset.equal t2.sync (Iset.singleton head)
    then
      match t0.constr with
      | [ Constr.Eq (Constr.Port h, Constr.Const x) ]
      | [ Constr.Eq (Constr.Const x, Constr.Port h) ]
        when Vertex.equal h head ->
        Some (tail, head, x)
      | _ -> None
    else None
  end
  else None

(* The general modal SPSC shape (see the module comment above). Structural
   prechecks first; only then label-optimize and demand that nothing was
   dropped (a dropped transition means a state could look ready without
   being fireable) and every command is guard-free (a failing guard at
   commit time could not be rolled back). *)
let is_modal_spsc (a : Automaton.t) =
  if
    Iset.cardinal a.sources = 1
    && Iset.cardinal a.sinks = 1
    && a.nstates >= 1
  then begin
    let tail = Iset.choose a.sources and head = Iset.choose a.sinks in
    if
      Vertex.equal tail head
      || not (Iset.equal a.vertices (Iset.of_list [ tail; head ]))
    then None
    else begin
      let stail = Iset.singleton tail and shead = Iset.singleton head in
      let modal =
        Array.for_all
          (fun ts ->
            Array.length ts > 0
            &&
            let is_tail = Iset.equal ts.(0).Automaton.sync stail in
            Array.for_all
              (fun (tr : Automaton.trans) ->
                Iset.equal tr.sync (if is_tail then stail else shead))
              ts)
          a.trans
      in
      if not modal then None
      else begin
        let opt = Automaton.optimize_labels a in
        let intact =
          Automaton.num_transitions opt = Automaton.num_transitions a
          && Array.for_all
               (Array.for_all (fun (tr : Automaton.trans) ->
                    match tr.command with
                    | Some cmd -> Array.length cmd.Command.guards = 0
                    | None -> false))
               opt.trans
        in
        if intact then Some (tail, head, opt) else None
      end
    end
  end
  else None

let classify (a : Automaton.t) =
  match is_plain_fifo1 a with
  | Some (tail, head) ->
    Some (Cut_queue { q_tail = tail; q_head = head; q_cap = 1; q_init = [] })
  | None -> begin
    match is_full_fifo1 a with
    | Some (tail, head, x) ->
      Some (Cut_queue { q_tail = tail; q_head = head; q_cap = 1; q_init = [ x ] })
    | None -> begin
      match is_modal_spsc a with
      | Some (tail, head, opt) ->
        (* Dense cell renumbering so the bridge carries a small array. *)
        let ids = Iset.elements opt.cells in
        let tbl = Hashtbl.create 8 in
        List.iteri (fun i c -> Hashtbl.add tbl c i) ids;
        let opt =
          if ids = [] then opt
          else Automaton.map_cells (fun c -> Hashtbl.find tbl c) opt
        in
        Some (Cut_auto { a_tail = tail; a_head = head; a_auto = opt })
      | None -> None
    end
  end

let shape_ends = function
  | Cut_queue q -> (q.q_tail, q.q_head)
  | Cut_auto a -> (a.a_tail, a.a_head)

(* --- Bridges ---------------------------------------------------------------- *)

(* A capacity-[cap] SPSC ring buffer bridging two engines, optionally
   prefilled (initially-full fifos); the buffer itself is {!Ring}, which
   carries the cross-domain memory ordering. Mutual exclusion follows from
   single-producer single-consumer: only the producing engine's gate
   pushes, only the consuming engine's gate pops, and each side acts only
   when its gate reports room / data. *)
let make_queue ~tail ~head ~cap ~init =
  let ring : Value.t Ring.t = Ring.create ~init cap in
  (* Queue occupancy feeds stall reports: a deadline expiring in one region
     shows whether the bridge into a peer region was full or starved. *)
  let dump side () =
    Printf.sprintf "%s-queue=%d/%d" side (Ring.length ring) cap
  in
  let producer_gate =
    {
      Engine.gate_ready = (fun () -> not (Ring.is_full ring));
      gate_peek = (fun () -> invalid_arg "producer gate has no value");
      gate_commit =
        (fun v ->
          match v with
          | Some value ->
            Ring.push ring value;
            if !Obs.tracing then
              Obs.emit (get_bridge_ring ()) Obs.Slot_put ~a:tail ~b:head
          | None -> invalid_arg "producer gate expects a value");
      gate_dump = dump "out";
    }
  in
  let consumer_gate =
    {
      Engine.gate_ready = (fun () -> not (Ring.is_empty ring));
      gate_peek = (fun () -> Ring.peek ring);
      gate_commit =
        (fun v ->
          match v with
          | None ->
            ignore (Ring.pop ring);
            if !Obs.tracing then
              Obs.emit (get_bridge_ring ()) Obs.Slot_take ~a:head ~b:tail
          | Some _ -> invalid_arg "consumer gate consumes, not delivers");
      gate_dump = dump "in";
    }
  in
  (producer_gate, consumer_gate)

(* An interpreted bridge running a modal SPSC automaton. The state is
   atomic so gate_ready stays lock-free; commits serialize on the mutex.
   Modality guarantees the consumer's peek and commit see the same state
   (the producer is disabled throughout), so the value peeked is the value
   popped. *)
let make_auto ~tail ~head (a : Automaton.t) =
  let ncells = max 1 (Iset.cardinal a.cells) in
  let cells : Value.t option array = Array.make ncells None in
  let state = Atomic.make a.initial in
  let lock = Mutex.create () in
  let first_sync_has v s =
    let ts = a.trans.(s) in
    Array.length ts > 0 && Iset.mem v ts.(0).Automaton.sync
  in
  (* Run the current state's first transition. Nondeterminism among the
     state's (same-polarity) transitions is resolved by always taking the
     first — peek and commit therefore agree on the chosen transition. *)
  let exec ~input ~commit =
    let tr = a.trans.(Atomic.get state).(0) in
    let cmd = match tr.Automaton.command with Some c -> c | None -> assert false in
    let staged = ref [] in
    let delivered = ref None in
    let env =
      {
        Command.read_send =
          (fun _ ->
            match input with
            | Some v -> v
            | None -> invalid_arg "auto bridge: no input value");
        read_cell =
          (fun c ->
            match cells.(c) with
            | Some v -> v
            | None -> invalid_arg "auto bridge: read from empty cell");
        write_cell = (fun c v -> staged := (c, v) :: !staged);
        deliver = (fun _ v -> delivered := Some v);
      }
    in
    Command.execute cmd env;
    if commit then begin
      List.iter (fun (c, v) -> cells.(c) <- Some v) !staged;
      Atomic.set state tr.target
    end;
    !delivered
  in
  let locked f =
    Mutex.lock lock;
    match f () with
    | r ->
      Mutex.unlock lock;
      r
    | exception e ->
      Mutex.unlock lock;
      raise e
  in
  let dump side () = Printf.sprintf "%s-auto-state=%d" side (Atomic.get state) in
  let producer_gate =
    {
      Engine.gate_ready = (fun () -> first_sync_has tail (Atomic.get state));
      gate_peek = (fun () -> invalid_arg "producer gate has no value");
      gate_commit =
        (fun v ->
          match v with
          | Some value ->
            locked (fun () -> ignore (exec ~input:(Some value) ~commit:true));
            if !Obs.tracing then
              Obs.emit (get_bridge_ring ()) Obs.Slot_put ~a:tail ~b:head
          | None -> invalid_arg "producer gate expects a value");
      gate_dump = dump "out";
    }
  in
  let consumer_gate =
    {
      Engine.gate_ready = (fun () -> first_sync_has head (Atomic.get state));
      gate_peek =
        (fun () ->
          match locked (fun () -> exec ~input:None ~commit:false) with
          | Some v -> v
          | None -> invalid_arg "auto bridge: head transition delivers nothing");
      gate_commit =
        (fun v ->
          match v with
          | None ->
            locked (fun () -> ignore (exec ~input:None ~commit:true));
            if !Obs.tracing then
              Obs.emit (get_bridge_ring ()) Obs.Slot_take ~a:head ~b:tail
          | Some _ -> invalid_arg "consumer gate consumes, not delivers");
      gate_dump = dump "in";
    }
  in
  (producer_gate, consumer_gate)

let gates_of_shape = function
  | Cut_queue { q_tail; q_head; q_cap; q_init } ->
    make_queue ~tail:q_tail ~head:q_head ~cap:q_cap ~init:q_init
  | Cut_auto { a_tail; a_head; a_auto } ->
    make_auto ~tail:a_tail ~head:a_head a_auto

(* The relay medium synthesized for a cut whose fifo end is a connector
   boundary: a plain Sync between a fresh gate vertex and the boundary
   vertex, run on its own little engine, preserves the cut fifo's buffered
   semantics exactly (the buffering lives in the bridge queue). *)
let sync_medium g h =
  Automaton.make ~nstates:1 ~initial:0
    ~trans:
      [|
        [|
          {
            Automaton.sync = Iset.of_list [ g; h ];
            constr = [ Constr.Eq (Constr.Port h, Constr.Port g) ];
            command = None;
            target = 0;
          };
        |];
      |]
    ~sources:(Iset.singleton g) ~sinks:(Iset.singleton h)

(* --- Sequentialization -------------------------------------------------------

   PAPERS.md's "Toward Sequentializing Overparallelized Protocol Code": the
   splitter below happily cuts at every eligible fifo, but a cut only pays
   when the two sides can actually run concurrently. For a pair of solid
   components joined by cut queues, concurrency is decidable from a small
   abstraction: compose each side's mediums, hide everything except the
   pair's cut ends, and run the two interface automata against the cut
   occupancies. If no reachable state of that product enables both sides at
   once, the cross-cut traffic is strictly alternating — the regions would
   only ever take turns, and every queue slot, wake signal and drive-loop
   pass on the bridge is pure overhead. Such pairs are fused back into one
   region.

   Conservative in the right direction: hiding over-approximates each
   side's enabledness (external ports are assumed ready, data guards
   assumed true), so "alternating" under the abstraction implies
   alternating in every real execution. Every escape hatch — a silent
   interface transition (the side has work unrelated to this cut), a
   non-queue cut shape, a budget trip, an abstraction too large to explore
   — refuses the fusion and keeps the cut. Fusion never changes observable
   behaviour (the unfused split is just a runtime layout of the same
   product); the fused ≡ unfused suite certifies that. *)

let seq_iface_budget = 512
let seq_explore_budget = 4096

(* One cut queue between the pair, as the occupancy simulation sees it. *)
type seq_cut = {
  sc_tail : Vertex.t;
  sc_head : Vertex.t;
  sc_cap : int;
  sc_occ0 : int;
  sc_tail_in_a : bool;  (** the producing end lives in side A *)
}

let strictly_alternating meds_a meds_b (cuts : seq_cut list) =
  let cutverts =
    List.fold_left
      (fun acc c -> Iset.add c.sc_tail (Iset.add c.sc_head acc))
      Iset.empty cuts
  in
  let iface meds =
    let p =
      Product.all ~label:"sequentialize" ~max_states:seq_iface_budget
        ~max_trans:(4 * seq_iface_budget) ~max_seconds:0.05 meds
    in
    Automaton.trim (Automaton.hide (Iset.diff p.vertices cutverts) p)
  in
  match (iface meds_a, iface meds_b) with
  | exception Product.Budget_exceeded _ -> false
  | exception Invalid_argument _ -> false (* an empty side: nothing to prove *)
  | ia, ib ->
    let no_silent (a : Automaton.t) =
      Array.for_all
        (Array.for_all (fun (tr : Automaton.trans) ->
             not (Iset.is_empty tr.sync)))
        a.trans
    in
    no_silent ia && no_silent ib
    && begin
         let cuts = Array.of_list cuts in
         (* Occupancy feasibility + effect of one interface transition:
            pushing needs room, popping needs data; a side only ever
            touches its own end of a cut. *)
         let step occ ~in_a (tr : Automaton.trans) =
           let occ' = Array.copy occ in
           let ok = ref true in
           Array.iteri
             (fun i c ->
               let this_end =
                 if c.sc_tail_in_a = in_a then c.sc_tail else c.sc_head
               in
               if Iset.mem this_end tr.sync then
                 if Vertex.equal this_end c.sc_tail then begin
                   if occ'.(i) < c.sc_cap then occ'.(i) <- occ'.(i) + 1
                   else ok := false
                 end
                 else if occ'.(i) > 0 then occ'.(i) <- occ'.(i) - 1
                 else ok := false)
             cuts;
           if !ok then Some occ' else None
         in
         let seen = Hashtbl.create 64 in
         let key sa sb occ = (sa, sb, Array.to_list occ) in
         let frontier = Queue.create () in
         let occ0 = Array.map (fun c -> c.sc_occ0) cuts in
         Queue.push (ia.initial, ib.initial, occ0) frontier;
         Hashtbl.replace seen (key ia.initial ib.initial occ0) ();
         let refused = ref false in
         (try
            while not (Queue.is_empty frontier) do
              if Hashtbl.length seen > seq_explore_budget then begin
                refused := true;
                raise Exit
              end;
              let sa, sb, occ = Queue.pop frontier in
              let succs side_trans ~in_a mk =
                Array.fold_left
                  (fun acc (tr : Automaton.trans) ->
                    match step occ ~in_a tr with
                    | Some occ' -> mk tr.target occ' :: acc
                    | None -> acc)
                  [] side_trans
              in
              let sa_succs =
                succs ia.trans.(sa) ~in_a:true (fun t occ' -> (t, sb, occ'))
              in
              let sb_succs =
                succs ib.trans.(sb) ~in_a:false (fun t occ' -> (sa, t, occ'))
              in
              if sa_succs <> [] && sb_succs <> [] then begin
                (* both sides enabled at a reachable state: concurrent *)
                refused := true;
                raise Exit
              end;
              List.iter
                (fun ((sa', sb', occ') as s) ->
                  let k = key sa' sb' occ' in
                  if not (Hashtbl.mem seen k) then begin
                    Hashtbl.replace seen k ();
                    Queue.push s frontier
                  end)
                (sa_succs @ sb_succs)
            done
          with Exit -> ());
         not !refused
       end

(* --- The splitter ----------------------------------------------------------- *)

type chain = { members : Automaton.t list; shape : cut_shape }

let split ?(domains = 2) ?sequentialize ?gate_for ~sources ~sinks
    (mediums : Automaton.t list) =
  (* Fusion rides the compile switch: PREO_COMPILE=0 gives the unfused
     (reference) layout as well as the interpreted commands. *)
  let sequentialize = Config.effective_compile ?requested:sequentialize () in
  let boundary = Iset.union sources sinks in
  (* Classify every medium; eligibility (boundary ends, components) is
     decided later over the collapsed chains. *)
  let classified =
    List.map (fun (a : Automaton.t) -> (a, classify a)) mediums
  in
  let solids0 =
    List.filter_map
      (fun (a, c) -> if c = None then Some a else None)
      classified
  in
  let cand0 =
    Array.of_list
      (List.filter_map
         (fun (a, c) -> match c with Some s -> Some (a, s) | None -> None)
         classified)
  in
  let nc = Array.length cand0 in
  (* Vertex usage across all mediums, to find chain joints: a joint is an
     internal vertex touched by exactly two mediums, the head of one queue
     candidate and the tail of another. Any other vertex shared between
     candidates (fan-in/fan-out among cuttables, overlap with nothing to
     own it) demotes the candidates touching it — some region must own
     every vertex a bridge leaves behind. *)
  let uses : (Vertex.t, int list) Hashtbl.t = Hashtbl.create 64 in
  (* candidate indexes per vertex *)
  let solid_touches : (Vertex.t, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a : Automaton.t) ->
      Iset.iter (fun v -> Hashtbl.replace solid_touches v ()) a.vertices)
    solids0;
  Array.iteri
    (fun i ((a : Automaton.t), _) ->
      Iset.iter
        (fun v ->
          Hashtbl.replace uses v
            (i :: (try Hashtbl.find uses v with Not_found -> [])))
        a.vertices)
    cand0;
  let demoted = Array.make nc false in
  (* next candidate whose tail is this vertex, when it's a proper joint *)
  let joint_next : (Vertex.t, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v is ->
      match is with
      | [] | [ _ ] -> ()
      | [ i; j ] when (not (Iset.mem v boundary)) && not (Hashtbl.mem solid_touches v)
        -> begin
        (* chainable iff head of one queue meets tail of the other *)
        let ends k = shape_ends (snd cand0.(k)) in
        let queue k = match snd cand0.(k) with Cut_queue _ -> true | _ -> false in
        let ti, hi = ends i and tj, hj = ends j in
        if queue i && queue j && Vertex.equal hi tj && Vertex.equal v hi then
          Hashtbl.replace joint_next v j
        else if queue i && queue j && Vertex.equal hj ti && Vertex.equal v hj
        then Hashtbl.replace joint_next v i
        else begin
          demoted.(i) <- true;
          demoted.(j) <- true
        end
      end
      | is -> List.iter (fun i -> demoted.(i) <- true) is)
    uses;
  let solids = ref solids0 in
  Array.iteri (fun i (a, _) -> if demoted.(i) then solids := a :: !solids) cand0;
  (* Build maximal chains over the surviving candidates: follow joint_next
     links; a candidate whose tail is a joint is not a chain start. Cycles
     (every member mid-chain) are kept solid — a pure fifo cycle has no
     component to anchor either cut end. *)
  let consumed = Array.make nc false in
  let tail_is_joint = Array.make nc false in
  Hashtbl.iter
    (fun _ j -> if not demoted.(j) then tail_is_joint.(j) <- true)
    joint_next;
  let collapse idxs =
    (* [idxs] tail-end first. Queue contents pop downstream first, so the
       collapsed init lists the head-end fifo's value(s) first. *)
    let qs =
      List.map
        (fun i ->
          match snd cand0.(i) with
          | Cut_queue { q_tail; q_head; q_cap; q_init } ->
            (q_tail, q_head, q_cap, q_init)
          | Cut_auto _ -> assert false)
        idxs
    in
    let tail, _, _, _ = List.hd qs in
    let _, head, _, _ = List.nth qs (List.length qs - 1) in
    let cap = List.fold_left (fun acc (_, _, c, _) -> acc + c) 0 qs in
    let init = List.concat (List.rev_map (fun (_, _, _, i) -> i) qs) in
    {
      members = List.map (fun i -> fst cand0.(i)) idxs;
      shape = Cut_queue { q_tail = tail; q_head = head; q_cap = cap; q_init = init };
    }
  in
  let chains = ref [] in
  for i = 0 to nc - 1 do
    if (not demoted.(i)) && (not consumed.(i)) && not tail_is_joint.(i) then begin
      let rec follow j acc =
        consumed.(j) <- true;
        let _, hj = shape_ends (snd cand0.(j)) in
        match Hashtbl.find_opt joint_next hj with
        | Some k when (not demoted.(k)) && not consumed.(k) -> follow k (j :: acc)
        | _ -> List.rev (j :: acc)
      in
      let idxs = follow i [] in
      match idxs with
      | [ j ] -> chains := { members = [ fst cand0.(j) ]; shape = snd cand0.(j) } :: !chains
      | _ -> chains := collapse idxs :: !chains
    end
  done;
  (* Leftover unconsumed candidates are mid-cycle: keep them solid. *)
  for i = 0 to nc - 1 do
    if (not demoted.(i)) && not consumed.(i) then solids := fst cand0.(i) :: !solids
  done;
  (* Peel boundary ends off multi-member chains: the end fifo returns to
     the solids (it anchors the boundary vertex in a region of its own),
     and the remaining interior — now with internal ends — stays a cut
     candidate. Single-member chains with one boundary end stay as relay
     candidates, decided per component below; both-boundary singles are
     never cut. *)
  let internal_cands = ref [] in
  let relay_cands = ref [] in
  List.iter
    (fun ch ->
      let rec peel ch =
        let t, h = shape_ends ch.shape in
        let tb = Iset.mem t boundary and hb = Iset.mem h boundary in
        match ch.members with
        | [] -> ()
        | [ _m ] ->
          if tb && hb then solids := ch.members @ !solids
          else if tb || hb then relay_cands := ch :: !relay_cands
          else internal_cands := ch :: !internal_cands
        | m_first :: rest when tb ->
          solids := m_first :: !solids;
          peel { members = rest; shape = reshape_after_peel_front ch }
        | _ when hb ->
          let rec split_last = function
            | [] -> assert false
            | [ x ] -> ([], x)
            | x :: xs ->
              let ys, last = split_last xs in
              (x :: ys, last)
          in
          let rest, m_last = split_last ch.members in
          solids := m_last :: !solids;
          peel { members = rest; shape = reshape_after_peel_back ch }
        | _ -> internal_cands := ch :: !internal_cands
      and reshape_after_peel_front ch =
        match (ch.shape, classify (List.hd ch.members)) with
        | ( Cut_queue { q_tail = _; q_head; q_cap; q_init },
            Some (Cut_queue { q_head = mh; q_cap = mc; q_init = mi; _ }) ) ->
          Cut_queue
            {
              q_tail = mh;
              q_head;
              q_cap = q_cap - mc;
              q_init =
                (* the peeled tail-end fifo held the upstream-most value(s):
                   drop them from the back of the init list *)
                (let keep = List.length q_init - List.length mi in
                 List.filteri (fun i _ -> i < keep) q_init);
            }
        | _ -> assert false
      and reshape_after_peel_back ch =
        let m_last = List.nth ch.members (List.length ch.members - 1) in
        match (ch.shape, classify m_last) with
        | ( Cut_queue { q_tail; q_head = _; q_cap; q_init },
            Some (Cut_queue { q_tail = mt; q_cap = mc; q_init = mi; _ }) ) ->
          Cut_queue
            {
              q_tail;
              q_head = mt;
              q_cap = q_cap - mc;
              q_init =
                (let drop = List.length mi in
                 List.filteri (fun i _ -> i >= drop) q_init);
            }
        | _ -> assert false
      in
      peel ch)
    !chains;
  let solids = Array.of_list !solids in
  let n = Array.length solids in
  if n = 0 then
    {
      regions =
        [|
          {
            mediums;
            r_sources = sources;
            r_sinks = sinks;
            gates = [];
            bridge_peers = [];
            gate_peers = [];
          };
        |];
      cuts = [||];
      nbridges = 0;
      nfused = 0;
    }
  else begin
    (* Union-find over solid mediums through shared vertices. *)
    let uf = Union_find.create n in
    let owner : (Vertex.t, int) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i (a : Automaton.t) ->
        Iset.iter
          (fun v ->
            match Hashtbl.find_opt owner v with
            | Some j -> Union_find.union uf i j
            | None -> Hashtbl.add owner v i)
          a.vertices)
      solids;
    let region_of_vertex v =
      match Hashtbl.find_opt owner v with
      | Some i -> Some (Union_find.find uf i)
      | None -> None
    in
    (* Internal candidates: bridge iff the two ends lie in different solid
       components (a same-component cut buys nothing: the cut ends would
       still serialize on one engine), otherwise return the members to that
       component. *)
    let cuts = ref [] in
    (* (shape, members, tail_rep option, head_rep option); None = relay *)
    let returned = ref [] in
    List.iter
      (fun ch ->
        let t, h = shape_ends ch.shape in
        match (region_of_vertex t, region_of_vertex h) with
        | Some rt, Some rh when rt <> rh -> cuts := (ch, Some rt, Some rh) :: !cuts
        | _ -> returned := ch :: !returned)
      !internal_cands;
    (* Sequentialization: fuse component pairs whose cross-cut traffic is
       strictly alternating (see {!strictly_alternating} above). Greedy to a
       fixed point — a merged pair can itself alternate with a neighbour
       (the sequencer ring collapses to one region this way). The fused
       cuts' fifos return to the merged region as ordinary mediums. *)
    let nfused = ref 0 in
    if sequentialize then begin
      (* Everything currently anchored to a component, for its interface
         automaton: its solids, plus returned/relay chains living there (a
         chain with a boundary end is anchored at its internal end). *)
      let comp_mediums rep =
        let acc = ref [] in
        Array.iteri
          (fun i m -> if Union_find.find uf i = rep then acc := m :: !acc)
          solids;
        let anchored ch =
          let t, h = shape_ends ch.shape in
          let here v = region_of_vertex v = Some rep in
          if Iset.mem t boundary then here h
          else if Iset.mem h boundary then here t
          else here t || here h
        in
        List.iter (fun ch -> if anchored ch then acc := ch.members @ !acc) !returned;
        List.iter (fun ch -> if anchored ch then acc := ch.members @ !acc) !relay_cands;
        !acc
      in
      let changed = ref true in
      while !changed do
        changed := false;
        (* Group the surviving internal cuts by current component pair
           (reps re-resolved through the union-find after earlier fusions). *)
        let groups : (int * int, (chain * bool) list) Hashtbl.t =
          Hashtbl.create 8
        in
        List.iter
          (fun (ch, rt, rh) ->
            match (rt, rh) with
            | Some rt, Some rh ->
              let ra = Union_find.find uf rt and rb = Union_find.find uf rh in
              if ra <> rb then begin
                let a = min ra rb and b = max ra rb in
                Hashtbl.replace groups (a, b)
                  ((ch, ra = a)
                  :: (try Hashtbl.find groups (a, b) with Not_found -> []))
              end
            | _ -> ())
          !cuts;
        Hashtbl.iter
          (fun (a, b) chs ->
            if not !changed then begin
              let scuts =
                List.map
                  (fun (ch, tail_in_a) ->
                    match ch.shape with
                    | Cut_queue { q_tail; q_head; q_cap; q_init } ->
                      Some
                        {
                          sc_tail = q_tail;
                          sc_head = q_head;
                          sc_cap = q_cap;
                          sc_occ0 = List.length q_init;
                          sc_tail_in_a = tail_in_a;
                        }
                    | Cut_auto _ -> None)
                  chs
              in
              if
                List.for_all Option.is_some scuts
                && strictly_alternating (comp_mediums a) (comp_mediums b)
                     (List.filter_map Fun.id scuts)
              then begin
                let stay, gone =
                  List.partition
                    (fun (_, rt, rh) ->
                      match (rt, rh) with
                      | Some rt, Some rh ->
                        let ra = Union_find.find uf rt
                        and rb = Union_find.find uf rh in
                        (min ra rb, max ra rb) <> (a, b)
                      | _ -> true)
                    !cuts
                in
                cuts := stay;
                List.iter (fun (ch, _, _) -> returned := ch :: !returned) gone;
                Union_find.union uf a b;
                incr nfused;
                changed := true
              end
            end)
          groups
      done
    end;
    (* Relay candidates (exactly one boundary end): cut only when at least
       two of them hang off the same solid component AND the runtime has
       more than one domain to run the pieces on. Cutting a lone relay
       adds an engine and a bridge on a path that already serializes
       through that component — pure overhead (this is what keeps
       token_ring's per-station fifos fused with their Syncs). With two or
       more, the cut decouples siblings that previously contended on one
       engine (broadcast_fifo's and gather's per-task fifos) — but only if
       the decoupled pieces can actually run concurrently: on a single
       domain the extra regions just add bridge and wakeup traffic (the
       gather regression of PR 4), so [domains <= 1] keeps relays fused.
       Internal cuts above are kept regardless — they shrink per-region
       products, which pays even on one core. *)
    let by_comp : (int, chain list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun ch ->
        let t, h = shape_ends ch.shape in
        let internal_end = if Iset.mem t boundary then h else t in
        match region_of_vertex internal_end with
        | Some rep ->
          Hashtbl.replace by_comp rep
            (ch :: (try Hashtbl.find by_comp rep with Not_found -> []))
        | None -> returned := ch :: !returned)
      !relay_cands;
    let relay_cuts = ref [] in
    Hashtbl.iter
      (fun rep chs ->
        if domains > 1 && List.length chs >= 2 then
          List.iter
            (fun ch ->
              let t, _ = shape_ends ch.shape in
              if Iset.mem t boundary then
                (* boundary tail: relay feeds the bridge *)
                relay_cuts := (ch, None, Some rep) :: !relay_cuts
              else relay_cuts := (ch, Some rep, None) :: !relay_cuts)
            chs
        else returned := chs @ !returned)
      by_comp;
    let all_cuts = !cuts @ !relay_cuts in
    (* Materialize the solid regions... *)
    let reps = Hashtbl.create 8 in
    let region_ids = ref [] in
    for i = n - 1 downto 0 do
      let r = Union_find.find uf i in
      if not (Hashtbl.mem reps r) then begin
        Hashtbl.add reps r ();
        region_ids := r :: !region_ids
      end
    done;
    let region_ids = Array.of_list !region_ids in
    let index_of_rep r =
      (* Re-canonicalize: cut records hold reps captured before the
         sequentializer's unions, which may since have merged away. *)
      let r = Union_find.find uf r in
      let rec go i = if region_ids.(i) = r then i else go (i + 1) in
      go 0
    in
    let nsolid = Array.length region_ids in
    (* ...plus one relay region per boundary-end cut. *)
    let nrelay =
      List.fold_left
        (fun acc (_, rt, rh) -> if rt = None || rh = None then acc + 1 else acc)
        0 all_cuts
    in
    let nregions = nsolid + nrelay in
    let r_mediums = Array.make nregions [] in
    let r_sources = Array.make nregions Iset.empty in
    let r_sinks = Array.make nregions Iset.empty in
    let r_gates = Array.make nregions [] in
    let r_peers = Array.make nregions [] in
    let r_gpeers = Array.make nregions [] in
    Array.iteri
      (fun i (a : Automaton.t) ->
        let r = index_of_rep (Union_find.find uf i) in
        r_mediums.(r) <- a :: r_mediums.(r))
      solids;
    (* Returned candidates keep living in the region of their tail (or
       head, or any region if fully dangling). *)
    List.iter
      (fun ch ->
        let t, h = shape_ends ch.shape in
        let r =
          match (region_of_vertex t, region_of_vertex h) with
          | Some rep, _ | None, Some rep -> index_of_rep rep
          | None, None -> 0
        in
        r_mediums.(r) <- ch.members @ r_mediums.(r))
      !returned;
    (* Boundary vertices claimed by relay regions are assigned there; the
       rest belong to whichever region's mediums mention them. *)
    let claimed : (Vertex.t, int) Hashtbl.t = Hashtbl.create 8 in
    let add_peer r p =
      if not (List.mem p r_peers.(r)) then r_peers.(r) <- p :: r_peers.(r)
    in
    (* Pass 1: resolve both region indices of every cut (synthesizing relay
       region ids) before any gate is built, so a [gate_for] override can see
       where each side of its cut will run. *)
    let next_relay = ref nsolid in
    let assigned =
      List.map
        (fun (ch, rt, rh) ->
          let tail_region =
            match rt with
            | Some rep -> index_of_rep rep
            | None ->
              let ridx = !next_relay in
              incr next_relay;
              ridx
          and head_region =
            match rh with
            | Some rep -> index_of_rep rep
            | None ->
              let ridx = !next_relay in
              incr next_relay;
              ridx
          in
          (ch, rt, rh, tail_region, head_region))
        all_cuts
    in
    (* Pass 2: materialize gates and wiring. A side whose rep is [None] is a
       synthesized relay: the gate moves to a fresh vertex bridged to the
       boundary end by a sync medium. [gate_for] (the shard fabric's hook)
       may replace the native SPSC gates of any cut with its own pair. *)
    List.iteri
      (fun idx (ch, rt, rh, tail_region, head_region) ->
        let tail, head = shape_ends ch.shape in
        let producer_gate, consumer_gate =
          match gate_for with
          | Some f -> (
            match f idx ch.shape ~tail_region ~head_region with
            | Some gates -> gates
            | None -> gates_of_shape ch.shape)
          | None -> gates_of_shape ch.shape
        in
        (match rt with
         | Some _ ->
           r_sinks.(tail_region) <- Iset.add tail r_sinks.(tail_region);
           r_gates.(tail_region) <- (tail, producer_gate) :: r_gates.(tail_region);
           r_gpeers.(tail_region) <- (tail, head_region) :: r_gpeers.(tail_region)
         | None ->
           (* boundary tail: synthesize the feeding relay *)
           let g = Vertex.fresh "bridge" in
           r_mediums.(tail_region) <- [ sync_medium tail g ];
           r_sources.(tail_region) <- Iset.singleton tail;
           Hashtbl.replace claimed tail tail_region;
           (* the producer gate moves to the relay's fresh vertex *)
           r_sinks.(tail_region) <- Iset.singleton g;
           r_gates.(tail_region) <- [ (g, producer_gate) ];
           r_gpeers.(tail_region) <- (g, head_region) :: r_gpeers.(tail_region));
        (match rh with
         | Some _ ->
           r_sources.(head_region) <- Iset.add head r_sources.(head_region);
           r_gates.(head_region) <- (head, consumer_gate) :: r_gates.(head_region);
           r_gpeers.(head_region) <- (head, tail_region) :: r_gpeers.(head_region)
         | None ->
           let g = Vertex.fresh "bridge" in
           r_mediums.(head_region) <- [ sync_medium g head ];
           r_sinks.(head_region) <- Iset.singleton head;
           Hashtbl.replace claimed head head_region;
           r_sources.(head_region) <- Iset.singleton g;
           r_gates.(head_region) <- [ (g, consumer_gate) ];
           r_gpeers.(head_region) <- (g, tail_region) :: r_gpeers.(head_region));
        add_peer tail_region head_region;
        add_peer head_region tail_region)
      assigned;
    let assign_boundary v =
      match Hashtbl.find_opt claimed v with
      | Some r -> Some r
      | None ->
        let rec find r =
          if r >= nregions then None
          else if
            List.exists
              (fun (a : Automaton.t) -> Iset.mem v a.vertices)
              r_mediums.(r)
          then Some r
          else find (r + 1)
        in
        find 0
    in
    Iset.iter
      (fun v ->
        if not (Hashtbl.mem claimed v) then
          match assign_boundary v with
          | Some r -> r_sources.(r) <- Iset.add v r_sources.(r)
          | None -> r_sources.(0) <- Iset.add v r_sources.(0))
      sources;
    Iset.iter
      (fun v ->
        if not (Hashtbl.mem claimed v) then
          match assign_boundary v with
          | Some r -> r_sinks.(r) <- Iset.add v r_sinks.(r)
          | None -> r_sinks.(0) <- Iset.add v r_sinks.(0))
      sinks;
    {
      regions =
        Array.init nregions (fun r ->
            {
              mediums = r_mediums.(r);
              r_sources = r_sources.(r);
              r_sinks = r_sinks.(r);
              gates = r_gates.(r);
              bridge_peers = r_peers.(r);
              gate_peers = r_gpeers.(r);
            });
      cuts =
        Array.of_list
          (List.map
             (fun (ch, _, _, tr, hr) ->
               { c_shape = ch.shape; c_tail_region = tr; c_head_region = hr })
             assigned);
      nbridges = List.length all_cuts;
      nfused = !nfused;
    }
  end
