(* Benchmark harness regenerating every table/figure of the paper's
   evaluation (Section V), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything, fast settings
     dune exec bench/main.exe -- --full       -- longer windows/budgets
     dune exec bench/main.exe -- --only fig12,abl-opt

   Absolute numbers differ from the paper's testbeds (see EXPERIMENTS.md);
   the shapes -- who wins where, where the existing compiler fails, where
   the monolithic product blows up -- are the reproduction targets. *)

open Preo_support

let sections =
  [ "fig12"; "fig13"; "fig13-blowup"; "npb-mc"; "abl-opt"; "abl-cache";
    "abl-part"; "obs"; "elastic"; "coloring"; "compile"; "shard"; "micro" ]

(* Representative connector families for the steps/s micro bench: picked to
   exercise deep pending sets (sequencer), partitionable pipelines
   (relay_ring), wide synchronization (broadcast_fifo, gather), and token
   circulation (token_ring). BENCH_baseline.json is regenerated from these
   rows (plus the elastic churn and coloring scaling rows) via
   `--only micro,elastic,coloring --json BENCH_baseline.json`. *)
let micro_families =
  [ ("sequencer", 8); ("relay_ring", 6); ("broadcast_fifo", 8);
    ("token_ring", 8); ("gather", 8) ]

(* Each config pins its domain placement: [`One] runs everything in the
   primary domain (the schema-3 baseline semantics, so old and new rows stay
   comparable), [`Multi] spreads partition regions and port tasks over a
   domain pool of --domains workers (default 2). new-partitioned-mc is the
   multicore row of the evaluation. The last field is the port-task batch
   size: the -b8 rows drive every port through the batch API (8 values per
   submission burst), exercising the MPSC submission queues. *)
let micro_configs =
  [
    ("new-jit", Preo_runtime.Config.new_jit, `One, 1);
    ("new-jit-nolabel",
     Preo_runtime.Config.New
       { optimize_labels = false; cache_capacity = 0;
         expansion_budget = 2_000_000; partition = false;
         true_synchronous = false },
     `One, 1);
    ("new-jit-b8", Preo_runtime.Config.new_jit, `One, 8);
    ("new-partitioned", Preo_runtime.Config.new_partitioned, `One, 1);
    ("new-partitioned-mc", Preo_runtime.Config.new_partitioned, `Multi, 1);
    ("new-partitioned-mc-b8", Preo_runtime.Config.new_partitioned, `Multi, 8);
  ]

type opts = {
  full : bool;
  only : string list;
  detail : bool;
  json : string option;
  compare : (string * string) option;
  domains : int;  (* domain count for the `Multi (…-mc) rows and fig13 *)
  backend : Preo_runtime.Sched.backend option;
      (* process-default backend for every section; the coloring section
         always pins its three configs explicitly *)
  interleave : int;
      (* executions per mode in the compile section: compiled and
         interpreted runs alternate (A/B/A/B…) so drift hits both sides,
         and each cell reports the median of its K runs with the spread *)
}

let parse_args () =
  let full = ref false and only = ref [] and detail = ref false in
  let json = ref None in
  let domains = ref 2 in
  let backend = ref None in
  let interleave = ref 5 in
  let cmp_old = ref "" and cmp_new = ref None in
  let set_only s = only := String.split_on_char ',' s in
  let spec =
    [
      ("--full", Arg.Set full, " longer measurement windows and budgets");
      ("--only", Arg.String set_only,
       "SECTIONS comma-separated subset of: " ^ String.concat "," sections);
      ("--detail", Arg.Set detail,
       " per-connector detail for fig12 and engine counters for micro");
      ("--domains", Arg.Set_int domains,
       "N domain count for the multicore micro rows (new-partitioned-mc); \
        default 2, clamped to the runtime cap");
      ("--backend", Arg.String (fun b -> backend := Some b),
       "B execution backend for every run: automata (default) or coloring \
        (the coloring section always measures both explicitly)");
      ("--interleave", Arg.Set_int interleave,
       "K runs per mode in the compile section, alternating \
        compiled/interpreted; each cell is the median of K (default 5)");
      ("--json", Arg.String (fun f -> json := Some f),
       "FILE dump the micro, elastic and coloring steps/s rows as JSON \
        (baseline format, see EXPERIMENTS.md)");
      ("--compare",
       Arg.Tuple
         [ Arg.Set_string cmp_old; Arg.String (fun f -> cmp_new := Some f) ],
       "OLD.json NEW.json compare two --json dumps row by row (±5% noise \
        band); exits non-zero when any row regressed");
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "preo benchmark harness";
  (* Unknown operands exit 2 with usage instead of silently running an empty
     selection. *)
  let invalid fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: %s\n" msg;
        Arg.usage spec "preo benchmark harness";
        exit 2)
      fmt
  in
  List.iter
    (fun s ->
      if not (List.mem s sections) then
        invalid "--only %s: unknown section (expected a subset of %s)" s
          (String.concat "," sections))
    !only;
  let backend =
    match !backend with
    | None -> None
    | Some b -> begin
      match Preo_runtime.Sched.of_string b with
      | Some _ as bk -> bk
      | None -> invalid "--backend %s: expected 'automata' or 'coloring'" b
    end
  in
  {
    full = !full;
    only = !only;
    detail = !detail;
    json = !json;
    compare = (match !cmp_new with Some n -> Some (!cmp_old, n) | None -> None);
    domains = max 1 !domains;
    backend;
    interleave = max 1 !interleave;
  }

let wants opts name = opts.only = [] || List.mem name opts.only

(* ------------------------------------------------------------------ *)
(* FIG12: connector benchmarks                                          *)
(* ------------------------------------------------------------------ *)

type cell =
  | C_rate of float * float  (* steps/s, compile seconds *)
  | C_compile_failed
  | C_run_failed of string

let fig12_cell ~window ~config entry n =
  match Preo_connectors.Driver.run_noop ~config ~seconds:window entry ~n with
  | Preo_connectors.Driver.Steps { steps; compile_seconds; run_seconds; _ } ->
    C_rate (float_of_int steps /. run_seconds, compile_seconds)
  | Preo_connectors.Driver.Compile_failed _ -> C_compile_failed
  | Preo_connectors.Driver.Run_failed msg -> C_run_failed msg

type verdict =
  | New_only  (* new compiles/runs where existing fails: Fig. 12 dotted *)
  | New_wins  (* dark gray *)
  | Exist_wins_1  (* medium gray: <= 1 order of magnitude *)
  | Exist_wins_2  (* light gray: more than 1 order *)
  | New_failed
  | Both_failed

let verdict_name = function
  | New_only -> "new-compiles-existing-fails"
  | New_wins -> "new-outperforms"
  | Exist_wins_1 -> "existing-wins-up-to-10x"
  | Exist_wins_2 -> "existing-wins-more-than-10x"
  | New_failed -> "new-fails"
  | Both_failed -> "both-fail"

let judge existing new_ =
  match (existing, new_) with
  | (C_compile_failed | C_run_failed _), C_rate _ -> New_only
  | C_rate _, (C_compile_failed | C_run_failed _) -> New_failed
  | (C_compile_failed | C_run_failed _), (C_compile_failed | C_run_failed _) ->
    Both_failed
  | C_rate (re, _), C_rate (rn, _) ->
    if rn >= re then New_wins
    else if re /. rn <= 10.0 then Exist_wins_1
    else Exist_wins_2

let cell_str = function
  | C_rate (r, _) -> Printf.sprintf "%.0f/s" r
  | C_compile_failed -> "COMPILE-FAIL"
  | C_run_failed _ -> "RUN-FAIL"

let fig12 opts =
  let window = if opts.full then 1.0 else 0.12 in
  let ns = [ 2; 4; 8; 16; 32; 64 ] in
  let existing_config =
    if opts.full then Preo_runtime.Config.existing
    else Preo_runtime.Config.existing_states 50_000
  in
  Tablefmt.rule "FIG12: connector benchmarks (steps per second, no-op tasks)";
  Printf.printf
    "existing = full ahead-of-time composition (+dispatch +command opts)\n\
     new      = medium automata + just-in-time composition\n\
     window   = %.2fs per cell\n\n"
    window;
  let tally : (int * verdict, int) Hashtbl.t = Hashtbl.create 64 in
  let bump n v =
    Hashtbl.replace tally (n, v)
      (1 + try Hashtbl.find tally (n, v) with Not_found -> 0)
  in
  let rows = ref [] in
  List.iter
    (fun (e : Preo_connectors.Catalog.entry) ->
      List.iter
        (fun n ->
          let existing = fig12_cell ~window ~config:existing_config e n in
          let new_ = fig12_cell ~window ~config:Preo_runtime.Config.new_jit e n in
          let v = judge existing new_ in
          bump n v;
          Printf.eprintf "[fig12] %-16s N=%-3d existing=%-13s new=%-10s %s\n%!"
            e.name n (cell_str existing) (cell_str new_) (verdict_name v);
          rows :=
            [
              e.name;
              string_of_int n;
              cell_str existing;
              cell_str new_;
              (match (existing, new_) with
               | C_rate (re, _), C_rate (rn, _) -> Printf.sprintf "%.2f" (rn /. re)
               | _ -> "-");
              verdict_name v;
            ]
            :: !rows)
        ns)
    Preo_connectors.Catalog.all;
  if opts.detail then
    Tablefmt.print
      ~header:[ "connector"; "N"; "existing"; "new"; "new/existing"; "verdict" ]
      (List.rev !rows);
  (* Per-N summary (the bar chart of Fig. 12). *)
  let verdicts = [ New_only; New_wins; Exist_wins_1; Exist_wins_2; New_failed; Both_failed ] in
  Tablefmt.print
    ~header:("N" :: List.map verdict_name verdicts)
    (List.map
       (fun n ->
         string_of_int n
         :: List.map
              (fun v ->
                string_of_int (try Hashtbl.find tally (n, v) with Not_found -> 0))
              verdicts)
       ns);
  (* Overall pie (the pie chart of Fig. 12). *)
  let totals =
    List.map
      (fun v ->
        ( v,
          Hashtbl.fold (fun (_, v') c acc -> if v' = v then acc + c else acc) tally 0 ))
      verdicts
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 totals in
  Printf.printf "\nOverall (%d connector/N cells; paper: 8%% / 42%% / 42%% / 8%%):\n" total;
  List.iter
    (fun (v, c) ->
      if c > 0 then
        Printf.printf "  %-28s %3d  (%.0f%%)\n" (verdict_name v) c
          (100.0 *. float_of_int c /. float_of_int total))
    totals

(* ------------------------------------------------------------------ *)
(* FIG13: NPB                                                          *)
(* ------------------------------------------------------------------ *)

type kernel_run = {
  kr_value : float;
  kr_seconds : float;
  kr_steps : int;
  kr_dnf : bool;
}

let run_kernel ~kernel ~comm ~cls ~nslaves ~timeout =
  let result = ref None in
  let t =
    Preo_runtime.Task.spawn (fun () ->
        let v =
          match kernel with
          | `Cg ->
            let r = Preo_npb.Cg.run ~comm ~cls ~nslaves in
            (r.Preo_npb.Cg.zeta, r.seconds, r.comm_steps)
          | `Lu ->
            let r = Preo_npb.Lu.run ~comm ~cls ~nslaves in
            (r.Preo_npb.Lu.residual, r.seconds, r.comm_steps)
          | `Ep ->
            let r = Preo_npb.Ep.run ~comm ~cls ~nslaves in
            (r.Preo_npb.Ep.estimate, r.seconds, r.comm_steps)
          | `Is ->
            let r = Preo_npb.Is.run ~comm ~cls ~nslaves in
            (r.Preo_npb.Is.checksum, r.seconds, r.comm_steps)
          | `Mg ->
            let r = Preo_npb.Mg.run ~comm ~cls ~nslaves in
            (r.Preo_npb.Mg.norm, r.seconds, r.comm_steps)
        in
        result := Some v)
  in
  (* Watchdog: abort the communication layer if the kernel overruns. *)
  let deadline = Clock.now () +. timeout in
  let aborted = ref false in
  let rec wait () =
    if !result <> None then ()
    else if Clock.now () > deadline then begin
      aborted := true;
      comm.Preo_npb.Comm.abort ()
    end
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  wait ();
  (try Preo_runtime.Task.join t with _ -> ());
  comm.Preo_npb.Comm.finish ();
  match !result with
  | Some (v, s, st) when not !aborted ->
    { kr_value = v; kr_seconds = s; kr_steps = st; kr_dnf = false }
  | _ -> { kr_value = nan; kr_seconds = timeout; kr_steps = 0; kr_dnf = true }

let fig13 opts =
  let classes =
    if opts.full then [ Preo_npb.Workloads.S; W; A; C ]
    else [ Preo_npb.Workloads.S; C ]
  in
  let ns = [ 2; 4; 8 ] in
  let timeout = if opts.full then 120.0 else 60.0 in
  Tablefmt.rule "FIG13: NAS Parallel Benchmarks (total run time, seconds)";
  Printf.printf
    "orig = hand-written synchronization; reo = generated connectors (new \
     approach).\n\
     Single-core testbed: compare the orig/reo ratio per row, not scaling \
     across N.\n\n";
  let rows = ref [] in
  List.iter
    (fun kernel ->
      let kname =
        match kernel with
        | `Cg -> "CG" | `Lu -> "LU" | `Ep -> "EP" | `Is -> "IS" | `Mg -> "MG"
      in
      List.iter
        (fun cls ->
          List.iter
            (fun n ->
              let orig =
                run_kernel ~kernel ~comm:(Preo_npb.Comm.hand ~nslaves:n) ~cls
                  ~nslaves:n ~timeout
              in
              let reo =
                run_kernel ~kernel ~comm:(Preo_npb.Comm.reo ~nslaves:n ()) ~cls
                  ~nslaves:n ~timeout
              in
              rows :=
                [
                  kname;
                  Preo_npb.Workloads.cls_name cls;
                  string_of_int n;
                  Printf.sprintf "%.3f" orig.kr_seconds;
                  (if reo.kr_dnf then "DNF" else Printf.sprintf "%.3f" reo.kr_seconds);
                  (if reo.kr_dnf then "-"
                   else Printf.sprintf "%.2f" (reo.kr_seconds /. orig.kr_seconds));
                  string_of_int reo.kr_steps;
                  (if reo.kr_dnf then "-"
                   else if orig.kr_value = reo.kr_value then "ok"
                   else "MISMATCH");
                ]
                :: !rows)
            ns)
        classes)
    [ `Cg; `Lu; `Mg; `Is; `Ep ];
  Tablefmt.print
    ~header:[ "kernel"; "class"; "N"; "orig(s)"; "reo(s)"; "reo/orig"; "steps"; "verify" ]
    (List.rev !rows)

let fig13_blowup opts =
  Tablefmt.rule
    "FIG13 finding 3: textbook-synchronous product blows up for N >= 16";
  Printf.printf
    "CG class S under the fully synchronous product (joint independent \
     firings,\n\
     as in the paper's implementation): states acquire exponentially many\n\
     transitions and runs stop terminating. The interleaving product and \
     the\n\
     partitioned runtime (the paper's proposed fix, implemented here) both\n\
     stay fine.\n\n";
  let timeout = if opts.full then 30.0 else 10.0 in
  let ns = [ 4; 8; 16 ] in
  let variants =
    [
      ("reo-synchronous",
       fun n ->
         Preo_npb.Comm.reo
           ~config:(Preo_runtime.Config.synchronous_of Preo_runtime.Config.new_jit)
           ~nslaves:n ());
      ("reo-interleaved", fun n -> Preo_npb.Comm.reo ~nslaves:n ());
      ("reo-partitioned",
       fun n ->
         Preo_npb.Comm.reo ~config:Preo_runtime.Config.new_partitioned ~nslaves:n ());
    ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (vname, mk) ->
            let r =
              run_kernel ~kernel:`Cg ~comm:(mk n) ~cls:Preo_npb.Workloads.S
                ~nslaves:n ~timeout
            in
            [
              vname;
              string_of_int n;
              (if r.kr_dnf then Printf.sprintf "DNF(>%.0fs)" timeout
               else Printf.sprintf "%.3f" r.kr_seconds);
            ])
          variants)
      ns
  in
  Tablefmt.print ~header:[ "variant"; "N"; "time(s)" ] rows

(* ------------------------------------------------------------------ *)
(* NPB-MC: single- vs multi-domain task placement                      *)
(* ------------------------------------------------------------------ *)

(* One kernel, both comm variants, slave tasks inline (1 domain) vs.
   pooled over --domains worker domains. The comm layer derives its
   scheduling policy from [Config.effective_domains] at construction, so
   the process-wide default is flipped around each build. *)
let npb_mc opts =
  let domains = max 2 opts.domains in
  let cls = if opts.full then Preo_npb.Workloads.W else Preo_npb.Workloads.S in
  Tablefmt.rule
    (Printf.sprintf
       "NPB-MC: CG class %s, single- vs multi-domain task placement"
       (Preo_npb.Workloads.cls_name cls));
  Printf.printf
    "Slave tasks run inline (domains=1) or on a pool of %d worker domains.\n\
     On a single-core testbed the multi-domain rows measure cross-domain\n\
     signalling overhead, not speedup (see EXPERIMENTS.md §DOMAINS).\n\n"
    domains;
  let timeout = if opts.full then 120.0 else 60.0 in
  let nslaves = 4 in
  let saved = !Preo_runtime.Config.domains in
  let measure ~domains mk =
    Preo_runtime.Config.domains := Some domains;
    Fun.protect
      ~finally:(fun () -> Preo_runtime.Config.domains := saved)
      (fun () ->
        run_kernel ~kernel:`Cg ~comm:(mk ()) ~cls ~nslaves ~timeout)
  in
  let rows =
    List.concat_map
      (fun (vname, mk) ->
        List.map
          (fun d ->
            let r = measure ~domains:d mk in
            [
              vname;
              string_of_int d;
              (if r.kr_dnf then "DNF" else Printf.sprintf "%.3f" r.kr_seconds);
              string_of_int r.kr_steps;
            ])
          [ 1; domains ])
      [
        ("hand", fun () -> Preo_npb.Comm.hand ~nslaves);
        ("reo", fun () -> Preo_npb.Comm.reo ~nslaves ());
      ]
  in
  Tablefmt.print ~header:[ "variant"; "domains"; "time(s)"; "steps" ] rows

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let abl_opt opts =
  Tablefmt.rule "ABL-OPT: the two existing-compiler optimizations (paper V-B)";
  Printf.printf
    "Reason 1 (command precompilation [30]) and reason 2 (whole-automaton\n\
     dispatch [19]), measured on the sequencer connector at N=8.\n\n";
  let window = if opts.full then 1.0 else 0.2 in
  let e = Preo_connectors.Catalog.find "sequencer" in
  let existing ~dispatch ~commands =
    Preo_runtime.Config.Existing
      { use_dispatch = dispatch; optimize_labels = commands;
        max_states = 200_000; max_trans = 2_000_000;
        max_compile_seconds = 30.0; true_synchronous = false }
  in
  let jit ~commands =
    Preo_runtime.Config.New
      { optimize_labels = commands; cache_capacity = 0;
        expansion_budget = 2_000_000; partition = false;
        true_synchronous = false }
  in
  let cases =
    [
      ("existing (+dispatch +commands)", existing ~dispatch:true ~commands:true);
      ("existing (-dispatch +commands)", existing ~dispatch:false ~commands:true);
      ("existing (+dispatch -commands)", existing ~dispatch:true ~commands:false);
      ("existing (-dispatch -commands)", existing ~dispatch:false ~commands:false);
      ("new (+commands at expansion)", jit ~commands:true);
      ("new (-commands: solve every firing)", jit ~commands:false);
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        match Preo_connectors.Driver.run_noop ~config ~seconds:window e ~n:8 with
        | Preo_connectors.Driver.Steps { steps; run_seconds; _ } ->
          [ name; Printf.sprintf "%.0f" (float_of_int steps /. run_seconds) ]
        | _ -> [ name; "fail" ])
      cases
  in
  Tablefmt.print ~header:[ "configuration"; "steps/s" ] rows

let abl_cache opts =
  Tablefmt.rule "ABL-CACHE: bounded JIT state cache (paper's future work)";
  Printf.printf
    "relay_ring at N=6 revisits many product states; a bounded LRU cache\n\
     trades recomputation for memory.\n\n";
  let window = if opts.full then 1.0 else 0.25 in
  let e = Preo_connectors.Catalog.find "relay_ring" in
  let rows =
    List.map
      (fun cap ->
        let config = Preo_runtime.Config.new_jit_cached cap in
        let compiled = Preo_connectors.Catalog.compiled e in
        let inst = Preo.instantiate ~config compiled ~lengths:(e.Preo_connectors.Catalog.lengths 6) in
        let conn = Preo.connector inst in
        let outs = Preo.outports inst "tl" in
        let ins = Preo.inports inst "hd" in
        let threads =
          List.init 6 (fun i ->
              Preo_runtime.Task.spawn (fun () ->
                  while true do
                    ignore (Preo.Port.recv ins.(i));
                    Preo.Port.send outs.(i) Value.unit
                  done))
        in
        Thread.delay window;
        let steps = Preo.steps inst in
        Preo.shutdown inst;
        List.iter (fun t -> try Preo_runtime.Task.join t with _ -> ()) threads;
        [
          (if cap = 0 then "unbounded" else string_of_int cap);
          Printf.sprintf "%.0f" (float_of_int steps /. window);
          string_of_int (Preo_runtime.Connector.cache_evictions conn);
        ])
      [ 2; 8; 64; 512; 0 ]
  in
  Tablefmt.print ~header:[ "cache capacity"; "steps/s"; "evictions" ] rows

let abl_part opts =
  Tablefmt.rule
    "ABL-PART: partitioned multi-engine runtime (DESIGN.md extension)";
  Printf.printf
    "relay_ring (a deep fifo pipeline) under one monolithic JIT engine vs.\n\
     the connector split at internal fifos into one engine per region.\n\n";
  let window = if opts.full then 1.0 else 0.25 in
  let e = Preo_connectors.Catalog.find "relay_ring" in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (vname, config) ->
            let compiled = Preo_connectors.Catalog.compiled e in
            let inst =
              Preo.instantiate ~config compiled
                ~lengths:(e.Preo_connectors.Catalog.lengths n)
            in
            let outs = Preo.outports inst "tl" in
            let ins = Preo.inports inst "hd" in
            let threads =
              List.init n (fun i ->
                  Preo_runtime.Task.spawn (fun () ->
                      while true do
                        ignore (Preo.Port.recv ins.(i));
                        Preo.Port.send outs.(i) Value.unit
                      done))
            in
            Thread.delay window;
            let steps = Preo.steps inst in
            let regions = Preo.Connector.nregions (Preo.connector inst) in
            Preo.shutdown inst;
            List.iter (fun t -> try Preo_runtime.Task.join t with _ -> ()) threads;
            [
              vname;
              string_of_int n;
              string_of_int regions;
              Printf.sprintf "%.0f" (float_of_int steps /. window);
            ])
          [
            ("monolithic-jit", Preo_runtime.Config.new_jit);
            ("partitioned", Preo_runtime.Config.new_partitioned);
          ])
      [ 4; 8; 16 ]
  in
  Tablefmt.print ~header:[ "runtime"; "N"; "regions"; "steps/s" ] rows

(* ------------------------------------------------------------------ *)
(* OBS: tracing overhead                                               *)
(* ------------------------------------------------------------------ *)

(* Quantify what the observability layer costs: tracing off (the single
   guard branch per recording site) vs. on (ring stores + metrics). Off is
   the configuration whose steps/s must stay within the perf acceptance
   bound of a build without the subsystem at all. *)
let obs_overhead opts =
  Tablefmt.rule "OBS: tracing overhead (steps per second, sequencer N=8)";
  let window = if opts.full then 1.0 else 0.5 in
  let e = Preo_connectors.Catalog.find "sequencer" in
  let rate () =
    match
      Preo_connectors.Driver.run_noop ~config:Preo_runtime.Config.new_jit
        ~seconds:window e ~n:8
    with
    | Preo_connectors.Driver.Steps { steps; run_seconds; _ } ->
      float_of_int steps /. run_seconds
    | _ -> nan
  in
  let was = Preo.tracing_enabled () in
  Preo.set_tracing false;
  let off = rate () in
  Preo.set_tracing true;
  let on = rate () in
  Preo.set_tracing was;
  Tablefmt.print
    ~header:[ "tracing"; "steps/s"; "relative" ]
    [
      [ "off"; Printf.sprintf "%.0f" off; "1.00" ];
      [ "on"; Printf.sprintf "%.0f" on; Printf.sprintf "%.2f" (on /. off) ];
    ];
  Printf.printf "tracing-on overhead: %.1f%%\n" (100.0 *. (1.0 -. (on /. off)))

(* ------------------------------------------------------------------ *)
(* Shared --json row emission (schema 9)                               *)
(* ------------------------------------------------------------------ *)

let stats_json (st : Preo_runtime.Connector.stats) =
  Preo_runtime.Connector.(
    Printf.sprintf
      "{\"st_steps\": %d, \"st_regions\": %d, \"st_domains\": %d, \
       \"st_expansions\": %d, \"st_cache_hits\": %d, \
       \"st_cache_evictions\": %d, \"st_compile_seconds\": %.6f, \
       \"st_solver_calls\": %d, \"st_cond_waits\": %d, \"st_peer_kicks\": %d, \
       \"st_cand_hits\": %d, \"st_stalls\": %d, \"st_wakes_targeted\": %d, \
       \"st_wakes_spurious\": %d, \"st_wakes_broadcast\": %d, \
       \"st_mpsc_ops\": %d, \"st_mpsc_batches\": %d, \"st_mpsc_fast\": %d, \
       \"st_splices\": %d, \"st_color_rounds\": %d, \"st_color_iters\": %d, \
       \"st_compiled_fires\": %d, \"st_interp_fires\": %d, \
       \"st_regions_fused\": %d, \
       \"st_shard_batches\": %d, \"st_shard_items\": %d, \
       \"st_shard_acks\": %d, \"st_shard_reconnects\": %d}"
      st.st_steps st.st_regions st.st_domains st.st_expansions st.st_cache_hits
      st.st_cache_evictions st.st_compile_seconds st.st_solver_calls
      st.st_cond_waits st.st_peer_kicks st.st_cand_hits st.st_stalls
      st.st_wakes_targeted st.st_wakes_spurious st.st_wakes_broadcast
      st.st_mpsc_ops st.st_mpsc_batches st.st_mpsc_fast
      st.st_splices st.st_color_rounds st.st_color_iters st.st_compiled_fires
      st.st_interp_fires st.st_regions_fused st.st_shard_batches
      st.st_shard_items st.st_shard_acks st.st_shard_reconnects)

(* Latency columns (schema 9): only the sections that measure end-to-end
   round trips emit them, so they are optional per row. [extra] splices
   additional section-specific keys (the shard row's worker-exit flag). *)
let json_row ?latency ?(extra = "") ~family ~n ~config ~rate ~stats () =
  let lat =
    match latency with
    | None -> ""
    | Some (p50_ms, p99_ms) ->
      Printf.sprintf " \"p50_ms\": %.3f, \"p99_ms\": %.3f," p50_ms p99_ms
  in
  Printf.sprintf
    "    {\"family\": %S, \"n\": %d, \"config\": %S, \"steps_per_s\": %.1f,%s%s \
     \"stats\": %s}"
    family n config rate lat extra (stats_json stats)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* COLORING: three-way backend scaling                                 *)
(* ------------------------------------------------------------------ *)

(* The connector-coloring backend against both automata pipelines at sizes
   where product composition stops being viable. lossy_bcast is the §V-C
   exponential-choice shape (2^N synchronized subsets): ahead-of-time
   composition and JIT expansion both trip their budgets long before
   N=1024, while coloring resolves rounds in work proportional to the
   connector graph. broadcast_fifo + ordered_merger are the NPB master–
   slaves building blocks (EP/CG scatter and gather); sequencer is the
   deep-pending-set baseline. *)
let coloring_bench opts =
  Tablefmt.rule "COLORING: backend scaling (steps per second, no-op tasks)";
  let window = if opts.full then 0.5 else 0.12 in
  let budget = if opts.full then 2_000_000 else 200_000 in
  Printf.printf
    "existing = ahead-of-time product   new-jit = lazy product expansion\n\
     coloring = per-round 2-coloring propagation (no product states at all)\n\
     window = %.2fs per cell; expansion/propagation budget = %d\n\n"
    window budget;
  let existing_config =
    Preo_runtime.Config.Existing
      { use_dispatch = true; optimize_labels = true; max_states = 50_000;
        max_trans = 200_000;
        max_compile_seconds = (if opts.full then 10.0 else 2.0);
        true_synchronous = false }
  in
  let jit_config ~budget =
    Preo_runtime.Config.New
      { optimize_labels = true; cache_capacity = 0;
        expansion_budget = budget; partition = false;
        true_synchronous = false }
  in
  (* On exponential-choice families the JIT cell exists to document the
     budget trip, and each counted combination costs O(N) set work — at
     N=1024 a full-budget trip takes minutes while holding the engine lock.
     Shrink the budget with N so the (inevitable) failure is prompt; the
     coloring cell keeps the full budget as its propagation backstop. *)
  let configs (e : Preo_connectors.Catalog.entry) n =
    let jit_budget =
      if e.Preo_connectors.Catalog.exponential_choice then
        max 2_000 (budget * 16 / n)
      else budget
    in
    [
      ("existing", existing_config, None);
      ("new-jit", jit_config ~budget:jit_budget,
       Some Preo_runtime.Sched.Automata);
      ("coloring", jit_config ~budget, Some Preo_runtime.Sched.Coloring);
    ]
  in
  let families =
    [ "lossy_bcast"; "broadcast_fifo"; "sequencer"; "ordered_merger" ]
  in
  let ns = [ 16; 64; 256; 1024 ] in
  let json_rows = ref [] in
  let rows =
    List.concat_map
      (fun fname ->
        let e = Preo_connectors.Catalog.find fname in
        List.concat_map
          (fun n ->
            List.map
              (fun (cname, config, backend) ->
                match
                  Preo_connectors.Driver.run_noop ~config ?backend
                    ~seconds:window e ~n
                with
                | Preo_connectors.Driver.Steps
                    { steps; run_seconds; stats = st; _ } ->
                  let rate = float_of_int steps /. run_seconds in
                  json_rows :=
                    json_row ~family:fname ~n ~config:cname ~rate ~stats:st
                      ()
                    :: !json_rows;
                  Printf.eprintf "[coloring] %-16s N=%-4d %-9s %.0f steps/s\n%!"
                    fname n cname rate;
                  Preo_runtime.Connector.
                    [ fname; string_of_int n; cname;
                      Printf.sprintf "%.0f" rate;
                      string_of_int st.st_color_rounds;
                      (if st.st_color_rounds = 0 then "-"
                       else
                         Printf.sprintf "%.1f"
                           (float_of_int st.st_color_iters
                           /. float_of_int st.st_color_rounds)) ]
                | Preo_connectors.Driver.Compile_failed _ ->
                  Printf.eprintf "[coloring] %-16s N=%-4d %-9s COMPILE-FAIL\n%!"
                    fname n cname;
                  [ fname; string_of_int n; cname; "COMPILE-FAIL"; "-"; "-" ]
                | Preo_connectors.Driver.Run_failed _ ->
                  Printf.eprintf "[coloring] %-16s N=%-4d %-9s RUN-FAIL\n%!"
                    fname n cname;
                  [ fname; string_of_int n; cname; "RUN-FAIL"; "-"; "-" ])
              (configs e n))
          ns)
      families
  in
  Tablefmt.print
    ~header:
      [ "family"; "N"; "backend"; "steps/s"; "color-rounds"; "iters/round" ]
    rows;
  List.rev !json_rows

(* ------------------------------------------------------------------ *)
(* ELASTIC: run-time join/leave churn                                  *)
(* ------------------------------------------------------------------ *)

(* Throughput under elastic churn: grow a live connector by one task slot,
   exchange a full round of data at the larger size, shrink back, exchange
   another round — so every splice faces a real quiescence check and the
   steady-state data path is measured together with the splice overhead.
   The autoscaling EP kernel rides along as an end-to-end row (table only;
   its connectors are torn down inside the kernel, so no stats object). *)
let elastic_bench opts =
  Tablefmt.rule "ELASTIC: run-time join/leave (splice) churn";
  let window = if opts.full then 1.0 else 0.5 in
  let json_rows = ref [] in
  let churn fname base ~round =
    let e = Preo_connectors.Catalog.find fname in
    let inst =
      Preo.instantiate ~config:Preo_runtime.Config.new_jit
        (Preo_connectors.Catalog.compiled e)
        ~lengths:(e.Preo_connectors.Catalog.lengths base)
    in
    let t0 = Clock.now () in
    while Clock.now () -. t0 < window do
      ignore (Preo.grow inst "hd");
      round inst (base + 1);
      Preo.shrink inst "hd";
      round inst base
    done;
    let seconds = Clock.now () -. t0 in
    let st = Preo_runtime.Connector.stats (Preo.connector inst) in
    let steps = Preo.steps inst in
    let splices = Preo_runtime.Connector.splices (Preo.connector inst) in
    let rate = float_of_int steps /. seconds in
    json_rows :=
      json_row ~family:"elastic_churn" ~n:base ~config:fname ~rate ~stats:st
        ()
      :: !json_rows;
    Printf.eprintf "[elastic] %-16s N=%-3d %.0f steps/s, %d splices\n%!" fname
      base rate splices;
    Preo.shutdown inst;
    [ "churn"; fname; string_of_int base; Printf.sprintf "%.0f" rate;
      string_of_int splices;
      Printf.sprintf "%.0f" (float_of_int splices /. seconds) ]
  in
  let bcast_round inst size =
    Preo.Port.send (Preo.outports inst "tl").(0) Value.unit;
    for i = 1 to size do
      ignore (Preo.Port.recv (Preo.inport_at inst "hd" i))
    done
  in
  let seq_round inst size =
    for i = 1 to size do
      ignore (Preo.Port.recv (Preo.inport_at inst "hd" i))
    done
  in
  let ep = Preo_npb.Ep_elastic.run ~cls:Preo_npb.Workloads.S () in
  let rows =
    [
      churn "broadcast_fifo" 4 ~round:bcast_round;
      churn "sequencer" 4 ~round:seq_round;
      [ "ep-autoscale"; "load_balancer+gather";
        string_of_int ep.Preo_npb.Ep_elastic.peak_slaves;
        Printf.sprintf "%.0f"
          (float_of_int ep.Preo_npb.Ep_elastic.comm_steps
          /. ep.Preo_npb.Ep_elastic.seconds);
        string_of_int ep.Preo_npb.Ep_elastic.splices; "-" ];
    ]
  in
  Tablefmt.print
    ~header:[ "bench"; "family"; "N/peak"; "steps/s"; "splices"; "splices/s" ]
    rows;
  List.rev !json_rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Firing-loop throughput per connector family. The committed
   BENCH_baseline.json pins these numbers so future engine changes have a
   perf trajectory to compare against. *)
(* ------------------------------------------------------------------ *)
(* COMPILE: compiled dispatch vs interpreted, interleaved A/B           *)
(* ------------------------------------------------------------------ *)

(* Same binary, same process, same wall-clock neighbourhood: the compiled
   and interpreted executions of each cell alternate (A/B/A/B…) so thermal
   and scheduler drift hits both sides equally, and each side reports the
   median of its K runs plus the relative spread (max-min)/median. The
   interpreted side is exactly PREO_COMPILE=0. The partitioned sequencer
   row doubles as the sequentialization demo: its ring fuses to one region
   (fused > 0), so the compiled side also sheds its bridge queues. *)
let compile_bench opts =
  Tablefmt.rule
    "COMPILE: compiled dispatch vs interpreted (interleaved median-of-K)";
  let window = if opts.full then 0.5 else 0.15 in
  let k = opts.interleave in
  Printf.printf
    "window = %.2fs per run; %d interleaved runs per mode; interpreted = \
     PREO_COMPILE=0\n\n"
    window k;
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let spread xs m =
    let mx = List.fold_left max neg_infinity xs
    and mn = List.fold_left min infinity xs in
    if m > 0.0 then (mx -. mn) /. m else 0.0
  in
  let cells =
    [
      ("xform_lanes", 4, "new-jit-b8", Preo_runtime.Config.new_jit, 1, 8);
      ("xform_lanes", 4, "new-jit-b32", Preo_runtime.Config.new_jit, 1, 32);
      ("xform_lanes", 4, "new-partitioned-mc",
       Preo_runtime.Config.new_partitioned, 2, 1);
      ("sequencer", 8, "new-jit", Preo_runtime.Config.new_jit, 1, 1);
      ("token_ring", 8, "new-jit", Preo_runtime.Config.new_jit, 1, 1);
      ("relay_ring", 6, "new-jit-b8", Preo_runtime.Config.new_jit, 1, 8);
      ("sequencer", 8, "new-partitioned",
       Preo_runtime.Config.new_partitioned, 1, 1);
    ]
  in
  let rows =
    List.map
      (fun (fname, n, cname, config, domains, batch) ->
        let e = Preo_connectors.Catalog.find fname in
        let run mode =
          let saved = !Preo_runtime.Config.compile in
          Fun.protect
            ~finally:(fun () -> Preo_runtime.Config.compile := saved)
            (fun () ->
              Preo_runtime.Config.compile := Some mode;
              match
                Preo_connectors.Driver.run_noop ~config ~domains ~batch
                  ~seconds:window e ~n
              with
              | Preo_connectors.Driver.Steps { steps; run_seconds; stats; _ }
                ->
                Some (float_of_int steps /. run_seconds, stats)
              | _ -> None)
        in
        let irates = ref [] and crates = ref [] in
        let cstats = ref None in
        for _ = 1 to k do
          (match run false with
          | Some (r, _) -> irates := r :: !irates
          | None -> ());
          match run true with
          | Some (r, st) ->
            crates := r :: !crates;
            cstats := Some st
          | None -> ()
        done;
        match (!irates, !crates, !cstats) with
        | [], _, _ | _, [], _ | _, _, None ->
          [ fname; string_of_int n; cname; "FAIL"; "FAIL"; "-"; "-"; "-";
            "-"; "-" ]
        | is_, cs, Some st ->
          let im = median is_ and cm = median cs in
          Printf.eprintf "[compile] %-16s %-16s %.0f -> %.0f steps/s\n%!"
            fname cname im cm;
          Preo_runtime.Connector.
            [ fname; string_of_int n; cname;
              Printf.sprintf "%.0f" im;
              Printf.sprintf "%.0f" cm;
              Printf.sprintf "%.2fx" (cm /. im);
              Printf.sprintf "±%.0f%%"
                (50.0 *. (spread is_ im +. spread cs cm));
              string_of_int st.st_compiled_fires;
              string_of_int st.st_interp_fires;
              string_of_int st.st_regions_fused ])
      cells
  in
  Tablefmt.print
    ~header:
      [ "family"; "N"; "config"; "interp/s"; "compiled/s"; "speedup";
        "spread"; "cfires"; "ifires"; "fused" ]
    rows

(* ------------------------------------------------------------------ *)
(* SHARD: multi-process connector fabric                               *)
(* ------------------------------------------------------------------ *)

(* Production-shape pub-sub: one publisher on the host fans out through
   NBcastFifo to [branches] relay regions spread over [nworkers] worker
   processes; each relay's consumer task fans every delivery out to its
   share of ~1M simulated client counters. Every cross-process cut rides a
   batched, backpressured shard channel, so the row measures the wire-level
   fabric (frame coalescing, window stalls, ack round trips), not just the
   in-process engines. Throughput is messages acked end to end; the
   latency columns are producer-send -> ack round trips sampled every 8th
   message. *)
let shard_bench opts =
  let module Shard = Preo_dist.Shard in
  let nworkers = 3 and branches = 6 in
  let domains = max 2 opts.domains in
  let window = if opts.full then 8.0 else 2.0 in
  let clients_total = 1_000_002 in
  let per_branch = clients_total / branches in
  Tablefmt.rule
    (Printf.sprintf
       "SHARD: sharded broadcast, %d worker processes, %d simulated clients"
       nworkers clients_total);
  Printf.printf
    "NBcastFifo hd=%d: the Repl region stays on the host, relay regions\n\
     round-robin over %d worker processes; each relay fans deliveries out\n\
     to %d client counters. window = %.1fs\n\n"
    branches nworkers per_branch window;
  let src =
    "NBcastFifo(tl;hd[]) =\n\
    \  Repl(tl;x[1..#hd])\n\
    \  mult prod (i:1..#hd) Fifo1(x[i];hd[i])"
  in
  let lengths = [ ("hd", branches) ] in
  let regions =
    Shard.boundary_regions ~domains ~source:src ~name:"NBcastFifo" ~lengths ()
  in
  let hd = List.assoc "hd" regions in
  let place r = if r = 0 then 0 else ((r - 1) mod nworkers) + 1 in
  let workloads w =
    [ Shard.Consume
        { w_group = "hd";
          w_indices =
            List.filter
              (fun i -> place hd.(i) = w)
              (List.init branches Fun.id);
          w_clients = per_branch } ]
  in
  (* window 256: deep enough to keep frames coalescing, shallow enough that
     the latency columns measure the fabric rather than queueing behind a
     four-thousand-deep backlog *)
  let h =
    Shard.host ~domains ~window:256 ~latency_every:8 ~nworkers ~place
      ~workloads ~source:src ~name:"NBcastFifo" ~lengths ()
  in
  let stop = Atomic.make false in
  let sent = Atomic.make 0 in
  let producer =
    Thread.create
      (fun () ->
        let p = Shard.outport_at h "tl" 0 in
        try
          while not (Atomic.get stop) do
            Preo.Port.send p (Value.int (Atomic.get sent));
            Atomic.incr sent
          done
        with Preo_runtime.Engine.Poisoned _ -> ())
      ()
  in
  (* settle, then measure a clean window of acked traffic *)
  Thread.delay 0.3;
  ignore (Shard.latencies h);
  let a0 = Atomic.get Preo_runtime.Shard_stats.acks in
  let b0 = Atomic.get Preo_runtime.Shard_stats.batches in
  let i0 = Atomic.get Preo_runtime.Shard_stats.items in
  let t0 = Clock.now () in
  Thread.delay window;
  let elapsed = Clock.now () -. t0 in
  let acked = Atomic.get Preo_runtime.Shard_stats.acks - a0 in
  let batches = Atomic.get Preo_runtime.Shard_stats.batches - b0 in
  let items = Atomic.get Preo_runtime.Shard_stats.items - i0 in
  let lat =
    let a = Array.of_list (List.map (fun s -> s *. 1000.0) (Shard.latencies h)) in
    Array.sort compare a;
    a
  in
  let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
  let stats = Preo_runtime.Connector.stats (Shard.connector h) in
  Atomic.set stop true;
  let statuses = Shard.shutdown h in
  (try Thread.join producer with _ -> ());
  let clean =
    List.for_all (fun (_, st) -> st = Unix.WEXITED 0) statuses
  in
  let msgs_per_s = float_of_int acked /. float_of_int branches /. elapsed in
  let deliveries_per_s = msgs_per_s *. float_of_int clients_total in
  Tablefmt.print
    ~header:
      [ "workers"; "branches"; "clients"; "msg/s"; "client-deliv/s";
        "p50(ms)"; "p99(ms)"; "items/frame"; "workers-clean" ]
    [
      [ string_of_int nworkers; string_of_int branches;
        string_of_int clients_total; Printf.sprintf "%.0f" msgs_per_s;
        Printf.sprintf "%.3g" deliveries_per_s; Printf.sprintf "%.2f" p50;
        Printf.sprintf "%.2f" p99;
        (if batches = 0 then "-"
         else Printf.sprintf "%.1f" (float_of_int items /. float_of_int batches));
        (if clean then "yes" else "NO") ];
    ];
  Printf.eprintf "[shard] %d workers %.0f msg/s p50=%.2fms p99=%.2fms%s\n%!"
    nworkers msgs_per_s p50 p99 (if clean then "" else " (UNCLEAN EXIT)");
  [ json_row ~latency:(p50, p99)
      ~extra:(Printf.sprintf " \"workers_clean\": %b," clean)
      ~family:"shard_bcast" ~n:branches
      ~config:(Printf.sprintf "sharded-%dw" nworkers)
      ~rate:msgs_per_s ~stats () ]

let micro_steps opts =
  Tablefmt.rule "MICRO-STEPS: firing-loop throughput per connector family";
  let window = if opts.full then 1.0 else 0.5 in
  Printf.printf "window = %.2fs per cell; counters with --detail\n\n" window;
  let json_rows = ref [] in
  let rows =
    List.concat_map
      (fun (fname, n) ->
        let e = Preo_connectors.Catalog.find fname in
        List.map
          (fun (cname, config, dom_spec, batch) ->
            let domains =
              match dom_spec with `One -> 1 | `Multi -> max 2 opts.domains
            in
            match
              Preo_connectors.Driver.run_noop ~config ~domains ~batch
                ~seconds:window e ~n
            with
            | Preo_connectors.Driver.Steps { steps; run_seconds; stats = st; _ } ->
              let rate = float_of_int steps /. run_seconds in
              json_rows :=
                json_row ~family:fname ~n ~config:cname ~rate ~stats:st ()
                :: !json_rows;
              Printf.eprintf "[micro] %-16s N=%-3d %-16s %.0f steps/s\n%!"
                fname n cname rate;
              [ fname; string_of_int n; cname; Printf.sprintf "%.0f" rate ]
              @ (if opts.detail then
                   Preo_runtime.Connector.
                     [ string_of_int st.st_solver_calls;
                       string_of_int st.st_cond_waits;
                       string_of_int st.st_peer_kicks;
                       string_of_int st.st_cand_hits;
                       string_of_int st.st_wakes_targeted;
                       string_of_int st.st_wakes_spurious;
                       string_of_int st.st_wakes_broadcast;
                       string_of_int st.st_mpsc_ops;
                       string_of_int st.st_mpsc_fast;
                       string_of_int st.st_compiled_fires;
                       string_of_int st.st_interp_fires;
                       string_of_int st.st_regions_fused ]
                 else [])
            | Preo_connectors.Driver.Compile_failed _ ->
              [ fname; string_of_int n; cname; "COMPILE-FAIL" ]
              @ (if opts.detail then List.init 12 (fun _ -> "-") else [])
            | Preo_connectors.Driver.Run_failed _ ->
              [ fname; string_of_int n; cname; "RUN-FAIL" ]
              @ (if opts.detail then List.init 12 (fun _ -> "-") else []))
          micro_configs)
      micro_families
  in
  let header =
    [ "family"; "N"; "config"; "steps/s" ]
    @ (if opts.detail then
         [ "solves"; "waits"; "kicks"; "cand-hits"; "wakes-t"; "wakes-sp";
           "wakes-b"; "mpsc"; "fast"; "cfires"; "ifires"; "fused" ]
       else [])
  in
  Tablefmt.print ~header rows;
  List.rev !json_rows

let micro _opts =
  Tablefmt.rule "MICRO: bechamel latencies";
  let open Bechamel in
  let fig5_graph = (Preo_reo.Figures.fig5 ()).Preo_reo.Figures.graph in
  let a = Preo_automata.Vertex.fresh "ma" and b = Preo_automata.Vertex.fresh "mb" in
  let constr =
    Preo_automata.Constr.
      [ Port b === App ("incr", Port a); pred "positive" (Port a) ]
  in
  let readable = Iset.of_list [ a ] and writable = Iset.of_list [ b ] in
  let fifo_entry = Preo_connectors.Catalog.find "broadcast_fifo" in
  let fifo_compiled = Preo_connectors.Catalog.compiled fifo_entry in
  let inst =
    Preo.instantiate ~config:Preo_runtime.Config.new_jit fifo_compiled
      ~lengths:[ ("hd", 1) ]
  in
  let out = (Preo.outports inst "tl").(0) in
  let inp = (Preo.inports inst "hd").(0) in
  let s1 = Iset.of_list [ 1; 5; 9; 12 ] and s2 = Iset.of_list [ 3; 5; 12; 40 ] in
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      [
        Test.make ~name:"engine: fifo send+recv roundtrip (2 steps)"
          (Staged.stage (fun () ->
               Preo.Port.send out Value.unit;
               ignore (Preo.Port.recv inp)));
        Test.make ~name:"command: solve transform constraint"
          (Staged.stage (fun () ->
               ignore (Preo_automata.Command.solve ~readable ~writable constr)));
        Test.make ~name:"iset: union+inter (4-element sets)"
          (Staged.stage (fun () -> ignore (Iset.inter (Iset.union s1 s2) s1)));
        Test.make ~name:"product: fig5 large automaton"
          (Staged.stage (fun () ->
               ignore (Preo_reo.Graph.to_large_automaton fig5_graph)));
        Test.make ~name:"runtime share: instantiate broadcast_fifo N=8"
          (Staged.stage (fun () ->
               let bindings, _, _ =
                 Preo_lang.Eval.boundary_of_def fifo_compiled.Preo.def
                   ~lengths:[ ("hd", 8) ]
               in
               let venv = Preo_lang.Eval.venv ~ints:[] ~arrays:bindings in
               ignore
                 (Preo_lang.Template.instantiate fifo_compiled.Preo.template venv)));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> Printf.sprintf "%.0f ns" t
          | _ -> "?"
        in
        [ name; est ] :: acc)
      results []
    |> List.sort compare
  in
  Tablefmt.print ~header:[ "operation"; "time/run" ] rows;
  Preo.shutdown inst

(* ------------------------------------------------------------------ *)
(* --compare: baseline regression gate                                 *)
(* ------------------------------------------------------------------ *)

(* Rows are keyed (family, n, config); steps/s within ±5% of the old value
   counts as noise. Rows carrying latency columns (schema 9) are also banded
   on p99: round-trip tails are far noisier than throughput, so the band is
   a generous +50% — only a blown-up tail fails the gate. Exit codes: 0
   clean, 1 at least one regression, 2 bad input. Used by CI against the
   committed BENCH_baseline.json. *)
let compare_baselines old_path new_path =
  let module J = Preo_obs.Json in
  let load path =
    let j =
      try
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        J.parse s
      with Sys_error msg -> Error msg
    in
    match j with
    | Ok j -> j
    | Error msg ->
      Printf.eprintf "bench --compare: %s: %s\n" path msg;
      exit 2
  in
  let rows j =
    match J.member "rows" j with
    | Some r -> J.to_list r
    | None ->
      Printf.eprintf "bench --compare: missing \"rows\" array\n";
      exit 2
  in
  let key r =
    let str k = Option.bind (J.member k r) J.to_string in
    let num k = Option.bind (J.member k r) J.to_float in
    match (str "family", num "n", str "config") with
    | Some f, Some n, Some c -> Some (f, int_of_float n, c)
    | _ -> None
  in
  let rate r = Option.bind (J.member "steps_per_s" r) J.to_float in
  let p99 r = Option.bind (J.member "p99_ms" r) J.to_float in
  let threshold = 0.05 in
  let lat_band = 0.50 in
  let old_rows = rows (load old_path) and new_rows = rows (load new_path) in
  let old_tbl = Hashtbl.create 32 in
  List.iter
    (fun r ->
      match (key r, rate r) with
      | Some k, Some v -> Hashtbl.replace old_tbl k (v, p99 r)
      | _ -> ())
    old_rows;
  let regressions = ref 0 in
  let seen = Hashtbl.create 32 in
  let fmt_p99 = function Some v -> Printf.sprintf "%.2f" v | None -> "-" in
  let table =
    List.filter_map
      (fun r ->
        match (key r, rate r) with
        | Some ((f, n, c) as k), Some nv -> begin
          Hashtbl.replace seen k ();
          match Hashtbl.find_opt old_tbl k with
          | None ->
            Some [ f; string_of_int n; c; "-"; Printf.sprintf "%.0f" nv; "-";
                   "-"; fmt_p99 (p99 r); "new-row" ]
          | Some (ov, op99) ->
            let delta = (nv -. ov) /. ov in
            let np99 = p99 r in
            let lat_regressed =
              match (op99, np99) with
              | Some o, Some n -> n > o *. (1.0 +. lat_band)
              | _ -> false
            in
            let verdict =
              if delta < -.threshold && lat_regressed then begin
                incr regressions;
                "REGRESSION+LAT"
              end
              else if delta < -.threshold then begin
                incr regressions;
                "REGRESSION"
              end
              else if lat_regressed then begin
                incr regressions;
                "LAT-REGRESSION"
              end
              else if delta > threshold then "improved"
              else "ok"
            in
            Some
              [ f; string_of_int n; c; Printf.sprintf "%.0f" ov;
                Printf.sprintf "%.0f" nv;
                Printf.sprintf "%+.1f%%" (100.0 *. delta);
                fmt_p99 op99; fmt_p99 np99; verdict ]
        end
        | _ -> None)
      new_rows
  in
  let missing =
    Hashtbl.fold
      (fun ((f, n, c) as k) (ov, op99) acc ->
        if Hashtbl.mem seen k then acc
        else
          [ f; string_of_int n; c; Printf.sprintf "%.0f" ov; "-"; "-";
            fmt_p99 op99; "-"; "missing" ]
          :: acc)
      old_tbl []
  in
  Tablefmt.print
    ~header:
      [ "family"; "N"; "config"; "old/s"; "new/s"; "delta"; "p99old";
        "p99new"; "verdict" ]
    (table @ missing);
  if !regressions > 0 then begin
    Printf.printf "\n%d row(s) regressed beyond %.0f%%\n" !regressions
      (100.0 *. threshold);
    exit 1
  end
  else Printf.printf "\nno regressions beyond %.0f%%\n" (100.0 *. threshold)

(* ------------------------------------------------------------------ *)

let () =
  let opts = parse_args () in
  (match opts.compare with
  | Some (old_path, new_path) ->
    compare_baselines old_path new_path;
    exit 0
  | None -> ());
  Preo.set_backend opts.backend;
  let t0 = Clock.now () in
  if wants opts "fig12" then fig12 opts;
  if wants opts "fig13" then fig13 opts;
  if wants opts "fig13-blowup" then fig13_blowup opts;
  if wants opts "npb-mc" then npb_mc opts;
  if wants opts "abl-opt" then abl_opt opts;
  if wants opts "abl-cache" then abl_cache opts;
  if wants opts "abl-part" then abl_part opts;
  if wants opts "obs" then obs_overhead opts;
  let json_rows = ref [] in
  if wants opts "elastic" then json_rows := !json_rows @ elastic_bench opts;
  if wants opts "coloring" then json_rows := !json_rows @ coloring_bench opts;
  if wants opts "compile" then compile_bench opts;
  if wants opts "shard" then json_rows := !json_rows @ shard_bench opts;
  if wants opts "micro" then begin
    json_rows := !json_rows @ micro_steps opts;
    micro opts
  end;
  (match opts.json with
  | Some path when !json_rows <> [] ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema_version\": 9,\n  \"window_seconds\": %.2f,\n  \
       \"rows\": [\n%s\n  ]\n}\n"
      (if opts.full then 1.0 else 0.5)
      (String.concat ",\n" !json_rows);
    close_out oc;
    Printf.printf "wrote %s\n" path
  | _ -> ());
  Printf.printf "\nbench total: %.1fs\n" (Clock.now () -. t0)
