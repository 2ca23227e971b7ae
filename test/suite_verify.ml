(* Verification library over composed automata. *)

module Verify = Preo_verify.Verify
module Eval = Preo_lang.Eval
module Ast = Preo_lang.Ast

open Preo_automata
open Preo_reo

let v = Vertex.fresh

let fig5_contract () =
  let f = Figures.fig5 () in
  let large = Graph.to_large_automaton f.Figures.graph in
  match
    Verify.check_fig5_properties large ~a:f.Figures.a_out ~b:f.Figures.b_out
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let fig5_violated_when_swapped () =
  let f = Figures.fig5 () in
  let large = Graph.to_large_automaton f.Figures.graph in
  (* B before A must be reported. *)
  match
    Verify.check_fig5_properties large ~a:f.Figures.b_out ~b:f.Figures.a_out
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "swapped contract should fail"

let deadlock_detected () =
  (* Two sync-drains demanding contradictory pairs: a&b then... build a
     simple automaton that reaches a sink state: fifo1-full that is never
     refillable because its tail is also its head's prerequisite. Easier:
     hand-made automaton with a dead state. *)
  let a = v "a" in
  let t sync target = { Automaton.sync; constr = Constr.tt; command = None; target } in
  let auto =
    Automaton.make ~nstates:2 ~initial:0
      ~trans:[| [| t (Preo_support.Iset.singleton a) 1 |]; [||] |]
      ~sources:(Preo_support.Iset.singleton a) ~sinks:Preo_support.Iset.empty
  in
  match Verify.deadlocks auto with
  | [ ce ] ->
    Alcotest.(check int) "dead state" 1 ce.Verify.state;
    Alcotest.(check int) "path length" 1 (List.length ce.Verify.path)
  | other -> Alcotest.failf "expected 1 deadlock, got %d" (List.length other)

(* The automaton [preoc verify] checks: the composed product with internal
   vertices hidden, minus the transitions the runtime drops because their
   data constraint can never fire ([Automaton.optimize_labels], i.e.
   [Command.firable]). *)
let verified_automaton (c : Preo.compiled) lengths =
  let bindings, sources, sinks = Eval.boundary_of_def c.Preo.def ~lengths in
  let venv = Eval.venv ~ints:[] ~arrays:bindings in
  let mediums = Eval.small_automata (Eval.prims venv c.Preo.flat.Ast.c_body) in
  let large = Preo_automata.Product.all mediums in
  let keep =
    Preo_support.Iset.of_list (Array.to_list sources @ Array.to_list sinks)
  in
  let large =
    Automaton.hide (Preo_support.Iset.diff large.Automaton.vertices keep) large
  in
  (Automaton.trim (Automaton.optimize_labels (Automaton.trim large)),
   (sources, sinks, mediums))

let deadlock_free_connectors () =
  (* Every catalog connector composes to a deadlock-free automaton at small
     N, counting only transitions the runtime can fire. *)
  List.iter
    (fun (e : Preo_connectors.Catalog.entry) ->
      let c = Preo_connectors.Catalog.compiled e in
      List.iter
        (fun n ->
          let large, _ = verified_automaton c (e.lengths n) in
          Alcotest.(check int)
            (Printf.sprintf "%s N=%d deadlock-free" e.name n)
            0
            (List.length (Verify.deadlocks large)))
        [ 2; 3 ])
    Preo_connectors.Catalog.all

(* examples/deadlock.preo: the only transition, {a,b}, needs a datum at n
   that nothing produces, so the runtime drops it and every run stalls. The
   verifier must agree: the deadlock is the initial state, which is where
   [Sim] sticks with every boundary operation pending, and [preoc verify]
   exits 1 with that counterexample. *)
let deadlock_example () =
  let dir = Filename.dirname Sys.executable_name in
  let path =
    (* a dependency of the test rule; [dune exec] alone leaves it unbuilt *)
    let built = Filename.concat dir "../examples/deadlock.preo" in
    match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root when not (Sys.file_exists built) ->
      Filename.concat root "examples/deadlock.preo"
    | _ -> built
  in
  let source = In_channel.with_open_bin path In_channel.input_all in
  let large, (sources, sinks, mediums) =
    verified_automaton (Preo.compile ~source ~name:"Deadlock") []
  in
  (match Verify.deadlocks large with
   | [ ce ] ->
     Alcotest.(check int) "deadlock at the initial state" large.Automaton.initial
       ce.Verify.state;
     Alcotest.(check int) "after no step" 0 (List.length ce.Verify.path)
   | ces -> Alcotest.failf "expected 1 deadlock, got %d" (List.length ces));
  let sim = Preo_runtime.Sim.create ~sources ~sinks mediums in
  Array.iter (fun a -> Preo_runtime.Sim.offer sim a (Preo_support.Value.int 1))
    sources;
  Array.iter (Preo_runtime.Sim.demand sim) sinks;
  Alcotest.(check bool) "sim stuck at once" true
    (Preo_runtime.Sim.step sim = None);
  let preoc = Filename.concat dir "../bin/preoc.exe" in
  let ic =
    Unix.open_process_args_in preoc [| preoc; "verify"; path; "Deadlock" |]
  in
  let out = In_channel.input_all ic in
  Alcotest.(check bool) "counterexample printed" true
    (String.starts_with ~prefix:"DEADLOCK"
       (List.nth (String.split_on_char '\n' out) 1));
  match Unix.close_process_in ic with
  | Unix.WEXITED 1 -> ()
  | _ -> Alcotest.failf "preoc verify should exit 1; printed:\n%s" out

let mutual_exclusion_of_router_branches () =
  let a = v "a" and b1 = v "b1" and b2 = v "b2" in
  let auto = Prim.build Prim.Router ~tails:[ a ] ~heads:[ b1; b2 ] in
  Alcotest.(check bool) "never together" true (Verify.never_together auto b1 b2);
  Alcotest.(check bool) "a with b1 sometimes" false (Verify.never_together auto a b1)

let synchrony_of_replicator () =
  let a = v "a" and b1 = v "b1" and b2 = v "b2" in
  let auto = Prim.build Prim.Replicator ~tails:[ a ] ~heads:[ b1; b2 ] in
  Alcotest.(check bool) "always together" true (Verify.always_together auto b1 b2);
  Alcotest.(check bool) "with source too" true (Verify.always_together auto a b1)

let precedence_of_fifo () =
  let a = v "a" and b = v "b" in
  let auto = Prim.build Prim.Fifo1 ~tails:[ a ] ~heads:[ b ] in
  Alcotest.(check bool) "a precedes b" true (Verify.precedes auto a b);
  Alcotest.(check bool) "b does not precede a" false (Verify.precedes auto b a)

let dead_port_detected () =
  let a = v "a" and b = v "b" and c = v "c" in
  let auto = Prim.build Prim.Sync ~tails:[ a ] ~heads:[ b ] in
  Alcotest.(check bool) "live" true (Verify.eventually_enabled auto a);
  Alcotest.(check bool) "dead" false (Verify.eventually_enabled auto c)

let unreachable_reported () =
  let a = v "a" in
  let t sync target = { Automaton.sync; constr = Constr.tt; command = None; target } in
  let auto =
    Automaton.make ~nstates:3 ~initial:0
      ~trans:
        [| [| t (Preo_support.Iset.singleton a) 0 |]; [||]; [||] |]
      ~sources:(Preo_support.Iset.singleton a) ~sinks:Preo_support.Iset.empty
  in
  Alcotest.(check (list int)) "states 1,2" [ 1; 2 ] (Verify.unreachable_states auto)

let tests =
  [
    ("fig5 contract holds", `Quick, fig5_contract);
    ("fig5 swapped fails", `Quick, fig5_violated_when_swapped);
    ("deadlock detected", `Quick, deadlock_detected);
    ("catalog deadlock-free", `Quick, deadlock_free_connectors);
    ("deadlock.preo: verify agrees with the runtime", `Quick, deadlock_example);
    ("router mutual exclusion", `Quick, mutual_exclusion_of_router_branches);
    ("replicator synchrony", `Quick, synchrony_of_replicator);
    ("fifo precedence", `Quick, precedence_of_fifo);
    ("dead port detected", `Quick, dead_port_detected);
    ("unreachable states", `Quick, unreachable_reported);
  ]
