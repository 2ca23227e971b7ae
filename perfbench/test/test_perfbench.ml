(* Tests of the benchmark's own helpers: percentiles, self time, sample
   thinning and the output oracle. *)

open Perfbench_util
module Value = Preo_support.Value

let sorted_range n = Array.init n (fun i -> i + 1)

let percentile_rule () =
  (* 1000 samples: p99 is the 990th value, 10 samples beyond it *)
  Alcotest.(check (option int)) "p99 of 1000" (Some 990)
    (Stat.percentile ~q:0.99 (sorted_range 1000));
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stat.beyond ~q:0.99 1000);
  (* 999 samples leave only 9 beyond p99: not reportable *)
  Alcotest.(check (option int)) "p99 of 999" None
    (Stat.percentile ~q:0.99 (sorted_range 999));
  Alcotest.(check (option int)) "p50 of 21" (Some 11)
    (Stat.percentile ~q:0.5 (sorted_range 21));
  Alcotest.(check (option int)) "p50 of 19" None
    (Stat.percentile ~q:0.5 (sorted_range 19));
  Alcotest.(check (option int)) "empty" None (Stat.percentile ~q:0.5 [||])

let median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stat.median_float [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stat.median_float [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 0.0)) "empty base" 0.0 (Stat.ratio 5 0)

let self_time () =
  let self = Span.self_time ~start:0 ~stop:100 in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint" 70 (self [ (10, 20); (40, 60) ]);
  Alcotest.(check int) "overlapping children counted once" 60 (self [ (10, 30); (20, 50) ]);
  Alcotest.(check int) "clipped to the parent" 80 (self [ (90, 120); (-5, 10) ]);
  Alcotest.(check int) "nested children" 50 (self [ (10, 60); (20, 30) ])

let layer_self () =
  let t = Span.create 16 in
  let op = Span.intern t "bench.op" and call = Span.intern t "engine.send" in
  let root = Span.enter t ~name:op ~parent:Span.none ~op:0 in
  let child = Span.enter t ~name:call ~parent:root ~op:0 in
  Span.leave t child;
  Span.leave t root;
  (* overwrite the clock readings with known times *)
  t.start.(root) <- 0;
  t.stop.(root) <- 100;
  t.start.(child) <- 30;
  t.stop.(child) <- 70;
  let self = Span.layer_self t in
  Alcotest.(check int) "bench self" 60 (Hashtbl.find self "bench");
  Alcotest.(check int) "engine self" 40 (Hashtbl.find self "engine");
  Alcotest.(check int) "root total" 100 (Span.root_total t);
  let full = Span.create 1 in
  ignore (Span.enter full ~name:0 ~parent:Span.none ~op:0);
  Alcotest.(check int) "full buffer refuses" Span.none
    (Span.enter full ~name:0 ~parent:Span.none ~op:1)

let thinning () =
  let s = Samples.bounded 8 in
  for i = 1 to 100 do
    Samples.add s i
  done;
  Alcotest.(check int) "seen" 100 (Samples.seen s);
  Alcotest.(check bool) "bounded" true (Samples.length s <= 8);
  Alcotest.(check bool) "kept at least half" true (Samples.length s >= 4);
  let kept = Array.sub s.a 0 (Samples.length s) in
  let gaps = Array.init (Array.length kept - 1) (fun i -> kept.(i + 1) - kept.(i)) in
  Alcotest.(check bool) "evenly spaced" true (Array.for_all (fun g -> g = gaps.(0)) gaps)

let oracle_catches_corruption () =
  let o = Oracle.create () in
  Oracle.value o ~what:"ok" ~expected:(Value.int 7) (Value.int 7);
  Oracle.value o ~what:"corrupted" ~expected:(Value.int 7) (Value.int 8);
  Alcotest.(check int) "attempted" 2 o.attempted;
  Alcotest.(check int) "failed" 1 o.failed;
  Alcotest.(check (float 0.0)) "error rate" 0.5 (Oracle.error_rate o);
  Alcotest.(check bool) "names the mismatch" true
    (match o.first_error with
     | Some e -> String.length e >= 9 && String.sub e 0 9 = "corrupted"
     | None -> false)

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile needs 10 samples beyond" `Quick percentile_rule;
          Alcotest.test_case "median and ratio" `Quick median;
          Alcotest.test_case "self time subtracts covered children" `Quick self_time;
          Alcotest.test_case "self time per layer" `Quick layer_self;
          Alcotest.test_case "bounded samples thin evenly" `Quick thinning;
          Alcotest.test_case "oracle catches a corrupted value" `Quick oracle_catches_corruption;
        ] );
    ]
