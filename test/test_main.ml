let () =
  Alcotest.run "preo"
    [
      ("support", Suite_support.tests);
      ("lru", Suite_lru.tests);
      ("automata", Suite_automata.tests);
      ("primitives", Suite_prim.tests);
      ("graph", Suite_graph.tests);
      ("lang", Suite_lang.tests);
      ("runtime", Suite_runtime.tests);
      ("connectors", Suite_connectors.tests);
      ("verify", Suite_verify.tests);
      ("bisim", Suite_bisim.tests);
      ("sim", Suite_sim.tests);
      ("prop", Suite_prop.tests);
      ("codegen", Suite_codegen.tests);
      ("dist", Suite_dist.tests);
      ("shard", Suite_shard.tests);
      ("solver-props", Suite_solver_props.tests);
      ("fuzz", Suite_fuzz.tests);
      ("stress", Suite_stress.tests);
      ("wakeup", Suite_wakeup.tests);
      ("lockfree", Suite_lockfree.tests);
      ("facade", Suite_facade.tests);
      ("dsl-corners", Suite_dsl_corners.tests);
      ("random-networks", Suite_random.tests);
      ("npb", Suite_npb.tests);
      ("timer", Suite_timer.tests);
      ("elastic", Suite_elastic.tests);
      ("domains", Suite_domains.tests);
      ("obs", Suite_obs.tests);
      ("coloring", Suite_coloring.tests);
      ("compile", Suite_compile.tests);
    ]
