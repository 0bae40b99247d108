(* Alcotest runner aggregating all per-library suites. *)

let () =
  Alcotest.run "tqec"
    (Test_prelude.suites
    @ Test_pool.suites
    @ Test_obs.suites
    @ Test_geom.suites
    @ Test_rtree.suites
    @ Test_sim.suites
    @ Test_circuit.suites
    @ Test_icm.suites
    @ Test_recycle.suites
    @ Test_canonical.suites
    @ Test_modular.suites
    @ Test_bridge.suites
    @ Test_place.suites
    @ Test_refine.suites
    @ Test_route.suites
    @ Test_baseline.suites
    @ Test_core.suites
    @ Test_artifact.suites
    @ Test_proptest.suites
    @ Test_verify.suites
    @ Test_fuzz.suites
    @ Test_report.suites
    @ Test_lint.suites
    @ Test_integration.suites
    @ Test_misc.suites)
