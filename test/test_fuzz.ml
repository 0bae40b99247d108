(* The fuzzing harness end to end, at test-suite-friendly case counts. The
   full-size run is [make fuzz] / bin/tqec_fuzz. *)

module Props = Tqec_fuzzing.Props
module Circuit_gen = Tqec_fuzzing.Circuit_gen
module Property = Tqec_proptest.Property
module Gen = Tqec_proptest.Gen
module Rng = Tqec_prelude.Rng
open Tqec_circuit

let expect_pass ?(count = 10) ~seed p =
  match Props.run_prop ~count ~seed p with
  | Property.Pass _ -> ()
  | Property.Fail f -> Alcotest.fail (Property.describe f)

let test_generator_validity () =
  (* Circuit.make inside the generator validates gate/qubit consistency;
     decomposition must land in the TQEC-supported set. *)
  let gen = Circuit_gen.circuit ~max_qubits:6 ~max_gates:15 () in
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let c = Gen.run gen rng in
    Alcotest.(check bool) "non-empty" true (Circuit.gate_count c >= 1);
    Alcotest.(check bool) "decomposes to supported set" true
      (Circuit.is_tqec_supported (Decompose.circuit c))
  done

let test_generator_shrink_validity () =
  let gen = Circuit_gen.circuit ~max_qubits:5 ~max_gates:12 () in
  let c = Gen.run gen (Rng.create 3) in
  Seq.iter
    (fun c' ->
      Alcotest.(check bool) "shrunk candidate stays valid" true
        (Circuit.gate_count c' < Circuit.gate_count c
         && c'.Circuit.num_qubits = c.Circuit.num_qubits))
    (Circuit_gen.shrink c)

let test_semantics_prop () =
  expect_pass ~count:25 ~seed:7 (Props.semantics ~max_qubits:4 ~max_gates:10)

let test_volume_prop () =
  expect_pass ~count:8 ~seed:7 (Props.volume ~max_qubits:4 ~max_gates:12)

let test_oracle_prop () =
  expect_pass ~count:5 ~seed:7 (Props.oracle ~max_qubits:4 ~max_gates:8)

let test_pack_cache_prop () = expect_pass ~count:100 ~seed:7 Props.pack_cache

let test_checkpoint_prop () = expect_pass ~count:200 ~seed:7 Props.checkpoint

let test_incremental_cost_prop () =
  expect_pass ~count:6 ~seed:7 (Props.incremental_cost ~max_qubits:4 ~max_gates:8)

let test_artifact_roundtrip_prop () =
  expect_pass ~count:6 ~seed:7 (Props.artifact_roundtrip ~max_qubits:4 ~max_gates:8)

let test_cache_warm_identity_prop () =
  expect_pass ~count:5 ~seed:7 (Props.cache_warm_identity ~max_qubits:4 ~max_gates:8)

let test_restricted_region_prop () =
  expect_pass ~count:5 ~seed:7 (Props.restricted_region ~max_qubits:4 ~max_gates:8)

let test_prop_names () =
  Alcotest.(check (list string))
    "property registry"
    [ "decomposition-semantics"; "volume-vs-lin"; "oracle-agreement";
      "bstar-pack-cache"; "bstar-checkpoint"; "sa-incremental-cost";
      "artifact-roundtrip"; "cache-warm-bit-identity"; "route-restricted-region" ]
    (List.map Props.name (Props.all ~max_qubits:4 ~max_gates:8))

let suites =
  [ ( "fuzz",
      [ Alcotest.test_case "generator validity" `Quick test_generator_validity;
        Alcotest.test_case "generator shrink validity" `Quick
          test_generator_shrink_validity;
        Alcotest.test_case "semantics property" `Quick test_semantics_prop;
        Alcotest.test_case "volume property" `Quick test_volume_prop;
        Alcotest.test_case "oracle property" `Quick test_oracle_prop;
        Alcotest.test_case "pack-cache property" `Quick test_pack_cache_prop;
        Alcotest.test_case "checkpoint property" `Quick test_checkpoint_prop;
        Alcotest.test_case "incremental-cost property" `Quick
          test_incremental_cost_prop;
        Alcotest.test_case "artifact-roundtrip property" `Quick
          test_artifact_roundtrip_prop;
        Alcotest.test_case "cache-warm-identity property" `Quick
          test_cache_warm_identity_prop;
        Alcotest.test_case "restricted-region property" `Quick
          test_restricted_region_prop;
        Alcotest.test_case "property names" `Quick test_prop_names ] ) ]
