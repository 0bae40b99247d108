(* Odds and ends: behaviours not covered by the per-library suites. *)

open Tqec_circuit
module Rng = Tqec_prelude.Rng

let test_rng_pick () =
  let rng = Rng.create 13 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Rng.pick rng arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) arr)
  done

let test_bstar_resize_affects_packing () =
  let t = Tqec_place.Bstar.create [| (2, 2); (2, 2) |] in
  (* A packing is the tree's own buffer, re-evaluated in place: read the
     old area before the resize. *)
  let before = Tqec_place.Bstar.pack ~spacing:0 t in
  let area_before = before.Tqec_place.Bstar.span_x * before.Tqec_place.Bstar.span_y in
  Tqec_place.Bstar.set_block_dims t 0 6 6;
  let after = Tqec_place.Bstar.pack ~spacing:0 t in
  Alcotest.(check bool) "span grows after resize" true
    (after.Tqec_place.Bstar.span_x * after.Tqec_place.Bstar.span_y > area_before);
  Alcotest.(check (pair int int)) "dims readable" (6, 6)
    (Tqec_place.Bstar.block_dims t 0)

let test_lin_of_circuit_convenience () =
  let c =
    Circuit.make ~name:"conv" ~num_qubits:3
      [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  let r = Tqec_baseline.Lin.of_circuit Tqec_baseline.Lin.One_d c in
  (* One Toffoli: 45 decomposed wires. *)
  Alcotest.(check int) "width = decomposed wires" 45 r.Tqec_baseline.Lin.width

let test_ordering_edges_empty_without_repeats () =
  let icm =
    Tqec_icm.Icm.of_circuit
      (Circuit.make ~name:"t" ~num_qubits:3 [ Gate.T 0; Gate.T 1; Gate.T 2 ])
  in
  Alcotest.(check (list (pair int int))) "no same-qubit pairs" []
    (Tqec_icm.Icm.ordering_edges icm)

let test_cluster_group_size_knob () =
  let gates = List.init 16 (fun i -> Gate.Cnot { control = i mod 3; target = 3 }) in
  let icm = Tqec_icm.Icm.of_circuit (Circuit.make ~name:"k" ~num_qubits:4 gates) in
  let m = Tqec_modular.Modular.of_icm icm in
  let small = Tqec_place.Cluster.build ~max_group_size:2 m in
  let large = Tqec_place.Cluster.build ~max_group_size:8 m in
  Alcotest.(check bool) "bigger groups, fewer clusters" true
    (Tqec_place.Cluster.num_clusters large <= Tqec_place.Cluster.num_clusters small);
  (match Tqec_place.Cluster.validate small with Ok () -> () | Error e -> Alcotest.fail e);
  match Tqec_place.Cluster.validate large with Ok () -> () | Error e -> Alcotest.fail e

let test_modular_dims_of_kind () =
  let icm =
    Tqec_icm.Icm.of_circuit (Circuit.make ~name:"d" ~num_qubits:2 [ Gate.T 0 ])
  in
  let m = Tqec_modular.Modular.of_icm icm in
  Alcotest.(check (list int)) "Y box dims" [ 3; 3; 2 ]
    (let d, w, h = Tqec_modular.Modular.dims_of_kind m (Tqec_modular.Modular.Y_box { gadget = 0 }) in
     [ d; w; h ]);
  Alcotest.(check (list int)) "A box dims" [ 16; 6; 2 ]
    (let d, w, h = Tqec_modular.Modular.dims_of_kind m (Tqec_modular.Modular.A_box { gadget = 0 }) in
     [ d; w; h ])

let test_benchmark_paper_columns_consistent () =
  (* The embedded paper volumes satisfy the paper's own ordering. *)
  List.iter
    (fun s ->
      let open Tqec_circuit.Benchmarks in
      Alcotest.(check bool) (s.name ^ ": ours < 2D") true
        (s.paper_volume_ours < s.paper_volume_lin2d);
      Alcotest.(check bool) (s.name ^ ": 2D <= 1D") true
        (s.paper_volume_lin2d <= s.paper_volume_lin1d);
      Alcotest.(check bool) (s.name ^ ": 1D < canonical") true
        (s.paper_volume_lin1d < s.paper_volume_canonical))
    Tqec_circuit.Benchmarks.all

let test_flow_default_options_consistent () =
  let o = Tqec_core.Flow.default_options in
  Alcotest.(check bool) "bridging on" true o.Tqec_core.Flow.bridging;
  Alcotest.(check bool) "primal groups on" true o.Tqec_core.Flow.primal_groups;
  Alcotest.(check bool) "friends on" true o.Tqec_core.Flow.friend_aware

let suites =
  [ ( "misc",
      [ Alcotest.test_case "rng pick" `Quick test_rng_pick;
        Alcotest.test_case "bstar resize" `Quick test_bstar_resize_affects_packing;
        Alcotest.test_case "lin of_circuit" `Quick test_lin_of_circuit_convenience;
        Alcotest.test_case "ordering edges empty" `Quick
          test_ordering_edges_empty_without_repeats;
        Alcotest.test_case "cluster group size" `Quick test_cluster_group_size_knob;
        Alcotest.test_case "dims of kind" `Quick test_modular_dims_of_kind;
        Alcotest.test_case "paper columns ordered" `Quick
          test_benchmark_paper_columns_consistent;
        Alcotest.test_case "flow defaults" `Quick test_flow_default_options_consistent ] ) ]
