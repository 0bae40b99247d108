(* Stage-by-stage tour of the full pipeline on a RevLib benchmark.

   Reproduces one row of each paper table for 4gt10-v1_81 (the smallest
   benchmark of Table I) and narrates what each stage contributes.

   Run with: dune exec examples/benchmark_tour.exe *)

let () =
  let spec = Option.get (Tqec_circuit.Benchmarks.find "4gt10-v1_81") in
  let circuit = Tqec_circuit.Benchmarks.generate spec in
  Printf.printf "== %s: %d qubits, %d gates (%d Toffoli + %d CNOT) ==\n\n"
    spec.Tqec_circuit.Benchmarks.name spec.Tqec_circuit.Benchmarks.qubits
    (Tqec_circuit.Benchmarks.gate_count spec) spec.Tqec_circuit.Benchmarks.toffolis
    spec.Tqec_circuit.Benchmarks.cnots;

  (* Decomposition to the TQEC-supported set {CNOT, P, V, T}. *)
  let decomposed = Tqec_circuit.Decompose.circuit circuit in
  Printf.printf "[decompose] %d gates -> %d TQEC-supported gates (%d T-type)\n"
    (Tqec_circuit.Circuit.gate_count circuit)
    (Tqec_circuit.Circuit.gate_count decomposed)
    (Tqec_circuit.Circuit.t_count decomposed);

  (* ICM conversion: Table I statistics. *)
  let stats = Tqec_icm.Stats.of_circuit circuit in
  Printf.printf "[icm] qubits_d=%d cnots=%d |Y>=%d |A>=%d (Table I: 131/168/42/21)\n"
    stats.Tqec_icm.Stats.qubits_d stats.Tqec_icm.Stats.cnots stats.Tqec_icm.Stats.n_y
    stats.Tqec_icm.Stats.n_a;

  let icm = Tqec_icm.Icm.of_circuit decomposed in
  let canonical = Tqec_canonical.Canonical.of_icm icm in
  Printf.printf "[canonical] volume %d (+boxes = %d; Table II canonical: 136,836)\n"
    (Tqec_canonical.Canonical.volume canonical)
    (Tqec_canonical.Canonical.total_volume canonical);

  (* Side quest from the paper's SI-B survey: wire recycling would shrink
     the canonical description's width before any compression runs. *)
  let recycle = Tqec_icm.Recycle.analyze icm in
  Printf.printf "[recycle] %d wires fit in %d rows (Paler-Wille wire recycling)\n"
    recycle.Tqec_icm.Recycle.wires recycle.Tqec_icm.Recycle.tracks;

  let modular = Tqec_modular.Modular.of_icm icm in
  Printf.printf "[modularize] %d modules (Table I: 362)\n"
    (Tqec_modular.Modular.num_modules modular);

  let bridge = Tqec_bridge.Bridge.run modular in
  Printf.printf "[bridge] %d merges, %d structures, %d nets (Table I: 483)\n"
    bridge.Tqec_bridge.Bridge.merges
    (List.length bridge.Tqec_bridge.Bridge.structures)
    (List.length bridge.Tqec_bridge.Bridge.nets);

  let friend_pins = Tqec_bridge.Bridge.friend_groups bridge.Tqec_bridge.Bridge.nets in
  Printf.printf "[bridge] %d pins now shared by friend nets\n" (List.length friend_pins);

  (* Baselines of Table II. *)
  let l1 = Tqec_baseline.Lin.run Tqec_baseline.Lin.One_d icm in
  let l2 = Tqec_baseline.Lin.run Tqec_baseline.Lin.Two_d icm in
  Printf.printf "[baseline] Lin [22] 1D volume %d, 2D volume %d (paper: 98,322 / 91,116)\n"
    l1.Tqec_baseline.Lin.total_volume l2.Tqec_baseline.Lin.total_volume;

  (* Full flow. *)
  let options =
    Tqec_report.Effort.options_for ~level:Tqec_report.Effort.Normal
      ~gates:stats.Tqec_icm.Stats.cnots
  in
  let flow = Tqec_core.Flow.run ~options circuit in
  let w, h, d = flow.Tqec_core.Flow.dims in
  Printf.printf "[ours] W=%d H=%d D=%d volume %d (paper: 45x24x23 = 24,840)\n" w h d
    flow.Tqec_core.Flow.volume;
  Printf.printf "[ours] first-pass routing success: %d/%d nets (paper: 85-95%%)\n"
    flow.Tqec_core.Flow.routing.Tqec_route.Router.routed_first_iteration
    (Tqec_core.Flow.num_nets flow);
  Printf.printf
    "[runtime] bridging %.2fs, placement %.2fs, routing %.2fs (placement should dominate)\n"
    flow.Tqec_core.Flow.breakdown.Tqec_core.Flow.t_bridging
    flow.Tqec_core.Flow.breakdown.Tqec_core.Flow.t_placement
    flow.Tqec_core.Flow.breakdown.Tqec_core.Flow.t_routing;
  match Tqec_core.Flow.validate flow with
  | Ok () -> print_endline "\nEverything validated."
  | Error e -> Printf.printf "\nValidation failed: %s\n" e
