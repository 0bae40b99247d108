open Tqec_circuit
module Flow = Tqec_core.Flow
module Trace = Tqec_obs.Trace

let fast_options =
  Flow.scale_options ~sa_iterations:1500 ~route_iterations:15 Flow.default_options

let fig4_circuit () =
  Circuit.make ~name:"fig4" ~num_qubits:3
    [ Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 2 };
      Gate.Cnot { control = 0; target = 2 } ]

let test_flow_end_to_end () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  (match Flow.validate f with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "volume positive" true (f.Flow.volume > 0);
  let w, h, d = f.Flow.dims in
  Alcotest.(check int) "volume consistent" (w * h * d) f.Flow.volume

let test_flow_beats_canonical () =
  (* Compression wins once the canonical form's serial time axis dominates;
     on the tiny Fig. 4 example the modular overhead exceeds 54, which is
     expected and documented. Use the smallest real benchmark instead. *)
  let spec = Option.get (Benchmarks.find "4gt10-v1_81") in
  let f = Flow.run ~options:fast_options (Benchmarks.generate spec) in
  let canonical = Tqec_canonical.Canonical.total_volume f.Flow.canonical in
  Alcotest.(check int) "canonical is 136,836" 136836 canonical;
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d well below canonical %d" f.Flow.volume canonical)
    true
    (float_of_int f.Flow.volume < 0.75 *. float_of_int canonical)

let test_flow_with_t_gates () =
  let c =
    Circuit.make ~name:"with-t" ~num_qubits:2
      [ Gate.T 0; Gate.Cnot { control = 0; target = 1 }; Gate.Tdag 1 ]
  in
  let f = Flow.run ~options:fast_options c in
  (match Flow.validate f with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "2 gadgets" 2 (Array.length f.Flow.canonical.Tqec_canonical.Canonical.icm.Tqec_icm.Icm.gadgets)

let test_flow_toffoli_input () =
  (* Unsupported gates decompose inside the flow. *)
  let c =
    Circuit.make ~name:"tof" ~num_qubits:3
      [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  let f = Flow.run ~options:fast_options c in
  Alcotest.(check int) "7 |A> states" 7 f.Flow.stats.Tqec_icm.Stats.n_a;
  match Flow.validate f with Ok () -> () | Error e -> Alcotest.fail e

let test_flow_bridging_ablation () =
  let c = fig4_circuit () in
  let with_b = Flow.run ~options:fast_options c in
  let without =
    Flow.run ~options:{ fast_options with Flow.bridging = false } c
  in
  Alcotest.(check bool) "bridge record present" true (with_b.Flow.bridge <> None);
  Alcotest.(check bool) "bridge record absent" true (without.Flow.bridge = None);
  Alcotest.(check bool) "fewer or equal nets with bridging" true
    (Flow.num_nets with_b <= Flow.num_nets without);
  match Flow.validate without with Ok () -> () | Error e -> Alcotest.fail e

let test_flow_conference_mode () =
  let c =
    Circuit.make ~name:"conf" ~num_qubits:3
      [ Gate.T 0;
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 2 } ]
  in
  let journal = Flow.run ~options:fast_options c in
  let conference =
    Flow.run ~options:{ fast_options with Flow.primal_groups = false } c
  in
  Alcotest.(check bool) "conference mode has more nodes" true
    (Flow.num_nodes conference >= Flow.num_nodes journal);
  match Flow.validate conference with Ok () -> () | Error e -> Alcotest.fail e

let test_flow_deterministic () =
  let f1 = Flow.run ~options:fast_options (fig4_circuit ()) in
  let f2 = Flow.run ~options:fast_options (fig4_circuit ()) in
  Alcotest.(check int) "same volume" f1.Flow.volume f2.Flow.volume

let test_flow_breakdown_sums () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  let b = f.Flow.breakdown in
  Alcotest.(check bool) "stages sum below total" true
    (b.Flow.t_preprocess +. b.Flow.t_bridging +. b.Flow.t_placement +. b.Flow.t_routing
     <= b.Flow.t_total +. 0.05)

let test_stage_traces_exist () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  Alcotest.(check (list string)) "one child span per stage, in order"
    Flow.stage_names
    (List.map Trace.name (Trace.children f.Flow.trace));
  List.iter
    (fun stage ->
      match Flow.stage_span f stage with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s duration non-negative" stage)
            true
            (Trace.duration_s s >= 0.0)
      | None -> Alcotest.fail (stage ^ " span missing"))
    Flow.stage_names

let test_breakdown_derived_from_trace () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  let b = f.Flow.breakdown in
  let dur stage =
    match Flow.stage_span f stage with
    | Some s -> Trace.duration_s s
    | None -> Alcotest.fail (stage ^ " span missing")
  in
  List.iter2
    (fun stage expected ->
      Alcotest.(check (float 1e-9)) (stage ^ " equals span duration") (dur stage)
        expected)
    Flow.stage_names
    [ b.Flow.t_preprocess; b.Flow.t_bridging; b.Flow.t_placement; b.Flow.t_routing ];
  Alcotest.(check bool) "stages sum below total" true
    (b.Flow.t_preprocess +. b.Flow.t_bridging +. b.Flow.t_placement +. b.Flow.t_routing
     <= b.Flow.t_total +. 1e-9)

let test_stage_counters () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  let p = f.Flow.placement in
  Alcotest.(check int) "sa_accepted matches placement record"
    p.Tqec_place.Place25d.sa_accepted
    (Flow.stage_counter f "placement" "sa_accepted");
  (match f.Flow.bridge with
   | Some b ->
       Alcotest.(check int) "merges counter matches bridge record"
         b.Tqec_bridge.Bridge.merges
         (Flow.stage_counter f "bridging" "merges")
   | None -> Alcotest.fail "bridging enabled but no bridge record");
  Alcotest.(check int) "ripup_passes matches routing record"
    f.Flow.routing.Tqec_route.Router.iterations_used
    (Flow.stage_counter f "routing" "ripup_passes");
  Alcotest.(check int) "nets_routed counter matches"
    (List.length f.Flow.routing.Tqec_route.Router.routed)
    (Flow.stage_counter f "routing" "nets_routed");
  Alcotest.(check bool) "astar expansions recorded" true
    (Flow.stage_counter f "routing" "astar_expansions" > 0)

let test_stages_independently_callable () =
  (* Driving the four stages by hand — with instrumentation fully disabled
     via the noop sink — must reproduce Flow.run bit-for-bit. *)
  let circuit = fig4_circuit () in
  let composed = Flow.run ~options:fast_options circuit in
  let noop = Trace.noop in
  let pre = Flow.Preprocess.run ~trace:noop circuit in
  let br =
    Flow.Bridging.run ~trace:noop
      { Flow.Bridging.bridging = fast_options.Flow.bridging;
        modular = pre.Flow.Preprocess.modular }
  in
  let pl =
    Flow.Placement.run ~trace:noop
      { Flow.Placement.primal_groups = fast_options.Flow.primal_groups;
        max_group_size = fast_options.Flow.max_group_size;
        config = fast_options.Flow.place;
        modular = pre.Flow.Preprocess.modular;
        nets = br.Flow.Bridging.nets;
        pool = None }
  in
  let routing =
    Flow.Routing.run ~trace:noop
      { Flow.Routing.config =
          { fast_options.Flow.route with
            Tqec_route.Router.friend_aware =
              fast_options.Flow.friend_aware && fast_options.Flow.bridging };
        placement = pl.Flow.Placement.placement;
        nets = br.Flow.Bridging.nets;
        pool = None }
  in
  Alcotest.(check int) "same volume" composed.Flow.volume
    routing.Tqec_route.Router.volume;
  Alcotest.(check int) "same routed count"
    (List.length composed.Flow.routing.Tqec_route.Router.routed)
    (List.length routing.Tqec_route.Router.routed);
  Alcotest.(check int) "same rip-up iterations"
    composed.Flow.routing.Tqec_route.Router.iterations_used
    routing.Tqec_route.Router.iterations_used;
  Alcotest.(check int) "same net count" (Flow.num_nets composed)
    (List.length br.Flow.Bridging.nets)

let test_metrics_json () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  let json = Flow.metrics_json f in
  let module Json = Tqec_obs.Json in
  Alcotest.(check bool) "volume" true
    (Json.path [ "volume" ] json = Some (Json.Int f.Flow.volume));
  List.iter
    (fun stage ->
      match Json.path [ "stage_durations_s"; stage ] json with
      | Some (Json.Float _) -> ()
      | _ -> Alcotest.fail ("missing stage duration " ^ stage))
    Flow.stage_names;
  List.iter
    (fun counter ->
      match Json.path [ "counters"; counter ] json with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail ("missing counter " ^ counter))
    [ "placement/sa_accepted"; "placement/sa_rejected"; "routing/astar_expansions";
      "routing/ripup_passes"; "bridging/merges" ];
  (* The whole payload survives render -> parse. *)
  match Json.of_string (Json.to_string ~pretty:true json) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (Json.equal json parsed)
  | Error msg -> Alcotest.fail msg

(* Each corruption of a valid layout must trip its own distinct validator
   stage: overlapping modules, a net left unrouted, a TSL time-order
   violation. *)
let test_validate_failure_paths () =
  let module P = Tqec_place.Place25d in
  let module Router = Tqec_route.Router in
  let module Point3 = Tqec_geom.Point3 in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let c =
    Circuit.make ~name:"corrupt" ~num_qubits:2
      [ Gate.T 0; Gate.Cnot { control = 0; target = 1 }; Gate.T 0 ]
  in
  let f = Flow.run ~options:fast_options c in
  (match Flow.validate f with Ok () -> () | Error e -> Alcotest.fail e);
  let p = f.Flow.placement in
  let expect_error label needle flow =
    match Flow.validate flow with
    | Ok () -> Alcotest.fail (label ^ ": corruption not detected")
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s error mentions %S (got %S)" label needle e)
          true (contains e needle);
        e
  in
  let e_overlap =
    let pos = Array.copy p.P.module_pos in
    pos.(1) <- pos.(0);
    expect_error "overlap" "overlaps"
      { f with Flow.placement = { p with P.module_pos = pos } }
  in
  let e_unrouted =
    let r = f.Flow.routing in
    expect_error "unrouted" "unrouted"
      { f with Flow.routing = { r with Router.failed = [ List.hd f.Flow.nets ] } }
  in
  let e_time =
    let tsl =
      match
        Array.find_opt
          (fun l -> List.length l >= 2)
          p.P.cluster.Tqec_place.Cluster.tsl
      with
      | Some l -> l
      | None -> Alcotest.fail "expected a TSL with two clusters"
    in
    let c1 = List.nth tsl 0 and c2 = List.nth tsl 1 in
    let cpos = Array.copy p.P.cluster_pos in
    cpos.(c1) <- { (cpos.(c1)) with Point3.x = cpos.(c2).Point3.x + 5 };
    expect_error "time-order" "out of order"
      { f with Flow.placement = { p with P.cluster_pos = cpos } }
  in
  Alcotest.(check bool) "three distinct errors" true
    (e_overlap <> e_unrouted && e_unrouted <> e_time && e_overlap <> e_time)

let test_scale_options () =
  let o = Flow.scale_options ~sa_iterations:123 ~route_iterations:7 Flow.default_options in
  Alcotest.(check int) "sa" 123 o.Flow.place.Tqec_place.Place25d.sa.Tqec_place.Sa.iterations;
  Alcotest.(check int) "route" 7 o.Flow.route.Tqec_route.Router.max_iterations

let test_check_options () =
  let d = Flow.default_options in
  let with_route f = { d with Flow.route = f d.Flow.route } in
  let check what expected options =
    Alcotest.(check (result unit string)) what expected (Flow.check_options options)
  in
  check "defaults" (Ok ()) d;
  check "tiers" (Error "tiers must be >= 1 (got -3)")
    { d with Flow.place = { d.Flow.place with Tqec_place.Place25d.tiers = Some (-3) } };
  check "route_iterations" (Error "route_iterations must be >= 1 (got 0)")
    (Flow.scale_options ~route_iterations:0 d);
  check "region_margin" (Error "region_margin must be >= 0 (got -5)")
    (with_route (fun r -> { r with Tqec_route.Router.region_margin = -5 }));
  check "region_margin 0" (Ok ())
    (with_route (fun r -> { r with Tqec_route.Router.region_margin = 0 }))

let suites =
  [ ( "core.flow",
      [ Alcotest.test_case "end to end" `Quick test_flow_end_to_end;
        Alcotest.test_case "beats canonical" `Quick test_flow_beats_canonical;
        Alcotest.test_case "with T gates" `Quick test_flow_with_t_gates;
        Alcotest.test_case "Toffoli input" `Quick test_flow_toffoli_input;
        Alcotest.test_case "bridging ablation" `Quick test_flow_bridging_ablation;
        Alcotest.test_case "conference mode" `Quick test_flow_conference_mode;
        Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
        Alcotest.test_case "breakdown" `Quick test_flow_breakdown_sums;
        Alcotest.test_case "stage traces exist" `Quick test_stage_traces_exist;
        Alcotest.test_case "breakdown from trace" `Quick test_breakdown_derived_from_trace;
        Alcotest.test_case "stage counters" `Quick test_stage_counters;
        Alcotest.test_case "stages independently callable" `Quick
          test_stages_independently_callable;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "validate failure paths" `Quick test_validate_failure_paths;
        Alcotest.test_case "scale options" `Quick test_scale_options;
        Alcotest.test_case "check options" `Quick test_check_options ] ) ]
