(* Command-line front end for the TQEC bridge-compression flow.

   Examples:
     tqec_compress --benchmark 4gt10-v1_81
     tqec_compress --real my_circuit.real --sa-iterations 50000 --layout
     tqec_compress --benchmark rd84_142 --no-bridging --baselines *)

open Cmdliner

let load ~benchmark ~real_file ~seed =
  match benchmark, real_file with
  | Some name, None -> (
      match Tqec_circuit.Benchmarks.find name with
      | Some spec -> Ok (Tqec_circuit.Benchmarks.generate ~seed spec)
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %S; known: %s" name
               (String.concat ", "
                  (List.map
                     (fun s -> s.Tqec_circuit.Benchmarks.name)
                     Tqec_circuit.Benchmarks.all))))
  | None, Some path -> (
      try Ok (Tqec_circuit.Real_parser.of_file path) with
      | Tqec_circuit.Real_parser.Parse_error msg ->
          Error (Printf.sprintf "cannot parse %s: %s" path msg)
      | Sys_error msg -> Error msg)
  | Some _, Some _ -> Error "pass either --benchmark or --real, not both"
  | None, None -> Error "pass --benchmark NAME or --real FILE"

let run benchmark real_file seed sa_iterations route_iterations tiers domains
    chains no_bridging no_primal_groups no_friends baselines layout json trace
    metrics_file cache_dir =
  (match domains with
   | Some n -> Tqec_prelude.Pool.set_default_domains n
   | None -> ());
  match load ~benchmark ~real_file ~seed with
  | Error msg ->
      prerr_endline ("tqec_compress: " ^ msg);
      exit 1
  | Ok circuit ->
      let base = Tqec_core.Flow.default_options in
      let options =
        Tqec_core.Flow.scale_options ?sa_iterations ?route_iterations
          { base with
            Tqec_core.Flow.bridging = not no_bridging;
            primal_groups = not no_primal_groups;
            friend_aware = not no_friends;
            place =
              { base.Tqec_core.Flow.place with
                Tqec_place.Place25d.tiers;
                seed;
                chains = max 1 chains } }
      in
      let cache = Option.map (fun dir -> Tqec_artifact.Store.create ~dir ()) cache_dir in
      let flow = Tqec_core.Flow.run ~options ?cache circuit in
      let open Tqec_core.Flow in
      let s = flow.stats in
      Printf.printf "circuit %s: %d qubits, %d gates -> %d wires, %d CNOTs, %d |Y>, %d |A>\n"
        flow.name s.Tqec_icm.Stats.qubits_o s.Tqec_icm.Stats.gates_o
        s.Tqec_icm.Stats.qubits_d s.Tqec_icm.Stats.cnots s.Tqec_icm.Stats.n_y
        s.Tqec_icm.Stats.n_a;
      Printf.printf "modules %d, nets %d, nodes %d%s\n"
        (Tqec_modular.Modular.num_modules flow.modular)
        (num_nets flow) (num_nodes flow)
        (match flow.bridge with
         | Some b -> Printf.sprintf ", bridge merges %d" b.Tqec_bridge.Bridge.merges
         | None -> " (bridging disabled)");
      let w, h, d = flow.dims in
      Printf.printf "compressed: W=%d H=%d D=%d volume=%d (canonical %d, %.1fx smaller)\n"
        w h d flow.volume
        (Tqec_canonical.Canonical.total_volume flow.canonical)
        (float_of_int (Tqec_canonical.Canonical.total_volume flow.canonical)
         /. float_of_int (max 1 flow.volume));
      Printf.printf
        "runtime: preprocess %.2fs, bridging %.2fs, placement %.2fs, routing %.2fs\n"
        flow.breakdown.t_preprocess flow.breakdown.t_bridging flow.breakdown.t_placement
        flow.breakdown.t_routing;
      (match cache with
       | Some _ ->
           let hits, misses, stores = cache_stats flow in
           Printf.printf "cache: %d hits, %d misses, %d stored\n" hits misses stores
       | None -> ());
      let valid =
        match validate flow with
        | Ok () ->
            print_endline "validation: ok";
            true
        | Error e ->
            Printf.printf "validation: FAILED (%s)\n" e;
            false
      in
      if baselines then begin
        let icm = flow.canonical.Tqec_canonical.Canonical.icm in
        let l1 = Tqec_baseline.Lin.run Tqec_baseline.Lin.One_d icm in
        let l2 = Tqec_baseline.Lin.run Tqec_baseline.Lin.Two_d icm in
        Printf.printf "baseline [22] 1D: volume %d (%.2fx ours)\n"
          l1.Tqec_baseline.Lin.total_volume
          (float_of_int l1.Tqec_baseline.Lin.total_volume /. float_of_int flow.volume);
        Printf.printf "baseline [22] 2D: volume %d (%.2fx ours)\n"
          l2.Tqec_baseline.Lin.total_volume
          (float_of_int l2.Tqec_baseline.Lin.total_volume /. float_of_int flow.volume)
      end;
      if layout then print_string (Tqec_report.Ascii_layout.render flow);
      (match json with
       | Some path ->
           Tqec_report.Geometry_export.write_file path flow;
           Printf.printf "layout exported to %s\n" path
       | None -> ());
      if trace then prerr_string (Tqec_obs.Trace.to_text flow.trace);
      (match metrics_file with
       | Some path ->
           (match open_out path with
            | oc ->
                output_string oc
                  (Tqec_obs.Json.to_string ~pretty:true
                     (Tqec_core.Flow.metrics_json flow));
                output_char oc '\n';
                close_out oc;
                Printf.printf "metrics exported to %s\n" path
            | exception Sys_error msg ->
                Printf.eprintf "tqec_compress: cannot write metrics: %s\n" msg;
                exit 1)
       | None -> ());
      (* CI gate: an invalid result (overlap, ordering violation, unrouted
         nets) must not exit 0. *)
      if not valid then exit 2

let benchmark =
  Arg.(value & opt (some string) None & info [ "benchmark"; "b" ] ~docv:"NAME"
         ~doc:"Built-in RevLib-style benchmark to compress.")

let real_file =
  Arg.(value & opt (some string) None & info [ "real" ] ~docv:"FILE"
         ~doc:"RevLib .real circuit file to compress.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")

let sa_iterations =
  Arg.(value & opt (some int) None & info [ "sa-iterations" ]
         ~doc:"Simulated-annealing iteration budget for placement.")

let route_iterations =
  Arg.(value & opt (some int) None & info [ "route-iterations" ]
         ~doc:"Maximum rip-up-and-reroute passes.")

let tiers =
  Arg.(value & opt (some int) None & info [ "tiers" ]
         ~doc:"Number of 2.5D tiers (default: heuristic).")

let domains =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains for parallel placement chains (default:
               \\$(b,TQEC_DOMAINS), else 1). Routing is sequential. Results
               are bit-identical for every value.")

let chains =
  Arg.(value & opt int 1 & info [ "chains" ] ~docv:"K"
         ~doc:"Independent multi-start SA placement chains (default 1, the
               single historical chain); the lowest-cost chain wins
               deterministically.")

let no_bridging =
  Arg.(value & flag & info [ "no-bridging" ] ~doc:"Disable iterative bridging (Table V ablation).")

let no_primal_groups =
  Arg.(value & flag & info [ "no-primal-groups" ]
         ~doc:"Disable primal-group clustering (conference-version mode).")

let no_friends =
  Arg.(value & flag & info [ "no-friend-nets" ] ~doc:"Disable friend-net-aware routing.")

let baselines =
  Arg.(value & flag & info [ "baselines" ] ~doc:"Also report the [22] 1D/2D baselines.")

let layout =
  Arg.(value & flag & info [ "layout" ] ~doc:"Dump an ASCII layout of the result.")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Export the placed-and-routed geometry as JSON.")

let trace =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Render the flow's span tree (per-stage timings, counters,
               distributions) to stderr.")

let metrics_file =
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Write machine-readable per-stage metrics (durations, counters,
               full trace) as JSON.")

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persistent stage-artifact cache directory. Stages whose
               content hash (input + configuration + code version) matches a
               stored artifact are loaded instead of recomputed; results are
               bit-identical either way.")

let cmd =
  let doc = "bridge-based compression of topological quantum circuits" in
  Cmd.v
    (Cmd.info "tqec_compress" ~doc)
    Term.(
      const run $ benchmark $ real_file $ seed $ sa_iterations $ route_iterations
      $ tiers $ domains $ chains $ no_bridging $ no_primal_groups $ no_friends
      $ baselines $ layout $ json $ trace $ metrics_file $ cache_dir)

let () = exit (Cmd.eval cmd)
