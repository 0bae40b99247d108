(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, or with --json the per-benchmark baseline that
   `make perf` and `make cache` gate (BENCH_*.json).

   Flags (an unknown value is rejected, exit 2):
     --effort fast|normal|full   quality-vs-time budgets (effort.mli),
                                 default normal
     --only name1,name2          restrict to a benchmark subset
     --json                      print the JSON baseline instead of tables
     --cache-dir DIR             --json: add cold/warm/reroute cache runs
                                 (rejected without --json) *)

module Flow = Tqec_core.Flow
module Stats = Tqec_icm.Stats
module Benchmarks = Tqec_circuit.Benchmarks
module Table = Tqec_report.Table
module Lin = Tqec_baseline.Lin
module Effort = Tqec_report.Effort

let seed = 42

let efforts = [ ("fast", Effort.Fast); ("normal", Effort.Normal); ("full", Effort.Full) ]

(* Set once from the command line, before any table or run reads them. *)
let effort = ref Effort.Normal
let only = ref None
let json = ref false
let cache_dir = ref None

let effort_name () = fst (List.find (fun (_, l) -> l = !effort) efforts)

let selected_specs () =
  match !only with
  | None -> Benchmarks.all
  | Some wanted -> List.filter (fun s -> List.mem s.Benchmarks.name wanted) Benchmarks.all

(* The flow-based tables (II-VI) run three full compressions per benchmark;
   the statistics table (I) is cheap and always covers the whole suite. The
   effort level bounds which benchmarks get the full treatment so a normal
   run finishes in minutes -- --effort full covers all eight. *)
let flow_gate_budget () =
  match !effort with
  | Effort.Fast -> 400
  | Effort.Normal -> 1000
  | Effort.Full -> max_int

let icm_gates spec = (55 * spec.Benchmarks.toffolis) + spec.Benchmarks.cnots

let flow_specs () =
  List.filter (fun s -> icm_gates s <= flow_gate_budget ()) (selected_specs ())

(* ------------------------------------------------------------------ *)
(* Cached per-benchmark artifacts                                      *)
(* ------------------------------------------------------------------ *)

type prep = {
  spec : Benchmarks.spec;
  circuit : Tqec_circuit.Circuit.t;
  stats : Stats.t;
  icm : Tqec_icm.Icm.t;
  modular : Tqec_modular.Modular.t;
}

let prepare spec =
  let circuit = Benchmarks.generate ~seed spec in
  let stats = Stats.of_circuit circuit in
  let icm = Tqec_icm.Icm.of_circuit (Tqec_circuit.Decompose.circuit circuit) in
  let modular = Tqec_modular.Modular.of_icm icm in
  { spec; circuit; stats; icm; modular }

let preps = lazy (List.map prepare (selected_specs ()))

let flow_preps = lazy (List.map prepare (flow_specs ()))

let options_for prep = Effort.options_for ~level:!effort ~gates:prep.stats.Stats.cnots

let compress ?cache prep what options =
  Printf.eprintf "[bench] compressing %s (%s)...\n%!" prep.spec.Benchmarks.name what;
  Flow.run ~options ?cache prep.circuit

type flows = {
  ours : Flow.t;
  no_bridge : Flow.t;
  conference : Flow.t;
}

let flow_cache : (string, flows) Hashtbl.t = Hashtbl.create 8

let flows_of prep =
  match Hashtbl.find_opt flow_cache prep.spec.Benchmarks.name with
  | Some f -> f
  | None ->
      let options = options_for prep in
      let ours = compress prep "ours" options in
      let no_bridge =
        compress prep "w/o bridging" { options with Flow.bridging = false }
      in
      let conference =
        compress prep "conference mode" { options with Flow.primal_groups = false }
      in
      let f = { ours; no_bridge; conference } in
      Hashtbl.replace flow_cache prep.spec.Benchmarks.name f;
      f

let section name title =
  Printf.printf "\n================ %s: %s ================\n\n" name title

let ratio num den = Table.fmt_ratio (float_of_int num /. float_of_int (max 1 den))

(* ------------------------------------------------------------------ *)
(* Table I — benchmark statistics                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "table1" "benchmark statistics (paper Table I)";
  let rows =
    List.map
      (fun prep ->
        let s = prep.stats in
        let bridge = Tqec_bridge.Bridge.run prep.modular in
        let cluster = Tqec_place.Cluster.build prep.modular in
        [ s.Stats.name;
          string_of_int s.Stats.qubits_o;
          string_of_int s.Stats.gates_o;
          string_of_int s.Stats.qubits_d;
          string_of_int s.Stats.cnots;
          string_of_int s.Stats.n_y;
          string_of_int s.Stats.n_a;
          string_of_int s.Stats.vol_y;
          string_of_int s.Stats.vol_a;
          string_of_int (Tqec_modular.Modular.num_modules prep.modular);
          string_of_int (List.length bridge.Tqec_bridge.Bridge.nets);
          string_of_int (Tqec_place.Cluster.num_clusters cluster) ])
      (Lazy.force preps)
  in
  Table.print
    ~header:
      [ "Benchmark"; "#Qubits_o"; "#Gates"; "#Qubits_d"; "#CNOTs"; "#|Y>"; "#|A>";
        "Vol_Y"; "Vol_A"; "#Modules"; "#Nets"; "#Nodes" ]
    rows;
  print_endline
    "(paper #Nets/#Nodes depend on instance-specific bridging/clustering;\n\
    \ all other columns reproduce Table I exactly - see EXPERIMENTS.md)"

(* ------------------------------------------------------------------ *)
(* Tables II & IV — volumes and dimensions per method                   *)
(* ------------------------------------------------------------------ *)

let table2_and_4 () =
  section "table2" "space-time volume comparison (paper Table II)";
  let results =
    List.map
      (fun prep ->
        let canonical = Tqec_canonical.Canonical.of_icm prep.icm in
        let lin1 = Lin.run Lin.One_d prep.icm in
        let lin2 = Lin.run Lin.Two_d prep.icm in
        let f = flows_of prep in
        (prep, canonical, lin1, lin2, f.ours))
      (Lazy.force flow_preps)
  in
  let rows =
    List.map
      (fun (prep, canonical, lin1, lin2, ours) ->
        let vol_c = Tqec_canonical.Canonical.total_volume canonical in
        [ prep.spec.Benchmarks.name;
          Table.fmt_int vol_c;
          ratio vol_c ours.Flow.volume;
          Table.fmt_int lin1.Lin.total_volume;
          ratio lin1.Lin.total_volume ours.Flow.volume;
          Table.fmt_int lin2.Lin.total_volume;
          ratio lin2.Lin.total_volume ours.Flow.volume;
          Table.fmt_int ours.Flow.volume;
          "1.000";
          Table.fmt_time ours.Flow.breakdown.Flow.t_total ])
      results
  in
  Table.print
    ~header:
      [ "Benchmark"; "Canonical"; "Ratio"; "[22](1D)"; "Ratio"; "[22](2D)"; "Ratio";
        "Ours"; "Ratio"; "Runtime(s)" ]
    rows;
  let avg f =
    let xs = List.map f results in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
  in
  Printf.printf "Avg ratio: canonical %.3f, [22]1D %.3f, [22]2D %.3f, ours 1.000\n"
    (avg (fun (_, c, _, _, o) ->
         float_of_int (Tqec_canonical.Canonical.total_volume c)
         /. float_of_int o.Flow.volume))
    (avg (fun (_, _, l1, _, o) ->
         float_of_int l1.Lin.total_volume /. float_of_int o.Flow.volume))
    (avg (fun (_, _, _, l2, o) ->
         float_of_int l2.Lin.total_volume /. float_of_int o.Flow.volume));
  Printf.printf "(paper: 12.351, 7.249, 6.657, 1.000)\n";

  section "table4" "dimensions of the resulting circuits (paper Table IV)";
  let dim_rows =
    List.map
      (fun (prep, canonical, lin1, lin2, ours) ->
        let cw, ch, cd = Tqec_canonical.Canonical.dims canonical in
        let w, h, d = ours.Flow.dims in
        [ prep.spec.Benchmarks.name;
          Printf.sprintf "%dx%dx%d" cw ch cd;
          Printf.sprintf "%dx%dx%d" lin1.Lin.width lin1.Lin.height lin1.Lin.depth;
          Printf.sprintf "%dx%dx%d" lin2.Lin.width lin2.Lin.height lin2.Lin.depth;
          Printf.sprintf "%dx%dx%d" w h d;
          Table.fmt_int ours.Flow.volume ])
      results
  in
  Table.print
    ~header:[ "Benchmark"; "Canonical WxHxD"; "[22]1D"; "[22]2D"; "Ours WxHxD"; "Vol" ]
    dim_rows

(* ------------------------------------------------------------------ *)
(* Table III — journal vs conference version                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "table3" "conference version [36] vs ours (paper Table III)";
  let rows =
    List.map
      (fun prep ->
        let f = flows_of prep in
        [ prep.spec.Benchmarks.name;
          Table.fmt_int f.conference.Flow.volume;
          ratio f.conference.Flow.volume f.ours.Flow.volume;
          Table.fmt_time f.conference.Flow.breakdown.Flow.t_total;
          Table.fmt_int f.ours.Flow.volume;
          "1.000";
          Table.fmt_time f.ours.Flow.breakdown.Flow.t_total;
          string_of_int (Flow.num_nodes f.conference);
          string_of_int (Flow.num_nodes f.ours) ])
      (Lazy.force flow_preps)
  in
  Table.print
    ~header:
      [ "Benchmark"; "Conf vol"; "Ratio"; "Conf t(s)"; "Ours vol"; "Ratio"; "Ours t(s)";
        "Conf nodes"; "Ours nodes" ]
    rows;
  print_endline "(paper avg ratio 1.104: primal-group clustering buys ~10%)"

(* ------------------------------------------------------------------ *)
(* Table V — bridging ablation                                          *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "table5" "solution quality w/o and w/ iterative bridging (paper Table V)";
  let rows =
    List.map
      (fun prep ->
        let f = flows_of prep in
        [ prep.spec.Benchmarks.name;
          Table.fmt_int f.no_bridge.Flow.volume;
          ratio f.no_bridge.Flow.volume f.ours.Flow.volume;
          Table.fmt_time f.no_bridge.Flow.breakdown.Flow.t_total;
          Table.fmt_int f.ours.Flow.volume;
          Table.fmt_time f.ours.Flow.breakdown.Flow.t_total;
          string_of_int (Flow.num_nets f.no_bridge);
          string_of_int (Flow.num_nets f.ours) ])
      (Lazy.force flow_preps)
  in
  Table.print
    ~header:
      [ "Benchmark"; "W/o vol"; "Ratio"; "W/o t(s)"; "W/ vol"; "W/ t(s)"; "W/o nets";
        "W/ nets" ]
    rows;
  print_endline "(paper: bridging reduces volume 1.41x on average and speeds the flow up)"

(* ------------------------------------------------------------------ *)
(* Table VI — runtime breakdown                                         *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "table6" "runtime breakdown (paper Table VI)";
  let rows =
    List.map
      (fun prep ->
        let f = (flows_of prep).ours in
        let b = f.Flow.breakdown in
        let pct part = Printf.sprintf "%.1f%%" (100.0 *. part /. max 1e-9 b.Flow.t_total) in
        let other =
          b.Flow.t_total -. b.Flow.t_bridging -. b.Flow.t_placement -. b.Flow.t_routing
        in
        [ prep.spec.Benchmarks.name;
          Table.fmt_time b.Flow.t_bridging;
          pct b.Flow.t_bridging;
          Table.fmt_time b.Flow.t_placement;
          pct b.Flow.t_placement;
          Table.fmt_time b.Flow.t_routing;
          pct b.Flow.t_routing;
          Table.fmt_time other;
          pct other;
          Table.fmt_time b.Flow.t_total;
          Printf.sprintf "%d/%d"
            f.Flow.routing.Tqec_route.Router.routed_first_iteration
            (Flow.num_nets f) ])
      (Lazy.force flow_preps)
  in
  Table.print
    ~header:
      [ "Benchmark"; "Bridge(s)"; "%"; "Place(s)"; "%"; "Route(s)"; "%"; "Other(s)";
        "%"; "Total(s)"; "1st-pass routed" ]
    rows;
  print_endline
    "(paper: bridging ~1%, placement ~67%, routing ~32%; 85-95% nets route in pass 1)"

(* ------------------------------------------------------------------ *)
(* Per-stage observability counters (tqec_obs traces)                   *)
(* ------------------------------------------------------------------ *)

let table_metrics () =
  section "metrics" "per-stage counters from the flow traces (tqec_obs)";
  let rows =
    List.map
      (fun prep ->
        let f = (flows_of prep).ours in
        let c = Flow.stage_counter f in
        [ prep.spec.Benchmarks.name;
          string_of_int (c "bridging" "merge_attempts");
          string_of_int (c "bridging" "merges");
          string_of_int (c "placement" "sa_accepted");
          string_of_int (c "placement" "sa_rejected");
          Table.fmt_int (c "routing" "astar_expansions");
          Table.fmt_int (c "routing" "heap_pushes");
          string_of_int (c "routing" "ripup_passes");
          string_of_int (c "routing" "nets_ripped");
          Printf.sprintf "%d/%d" (c "routing" "routed_first_pass") (Flow.num_nets f) ])
      (Lazy.force flow_preps)
  in
  Table.print
    ~header:
      [ "Benchmark"; "Br att"; "Br mrg"; "SA acc"; "SA rej"; "A* exp"; "Heap push";
        "Ripup"; "Ripped"; "1st-pass" ]
    rows;
  print_endline
    "(counters feed perf work: the accepted-move ratio tunes SA budgets, and\n\
    \ expansion/rip-up totals locate routing hot spots; tqec_compress\n\
    \ --metrics-json exports the same data per run)"

(* ------------------------------------------------------------------ *)
(* Figures                                                              *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "fig5" "motivating example: canonical 54 -> compressed (paper Fig. 4/5)";
  let circuit =
    Tqec_circuit.Circuit.make ~name:"fig4" ~num_qubits:3
      [ Tqec_circuit.Gate.Cnot { control = 0; target = 1 };
        Tqec_circuit.Gate.Cnot { control = 1; target = 2 };
        Tqec_circuit.Gate.Cnot { control = 0; target = 2 } ]
  in
  let icm = Tqec_icm.Icm.of_circuit circuit in
  let canonical = Tqec_canonical.Canonical.of_icm icm in
  Printf.printf "canonical volume: %d (paper: 54 = 9x3x2)\n"
    (Tqec_canonical.Canonical.volume canonical);
  Printf.printf
    "paper: 32 after topological deformation only, 18 after bridge compression\n";
  let options =
    Flow.scale_options ~sa_iterations:8000
      { Flow.default_options with
        Flow.place =
          { Tqec_place.Place25d.default_config with Tqec_place.Place25d.tiers = Some 2 } }
  in
  let flow = Flow.run ~options circuit in
  let w, h, d = flow.Flow.dims in
  Printf.printf
    "automated flow: %dx%dx%d = %d (module-granular flow carries overhead at this\n\
     scale; the compression shape appears from Table II's benchmarks onwards)\n"
    w h d flow.Flow.volume

let fig6_7 () =
  section "fig6_7" "distillation boxes (paper Fig. 6/7)";
  Printf.printf "|Y> state distillation box: 3x3x2 = %d (paper: 18)\n" Stats.y_box_volume;
  Printf.printf "|A> state distillation box: 16x6x2 = %d (paper: 192)\n" Stats.a_box_volume

let fig8 () =
  section "fig8" "time-ordered measurement constraints (paper Fig. 8)";
  let circuit =
    Tqec_circuit.Circuit.make ~name:"fig8" ~num_qubits:2
      [ Tqec_circuit.Gate.T 0; Tqec_circuit.Gate.T 0; Tqec_circuit.Gate.T 1 ]
  in
  let icm = Tqec_icm.Icm.of_circuit circuit in
  Printf.printf "gadgets: %d; ordering edges (selective groups): %s\n"
    (Array.length icm.Tqec_icm.Icm.gadgets)
    (String.concat ", "
       (List.map
          (fun (a, b) -> Printf.sprintf "%d<%d" a b)
          (Tqec_icm.Icm.ordering_edges icm)));
  let flow =
    Flow.run ~options:(Flow.scale_options ~sa_iterations:6000 Flow.default_options)
      circuit
  in
  (match Tqec_place.Place25d.check_time_ordering flow.Flow.placement with
   | Ok () -> print_endline "placement satisfies all TSL orderings"
   | Error e -> Printf.printf "ORDERING VIOLATION: %s\n" e);
  Array.iteri
    (fun q tsl ->
      if List.length tsl >= 2 then begin
        Printf.printf "qubit %d T-super x-positions:" q;
        List.iter
          (fun cid ->
            Printf.printf " %d"
              flow.Flow.placement.Tqec_place.Place25d.cluster_pos.(cid)
                .Tqec_geom.Point3.x)
          tsl;
        print_newline ()
      end)
    flow.Flow.cluster.Tqec_place.Cluster.tsl

let fig9 () =
  section "fig9" "modularization + bridging worked example (paper Fig. 9/14-16)";
  let circuit =
    Tqec_circuit.Circuit.make ~name:"fig9" ~num_qubits:3
      [ Tqec_circuit.Gate.Cnot { control = 0; target = 1 };
        Tqec_circuit.Gate.Cnot { control = 1; target = 2 };
        Tqec_circuit.Gate.Cnot { control = 0; target = 2 } ]
  in
  let icm = Tqec_icm.Icm.of_circuit circuit in
  let modular = Tqec_modular.Modular.of_icm icm in
  Printf.printf "modules: %d (paper: 6), naive nets: %d (paper: 9)\n"
    (Tqec_modular.Modular.num_modules modular)
    (List.length (Tqec_bridge.Bridge.naive_nets modular));
  let bridge = Tqec_bridge.Bridge.run modular in
  Printf.printf "after bridging: %d structure(s) covering loops %s; %d nets (paper: 8)\n"
    (List.length bridge.Tqec_bridge.Bridge.structures)
    (String.concat " "
       (List.map
          (fun s ->
            "{" ^ String.concat "," (List.map string_of_int s.Tqec_bridge.Bridge.loops)
            ^ "}")
          bridge.Tqec_bridge.Bridge.structures))
    (List.length bridge.Tqec_bridge.Bridge.nets)

let fig20 () =
  section "fig20" "layout visualization (paper Fig. 20)";
  match Lazy.force flow_preps with
  | [] -> print_endline "(no benchmarks selected)"
  | prep :: _ ->
      let f = (flows_of prep).ours in
      Printf.printf "%s, two slices of the compressed layout:\n\n"
        prep.spec.Benchmarks.name;
      print_string (Tqec_report.Ascii_layout.render ~max_slices:2 f)

(* ------------------------------------------------------------------ *)
(* --json: machine-readable per-benchmark baseline (BENCH_*.json)       *)
(* ------------------------------------------------------------------ *)

(* Volumes are deterministic (fixed seed) and act as the behavior-
   preservation contract checked by `tqec_gate perf`; rates and times vary
   with the machine and are informational.

   Schema v3 adds the stage-cache contract, exercised when --cache-dir
   is given: each benchmark runs cold (populating the cache), warm (expected
   to hit the three cached stages; preprocess is never cached) and once
   more with only the routing config changed (expected to reuse the
   bridging and placement artifacts). The new
   per-benchmark fields record both hit/miss counters and [volume_warm],
   which must equal [volume] — the bit-identity contract `tqec_gate cache`
   gates on. All cache fields are zero without --cache-dir.

   Schema v6 adds validity, gated by `tqec_gate perf` and `tqec_gate
   cache`: per benchmark [unrouted] and the verdicts of Flow.validate
   ([validate]) and of the Verify oracle ([oracle]), each "ok" or the first
   error; the same three prefixed [cold_]/[warm_] for cached runs. It drops
   [spliced_reroutes].

   Schema v7 drops the parallel-execution telemetry schema v2 added: the
   top-level [domains] and [pool_tasks_per_worker], and per benchmark
   [sa_chains] and [sa_moves_per_chain]. Placement is one anneal and
   routing one negotiation loop, so the run does the same work at every
   pool size. *)

let validity_fields prefix (f : Flow.t) =
  let module Json = Tqec_obs.Json in
  let module Verify = Tqec_verify.Verify in
  let oracle = Verify.verify (Tqec_fuzzing.Props.verify_input_of_flow f) in
  [ (prefix ^ "unrouted",
     Json.Int (List.length f.Flow.routing.Tqec_route.Router.failed));
    (prefix ^ "validate",
     Json.String (match Flow.validate f with Ok () -> "ok" | Error e -> e));
    (prefix ^ "oracle",
     Json.String (Option.value ~default:"ok" (Verify.first_error oracle))) ]

type cache_runs = {
  cold_misses : int;
  warm_hits : int;
  warm_misses : int;
  volume_warm : int;
  t_warm_total : float;
  reroute_hits : int;
  reroute_misses : int;
  validity : (string * Tqec_obs.Json.t) list;  (* cold_ and warm_ verdicts *)
}

let no_cache_runs =
  { cold_misses = 0; warm_hits = 0; warm_misses = 0; volume_warm = 0;
    t_warm_total = 0.0; reroute_hits = 0; reroute_misses = 0; validity = [] }

(* Each run opens its own store on [dir], as a separate
   [tqec_compress --cache-dir] process would, so the warm and reroute runs
   hit by reading, parsing and decoding the entries on disk under keys
   rebuilt from a recomputed [modular], never from the cold run's memory. *)
let cache_runs_of dir prep =
  let options = options_for prep in
  let run what options =
    compress ~cache:(Tqec_artifact.Store.create ~dir ()) prep what options
  in
  let cold = run "cold, caching" options in
  let _, cold_misses, _ = Flow.cache_stats cold in
  let warm = run "warm" options in
  let warm_hits, warm_misses, _ = Flow.cache_stats warm in
  let reroute_options =
    { options with
      Flow.route =
        { options.Flow.route with
          Tqec_route.Router.region_margin =
            options.Flow.route.Tqec_route.Router.region_margin + 1 } }
  in
  let reroute = run "reroute only" reroute_options in
  let reroute_hits, reroute_misses, _ = Flow.cache_stats reroute in
  { cold_misses;
    warm_hits;
    warm_misses;
    volume_warm = warm.Flow.volume;
    t_warm_total = warm.Flow.breakdown.Flow.t_total;
    reroute_hits;
    reroute_misses;
    validity = validity_fields "cold_" cold @ validity_fields "warm_" warm }

let json_mode () =
  let module Json = Tqec_obs.Json in
  let per_sec n t = if t > 0.0 then float_of_int n /. t else 0.0 in
  let benches =
    List.map
      (fun prep ->
        (* Only the flow this mode reports: the ablation flows feed tables. *)
        let f = compress prep "ours" (options_for prep) in
        let b = f.Flow.breakdown in
        let sa_moves = Flow.stage_counter f "placement" "sa_moves" in
        let expansions = Flow.stage_counter f "routing" "astar_expansions" in
        let c =
          match !cache_dir with
          | Some dir -> cache_runs_of dir prep
          | None -> no_cache_runs
        in
        Json.Obj
          ([ ("name", Json.String prep.spec.Benchmarks.name);
             ("volume", Json.Int f.Flow.volume) ]
           @ validity_fields "" f
           @ [ ("t_bridging", Json.Float b.Flow.t_bridging);
               ("t_placement", Json.Float b.Flow.t_placement);
               ("t_routing", Json.Float b.Flow.t_routing);
               ("sa_moves", Json.Int sa_moves);
               ("sa_moves_per_sec", Json.Float (per_sec sa_moves b.Flow.t_placement));
               ("astar_expansions", Json.Int expansions);
               ("heap_pushes", Json.Int (Flow.stage_counter f "routing" "heap_pushes"));
               ("astar_expansions_per_sec",
                Json.Float (per_sec expansions b.Flow.t_routing));
               ("total_ripped", Json.Int (Flow.stage_counter f "routing" "nets_ripped"));
               ("passes", Json.Int (Flow.stage_counter f "routing" "ripup_passes"));
               ("bidir_searches",
                Json.Int (Flow.stage_counter f "routing" "bidir_searches"));
               ("cold_cache_misses", Json.Int c.cold_misses);
               ("cache_hits", Json.Int c.warm_hits);
               ("cache_misses", Json.Int c.warm_misses);
               ("volume_warm", Json.Int c.volume_warm);
               ("t_warm_total", Json.Float c.t_warm_total);
               ("reroute_cache_hits", Json.Int c.reroute_hits);
               ("reroute_cache_misses", Json.Int c.reroute_misses) ]
           @ c.validity))
      (Lazy.force flow_preps)
  in
  print_endline
    (Json.to_string ~pretty:true
       (Json.Obj
          [ ("schema_version", Json.Int 7);
            ("effort", Json.String (effort_name ()));
            ("seed", Json.Int seed);
            ("cache", Json.Bool (Option.is_some !cache_dir));
            ("benchmarks", Json.List benches) ]))

let parse_only names =
  let wanted = String.split_on_char ',' names in
  List.iter
    (fun name ->
      if Option.is_none (Benchmarks.find name) then
        raise
          (Arg.Bad
             (Printf.sprintf "--only: unknown benchmark %S (known: %s)" name
                (String.concat ", "
                   (List.map (fun s -> s.Benchmarks.name) Benchmarks.all)))))
    wanted;
  only := Some wanted

(* Only --json runs cached flows; the tables would silently ignore the
   directory. Checked against the whole command line, so the two flags may
   come in either order, and rejected through Arg.parse (exit 2). *)
let set_cache_dir dir =
  if not (Array.exists (String.equal "--json") Sys.argv) then
    raise (Arg.Bad "--cache-dir needs --json: only the JSON baseline runs cached flows");
  cache_dir := Some dir

let () =
  Arg.parse
    (Arg.align
    [ ("--effort",
       Arg.Symbol (List.map fst efforts, fun name -> effort := List.assoc name efforts),
       " quality-vs-time budgets (default normal)");
      ("--only", Arg.String parse_only, "NAMES comma-separated benchmark subset");
      ("--json", Arg.Set json, " print the per-benchmark JSON baseline");
      ("--cache-dir", Arg.String set_cache_dir,
       "DIR with --json, add cold/warm/reroute runs over an on-disk cache") ])
    (fun arg -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" arg)))
    "main.exe [--effort LEVEL] [--only NAMES] [--json [--cache-dir DIR]]";
  if !json then json_mode ()
  else begin
    Printf.printf "tqec bench harness (effort=%s, seed=%d)\n" (effort_name ()) seed;
    table1 ();
    Printf.printf
      "\n(flow-based tables below cover the %d benchmark(s) within the %s effort\n\
      \ budget; pass --effort full to compress all eight)\n"
      (List.length (flow_specs ()))
      (effort_name ());
    table2_and_4 ();
    table3 ();
    table5 ();
    table6 ();
    table_metrics ();
    fig5 ();
    fig6_7 ();
    fig8 ();
    fig9 ();
    fig20 ();
    print_endline "\nbench: done"
  end
