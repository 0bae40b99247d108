(* One JSON gate over the machine-readable outputs `make check` produces:

     tqec_gate metrics FILE
         a --metrics-json file parses and carries the fields CI gates on;
     tqec_gate perf BASELINE.json CURRENT.json [CURRENT2.json ...]
         fresh `bench/main.exe --json` runs against a committed baseline
         (BENCH_pr8.json): volumes exact, expansions / rip-ups / passes
         bounded;
     tqec_gate cache FILE
         a `bench/main.exe --json` run made with TQEC_CACHE_DIR set keeps
         the stage-cache contract.

   Every gate prints one summary line on stdout and exits 0 when it holds;
   any violation, unreadable input or bad usage is reported on stderr and
   exits 1. *)

module Json = Tqec_obs.Json

(* Prefix of every line this tool prints: "tqec_gate <gate>". *)
let tool =
  if Array.length Sys.argv > 1 then "tqec_gate " ^ Sys.argv.(1) else "tqec_gate"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (tool ^ ": " ^ s);
      exit 1)
    fmt

(* A non-fatal violation: reported on stderr and counted, so a gate lists
   every failure before it exits. *)
let violation count fmt =
  Printf.ksprintf
    (fun s ->
      incr count;
      prerr_endline (tool ^ ": " ^ s))
    fmt

let read_json file =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  match Json.of_string contents with
  | Error msg -> fail "%s does not parse as JSON: %s" file msg
  | Ok json -> json

(* The named entries of a bench --json document's "benchmarks" list. *)
let benchmarks file json =
  match Json.member "benchmarks" json with
  | Some (Json.List bs) ->
      List.map
        (fun b ->
          match Json.member "name" b with
          | Some (Json.String n) -> (n, b)
          | Some _ | None -> fail "%s: benchmark entry without a name" file)
        bs
  | Some _ | None -> fail "%s has no \"benchmarks\" list" file

let int_field file name b key =
  match Json.member key b with
  | Some (Json.Int v) -> v
  | Some _ | None -> fail "%s: benchmark %s lacks integer field %s" file name key

(* ---------------------------------------------------------------- metrics *)

let metrics_schema_version = 2

let metrics_required_paths =
  [ [ "schema_version" ];
    [ "circuit" ];
    [ "volume" ];
    [ "cache"; "hits" ];
    [ "cache"; "misses" ];
    [ "cache"; "stores" ];
    [ "cache"; "hit_rate" ];
    [ "stage_durations_s"; "preprocess" ];
    [ "stage_durations_s"; "bridging" ];
    [ "stage_durations_s"; "placement" ];
    [ "stage_durations_s"; "routing" ];
    [ "counters"; "placement/sa_accepted" ];
    [ "counters"; "placement/sa_rejected" ];
    [ "counters"; "routing/astar_expansions" ];
    [ "counters"; "routing/ripup_passes" ];
    [ "counters"; "bridging/merges" ];
    [ "trace"; "name" ] ]

let metrics file =
  let json = read_json file in
  (match Json.path [ "schema_version" ] json with
   | Some (Json.Int v) when v = metrics_schema_version -> ()
   | Some (Json.Int v) ->
       fail "%s has schema_version %d, expected %d" file v metrics_schema_version
   | Some _ -> fail "%s schema_version is not an integer" file
   | None -> fail "%s is missing schema_version" file);
  List.iter
    (fun p ->
      match Json.path p json with
      | Some _ -> ()
      | None -> fail "%s is missing required field %s" file (String.concat "." p))
    metrics_required_paths;
  Printf.printf "%s: %s ok (schema v%d, %d required fields present)\n" tool file
    metrics_schema_version
    (List.length metrics_required_paths)

(* ------------------------------------------------------------------- perf *)

(* Space-time volumes are deterministic for a fixed seed and must match the
   baseline exactly — a drift means the perf work changed behavior. Several
   current files may be given (e.g. one run at TQEC_DOMAINS=1 and one at
   TQEC_DOMAINS=4); each is held to the same exact-volume contract, which
   also pins them bit-identical to each other — the determinism guarantee
   of the parallel pipeline. A* expansion counts are equally deterministic
   and, since routing is sequential, independent of the domain count: no
   run may expand more nodes than the baseline — the search-efficiency
   regression gate. Times and rates are machine-dependent and reported
   informationally. *)

(* Schema-v5 fields; absent from older baselines, in which case the
   corresponding gate is skipped. *)
let opt_int_field b key =
  match Json.member key b with Some (Json.Int v) -> Some v | _ -> None

let float_field b key =
  match Json.member key b with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | Some _ | None -> 0.0

let check_current ~baseline_file ~baseline ~drifted current_file =
  let json = read_json current_file in
  let current = benchmarks current_file json in
  let domains =
    match Json.member "domains" json with Some (Json.Int d) -> d | _ -> 1
  in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name current with
      | None -> fail "benchmark %s missing from %s" name current_file
      | Some c ->
          let vb = int_field baseline_file name b "volume" in
          let vc = int_field current_file name c "volume" in
          if vb <> vc then
            violation drifted
              "VOLUME DRIFT on %s (%s, domains=%d): baseline %d, current %d"
              name current_file domains vb vc;
          let eb = int_field baseline_file name b "astar_expansions" in
          let ec = int_field current_file name c "astar_expansions" in
          if ec > eb then
            violation drifted
              "EXPANSION REGRESSION on %s (%s, domains=%d): baseline %d, \
               current %d"
              name current_file domains eb ec;
          (* Total routing work of the negotiation schedule: the rip-up
             count and the pass count are as deterministic as the volume,
             and creeping either up is how expansion wins quietly rot —
             more (cheaper) searches, more passes. Gate both against the
             baseline when it records them. *)
          List.iter
            (fun key ->
              match (opt_int_field b key, opt_int_field c key) with
              | Some vb, Some vc when vc > vb ->
                  violation drifted
                    "%s REGRESSION on %s (%s, domains=%d): baseline %d, \
                     current %d"
                    (String.uppercase_ascii key) name current_file domains vb vc
              | Some _, None ->
                  violation drifted
                    "%s missing from %s (benchmark %s) but present in the \
                     baseline"
                    key current_file name
              | _ -> ())
            [ "total_ripped"; "passes" ];
          let rate key =
            let rb = float_field b key and rc = float_field c key in
            if rb > 0.0 then Printf.sprintf "%.2fx" (rc /. rb) else "n/a"
          in
          Printf.printf
            "%-16s domains=%d volume %d ok; sa_moves/s %.0f (%s vs baseline); \
             a*_exp/s %.0f (%s vs baseline)\n"
            name domains vc
            (float_field c "sa_moves_per_sec")
            (rate "sa_moves_per_sec")
            (float_field c "astar_expansions_per_sec")
            (rate "astar_expansions_per_sec"))
    baseline

let perf baseline_file current_files =
  let baseline = benchmarks baseline_file (read_json baseline_file) in
  let drifted = ref 0 in
  List.iter (check_current ~baseline_file ~baseline ~drifted) current_files;
  if !drifted > 0 then
    fail "%d benchmark gate(s) failed against the baseline" !drifted;
  Printf.printf
    "%s: %d benchmark(s) match %s (volumes exact; expansions, rip-ups and \
     passes bounded) across %d run(s)\n"
    tool (List.length baseline) baseline_file
    (List.length current_files)

(* ------------------------------------------------------------------ cache *)

(* The stage-cache contract of a bench --json run made with TQEC_CACHE_DIR
   set (schema v3):

     - cold run misses and populates all four stages;
     - warm run hits all four stages and recomputes nothing;
     - warm volume is bit-identical to the cold volume;
     - a routing-config-only change reuses the first three stage artifacts
       (3 hits) and recomputes exactly the routing stage (1 miss). *)

let stages = 4

let check_benchmark ~file failed (name, b) =
  let field = int_field file name b in
  let expect key want =
    let got = field key in
    if got <> want then violation failed "%s: %s = %d, expected %d" name key got want
  in
  expect "cold_cache_misses" stages;
  expect "cache_hits" stages;
  expect "cache_misses" 0;
  expect "volume_warm" (field "volume");
  expect "reroute_cache_hits" (stages - 1);
  expect "reroute_cache_misses" 1;
  Printf.printf
    "%-16s cold misses %d, warm hits %d, reroute hits/misses %d/%d, warm volume %d ok\n"
    name (field "cold_cache_misses") (field "cache_hits")
    (field "reroute_cache_hits")
    (field "reroute_cache_misses")
    (field "volume_warm")

let cache file =
  let json = read_json file in
  (match Json.member "cache" json with
   | Some (Json.Bool true) -> ()
   | Some _ | None ->
       fail "%s was not produced with TQEC_CACHE_DIR set (cache != true)" file);
  let benches = benchmarks file json in
  if benches = [] then fail "%s has an empty benchmark list" file;
  let failed = ref 0 in
  List.iter (check_benchmark ~file failed) benches;
  if !failed > 0 then fail "%d cache-contract violation(s)" !failed;
  Printf.printf "%s: %s ok (%d benchmark(s), %d stages each)\n" tool file
    (List.length benches) stages

let () =
  match Array.to_list Sys.argv with
  | [ _; "metrics"; file ] -> metrics file
  | _ :: "perf" :: baseline :: (_ :: _ as currents) -> perf baseline currents
  | [ _; "cache"; file ] -> cache file
  | _ ->
      fail
        "usage: tqec_gate metrics FILE | perf BASELINE.json CURRENT.json \
         [CURRENT2.json ...] | cache FILE"
