(* One JSON gate over the machine-readable outputs `make check` produces:

     tqec_gate metrics FILE
         a --metrics-json file parses and carries the fields CI gates on;
     tqec_gate perf BASELINE.json CURRENT.json
         a fresh `bench/main.exe --json` run against a committed baseline
         (BENCH_pr23.json): every layout valid, volumes exact, expansions /
         rip-ups / passes bounded;
     tqec_gate cache FILE
         a `bench/main.exe --json --cache-dir DIR` run keeps
         the stage-cache contract, with valid cold and warm layouts.

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

(* The word a per-benchmark summary line ends on: "ok" only when no
   violation was counted since [before]. *)
let status count before = if !count = before then "ok" else "FAILED"

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

(* --------------------------------------------------------------- validity *)

(* A perf or cache figure of an invalid layout measures the wrong thing, so
   both gates hold every run they are given to the bench --json validity
   fields (schema v6): [<prefix>unrouted] must be 0 and both referees'
   verdicts, [<prefix>validate] (Flow.validate) and [<prefix>oracle] (the
   independent Verify oracle), must read "ok". A missing field is a
   violation too: a file that cannot show its layouts are valid fails. *)
let check_valid ~file count ~prefix (name, b) =
  List.iter
    (fun (key, want) ->
      match Json.member (prefix ^ key) b with
      | Some v when Json.equal v want -> ()
      | Some v ->
          violation count "INVALID LAYOUT on %s (%s): %s%s = %s" name file prefix
            key (Json.to_string v)
      | None -> violation count "%s: benchmark %s lacks field %s%s" file name prefix key)
    [ ("unrouted", Json.Int 0); ("validate", Json.String "ok");
      ("oracle", Json.String "ok") ]

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

(* Every layout, the baseline's included, must be valid (above).
   Space-time volumes are deterministic for a fixed seed and must match the
   baseline exactly — a drift means the perf work changed behavior. A*
   expansion counts are equally deterministic: the run may not expand more
   nodes than the baseline — the search-efficiency regression gate. Times
   and rates are machine-dependent and reported informationally. *)

let float_field b key =
  match Json.member key b with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | Some _ | None -> 0.0

let perf baseline_file current_file =
  let baseline = benchmarks baseline_file (read_json baseline_file) in
  let current = benchmarks current_file (read_json current_file) in
  let drifted = ref 0 in
  List.iter (check_valid ~file:baseline_file drifted ~prefix:"") baseline;
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name current with
      | None -> fail "benchmark %s missing from %s" name current_file
      | Some c ->
          let before = !drifted in
          check_valid ~file:current_file drifted ~prefix:"" (name, c);
          let vb = int_field baseline_file name b "volume" in
          let vc = int_field current_file name c "volume" in
          if vb <> vc then
            violation drifted
              "VOLUME DRIFT on %s (%s): baseline %d, current %d"
              name current_file vb vc;
          (* Routing work: A* expansions, rip-ups and negotiation passes
             are as deterministic as the volume, and creeping any of them
             up is how expansion wins quietly rot — more (cheaper)
             searches, more passes. *)
          List.iter
            (fun key ->
              let wb = int_field baseline_file name b key in
              let wc = int_field current_file name c key in
              if wc > wb then
                violation drifted
                  "%s REGRESSION on %s (%s): baseline %d, current %d"
                  (String.uppercase_ascii key) name current_file wb wc)
            [ "astar_expansions"; "total_ripped"; "passes" ];
          let rate key =
            let rb = float_field b key and rc = float_field c key in
            if rb > 0.0 then Printf.sprintf "%.2fx" (rc /. rb) else "n/a"
          in
          Printf.printf
            "%-16s volume %d %s; sa_moves/s %.0f (%s vs baseline); a*_exp/s \
             %.0f (%s vs baseline)\n"
            name vc (status drifted before)
            (float_field c "sa_moves_per_sec")
            (rate "sa_moves_per_sec")
            (float_field c "astar_expansions_per_sec")
            (rate "astar_expansions_per_sec"))
    baseline;
  if !drifted > 0 then
    fail "%d benchmark gate(s) failed against the baseline" !drifted;
  Printf.printf
    "%s: %d benchmark(s) match %s (layouts valid; volumes exact; \
     expansions, rip-ups and passes bounded)\n"
    tool (List.length baseline) baseline_file

(* ------------------------------------------------------------------ cache *)

(* The stage-cache contract of a bench --json run made with --cache-dir
   (schema v3). Flow.run caches three stages: bridging, placement and
   routing. Preprocess is recomputed on every run and never stored, because
   recomputing it is cheaper than reading its artifact back (DESIGN.md,
   "The driver").

     - cold run misses and populates the three cached stages;
     - warm run hits all three and recomputes nothing cached;
     - warm volume is bit-identical to the cold volume;
     - a routing-config-only change reuses the bridging and placement
       artifacts (2 hits) and recomputes exactly the routing stage (1 miss);
     - the uncached, cold and warm layouts are all valid (schema v6).

   `make cache` also fails if the cache directory holds a preprocess/
   entry after these runs. *)

let stages = 3

let check_benchmark ~file failed (name, b) =
  let before = !failed in
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
  List.iter
    (fun prefix -> check_valid ~file failed ~prefix (name, b))
    [ ""; "cold_"; "warm_" ];
  Printf.printf
    "%-16s cold misses %d, warm hits %d, reroute hits/misses %d/%d, warm \
     volume %d %s\n"
    name (field "cold_cache_misses") (field "cache_hits")
    (field "reroute_cache_hits")
    (field "reroute_cache_misses")
    (field "volume_warm") (status failed before)

let cache file =
  let json = read_json file in
  (match Json.member "cache" json with
   | Some (Json.Bool true) -> ()
   | Some _ | None ->
       fail "%s was not produced with --cache-dir (cache != true)" file);
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
  | [ _; "perf"; baseline; current ] -> perf baseline current
  | [ _; "cache"; file ] -> cache file
  | _ ->
      fail
        "usage: tqec_gate metrics FILE | perf BASELINE.json CURRENT.json | \
         cache FILE"
