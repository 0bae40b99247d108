(* The repository benchmark. For one workload it builds a corpus of circuits
   from --seed, compresses it round after round for --seconds seconds of
   compression time, checks every output, and prints the end-to-end metrics
   as the last line of stdout, one JSON object. With --trace 1 it then
   compresses the corpus again, cold and warm, driving each layer's public
   entry point itself, and prints the per-layer metrics instead. Without
   --workload it runs every workload, each in its own process, one after
   another.

   Run from the repository root: units, bounds and the run length come from
   BENCHMARK.json. See benchmark/README.md. *)

module Flow = Tqec_core.Flow
module Trace = Tqec_obs.Trace
module Json = Tqec_obs.Json
module Stopwatch = Tqec_prelude.Stopwatch
module Pool = Tqec_prelude.Pool
module Circuit = Tqec_circuit.Circuit
module Benchmarks = Tqec_circuit.Benchmarks
module Canonical = Tqec_canonical.Canonical
module Bridge = Tqec_bridge.Bridge
module Cluster = Tqec_place.Cluster
module Place25d = Tqec_place.Place25d
module Bstar = Tqec_place.Bstar
module Router = Tqec_route.Router
module Stage = Tqec_artifact.Stage
module Store = Tqec_artifact.Store
module Verify = Tqec_verify.Verify

let pool =
  Pool.set_default_domains 1;
  Pool.create ~domains:1 ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type cache =
  | Uncached
  | Cold  (** every job opens a fresh on-disk store in an empty directory *)
  | Warm  (** every job opens a fresh store on a directory set-up filled *)

type workload = {
  name : string;
  cache : cache;
  options : Flow.options;
  corpus : int -> Circuit.t array;  (** from the seed *)
}

(* A RevLib-style circuit family (Benchmarks.generate): fixed gate counts,
   wiring drawn from the seed. *)
let family ~qubits ~toffolis ~cnots =
  let template = List.hd Benchmarks.all in
  { template with
    Benchmarks.name = Printf.sprintf "q%dt%dc%d" qubits toffolis cnots;
    qubits;
    toffolis;
    cnots }

(* Instance [i] of seed [s] is wired from [s * 1000 + i]: at most 1000 per
   seed. *)
let instances spec n seed =
  Array.init n (fun i -> Benchmarks.generate ~seed:((seed * 1000) + i) spec)

(* The smallest circuit of the paper's suite, which tqec_compress -b and
   make perf serve: 3 Toffolis, ~500 nets, grids of ~41x36x53. The larger
   ones leave nets unrouted on too many inputs for a benchmark on which no
   job may fail: 15 of 56 generated 4gt4-v0_73 instances at the default
   options (README.md). *)
let served = Option.get (Benchmarks.find "4gt10-v1_81")

(* A size ladder: one Toffoli plus 0 to 7 CNOTs on 3 to 6 qubits, each cell
   four times. Fixed gate mixes keep a run's cost steady from seed to seed,
   where fuzzer circuits of random size swung it by ~20%; sizes spread
   evenly, so the median job is not perched between two clusters. *)
let ladder seed =
  Array.concat
    (List.concat_map
       (fun qubits ->
         List.init 8 (fun cnots -> instances (family ~qubits ~toffolis:1 ~cnots) 4 seed))
       [ 3; 4; 5; 6 ])

let low_sa = Flow.scale_options ~sa_iterations:1500 Flow.default_options

(* 60 routing passes, not the default 30: with 30 passes 1 of 382 served
   instances kept an unrouted net at the default SA effort, and with 40
   passes 1 of 217 at the Full one. With 60, none of 1000 and none of 250
   did, using at most 35 and 32 passes (README.md). *)
let workloads =
  [ (* The default SA effort: routing is ~86% of the time. *)
    { name = "route-congested";
      cache = Uncached;
      options = Flow.scale_options ~route_iterations:60 Flow.default_options;
      corpus = instances served 48 };
    (* The Full effort preset's SA budget: placement is ~84% of the time. *)
    { name = "anneal-small";
      cache = Uncached;
      options = Flow.scale_options ~sa_iterations:80_000 ~route_iterations:60 Flow.default_options;
      corpus = instances served 12 };
    { name = "batch-cold"; cache = Cold; options = low_sa; corpus = ladder };
    { name = "batch-warm"; cache = Warm; options = low_sa; corpus = ladder } ]

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let work_root = ".tqec_bench"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Peak resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Machine speed                                                        *)
(* ------------------------------------------------------------------ *)

(* A shared machine slows down and recovers, within a run and from run to
   run: whole runs of one seed drift by ~10%. Every time the benchmark
   takes is therefore scaled to seconds at a reference loop's nominal
   speed, by the loop's latest timing, taken at most 0.25 s earlier. The
   loop does integer and memory work only and allocates nothing, so no
   change to the program can move it. *)
let reference_buffer = Bytes.make (1 lsl 22) '\000'

(* The loop's time on an idle 2-vCPU Xeon VM. *)
let reference_nominal_s = 0.0100

let reference_s () =
  let t0 = Stopwatch.now_s () in
  let x = ref 1 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (Bytes.length reference_buffer - 1) in
    Bytes.unsafe_set reference_buffer i
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get reference_buffer i) + 1) land 255))
  done;
  Stopwatch.now_s () -. t0

let speed = ref 1.0 and last_timing = ref neg_infinity and reference_timings = ref []

let track_speed () =
  if Stopwatch.now_s () -. !last_timing >= 0.25 then begin
    let r = reference_s () in
    reference_timings := r :: !reference_timings;
    speed := reference_nominal_s /. r;
    last_timing := Stopwatch.now_s ()
  end

(* Seconds since [t0], at the reference loop's nominal speed. *)
let since t0 = (Stopwatch.now_s () -. t0) *. !speed

(* ------------------------------------------------------------------ *)
(* Jobs and their checks                                                *)
(* ------------------------------------------------------------------ *)

type outcome = { volume : int; dims : int * int * int; canonical : int }

let outcome (f : Flow.t) =
  { volume = f.Flow.volume;
    dims = f.Flow.dims;
    canonical = Canonical.total_volume f.Flow.canonical }

type verdict = Valid | Invalid of string | Wrong of string

(* Both referees: the pipeline's own validators and the independent
   geometry oracle. A layout both reject (nets left unrouted) is a failed
   job; a layout only one rejects is a wrong output. *)
let verify_input (f : Flow.t) =
  { Verify.modular = f.Flow.modular;
    placement = f.Flow.placement;
    routing = f.Flow.routing;
    nets = f.Flow.nets;
    bridge = f.Flow.bridge }

let check f =
  let oracle = Verify.first_error (Verify.verify (verify_input f)) in
  match (Flow.validate f, oracle) with
  | Ok (), None -> Valid
  | Error e, Some _ -> Invalid e
  | Ok (), Some e -> Wrong ("Verify rejects a layout Flow.validate accepts: " ^ e)
  | Error e, None -> Wrong ("Flow.validate rejects a layout Verify accepts: " ^ e)

type run = {
  w : workload;
  dir : string;  (** the cache directory of a Warm workload, else scratch *)
  mutable job_dirs : int;
}

(* The store a job opens, and what to delete after it. *)
let job_store run =
  match run.w.cache with
  | Uncached -> (None, None)
  | Warm -> (Some (Store.create ~dir:run.dir ()), None)
  | Cold ->
      run.job_dirs <- run.job_dirs + 1;
      let dir = Filename.concat run.dir (string_of_int run.job_dirs) in
      (Some (Store.create ~dir ()), Some dir)

let compress run ?cache circuit =
  Flow.run ~options:run.w.options ~trace:Trace.noop ~pool ?cache circuit

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type setup = {
  corpus : Circuit.t array;
  cold : outcome array option;  (** Warm: what each job computed cold *)
}

(* Inputs, then one untimed job so the heap has grown and the code is paged
   in: on the last (in the ladder, largest) input of seed 0's corpus, the
   same job for every seed, since the cost of one served circuit varies up
   to fourfold from instance to instance. A Warm workload instead
   fills its cache directory, one fresh store per job as separate CLI runs
   would. *)
let set_up run ~seed =
  let corpus = run.w.corpus seed in
  remove_tree run.dir;
  match run.w.cache with
  | Warm ->
      let cold =
        Array.map (fun c -> outcome (compress run ~cache:(Store.create ~dir:run.dir ()) c)) corpus
      in
      { corpus; cold = Some cold }
  | Uncached | Cold ->
      let warm_up = run.w.corpus 0 in
      let cache, dir = job_store run in
      ignore (compress run ?cache warm_up.(Array.length warm_up - 1));
      Option.iter remove_tree dir;
      { corpus; cold = None }

(* ------------------------------------------------------------------ *)
(* The timed rounds                                                     *)
(* ------------------------------------------------------------------ *)

(* [failed]: jobs that raised or whose layout both referees reject.
   [wrong]: outputs that are not what the program claims (the referees
   disagree, or a repeat, the warm replay or the traced composition differs
   from the first result). *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let note tally msg =
  if tally.failed + tally.wrong <= 5 then prerr_endline ("tqec_bench: " ^ msg)

let failed tally fmt =
  Printf.ksprintf (fun msg -> tally.failed <- tally.failed + 1; note tally msg) fmt

let wrong tally fmt =
  Printf.ksprintf (fun msg -> tally.wrong <- tally.wrong + 1; note tally msg) fmt

type measured = {
  job_times : float list;
  rounds : float list;  (** complete passes over the corpus *)
  seen : (outcome * bool) option array;  (** first outcome per input; valid? *)
}

(* Compress the corpus in order, round after round, until [seconds] of
   compression time (unscaled, so a slow machine does not stretch the run)
   have passed and every input has run once. Checks run outside the clock:
   the first outcome of each input goes to both referees (and, warm, must
   equal the cold result); every repeat must equal the first. *)
let measure run setup tally ~seconds =
  let n = Array.length setup.corpus in
  let seen = Array.make n None in
  let job_times = ref [] and rounds = ref [] and round = ref 0.0 and busy = ref 0.0 in
  while tally.attempted < n || !busy < seconds do
    track_speed ();
    let k = tally.attempted mod n in
    let cache, dir = job_store run in
    let t0 = Stopwatch.now_s () in
    let result =
      match compress run ?cache setup.corpus.(k) with
      | f -> Ok f
      | exception e -> Error (Printexc.to_string e)
    in
    let raw = Stopwatch.now_s () -. t0 in
    let dt = raw *. !speed in
    Option.iter remove_tree dir;
    tally.attempted <- tally.attempted + 1;
    job_times := dt :: !job_times;
    busy := !busy +. raw;
    round := !round +. dt;
    if k = n - 1 then begin
      rounds := !round :: !rounds;
      round := 0.0
    end;
    match result with
    | Error e -> failed tally "input %d raised %s" k e
    | Ok f -> (
        let o = outcome f in
        match seen.(k) with
        | Some (first, valid) ->
            if o <> first then wrong tally "input %d: a repeat differs" k
            else if not valid then tally.failed <- tally.failed + 1
        | None ->
            (match setup.cold with
             | Some cold when cold.(k) <> o -> wrong tally "input %d: warm differs from cold" k
             | _ -> ());
            let valid =
              match check f with
              | Valid -> true
              | Invalid e ->
                  failed tally "input %d: %s" k e;
                  false
              | Wrong e ->
                  wrong tally "input %d: %s" k e;
                  false
            in
            seen.(k) <- Some (o, valid))
  done;
  { job_times = !job_times; rounds = !rounds; seen }

let median values = (Verdict.summarize values).Verdict.median

let volume_ratio seen =
  let sum f =
    Array.fold_left (fun acc o -> acc + Option.fold ~none:0 ~some:(fun (o, _) -> f o) o) 0 seen
  in
  float_of_int (sum (fun o -> o.volume)) /. float_of_int (max 1 (sum (fun o -> o.canonical)))

(* ------------------------------------------------------------------ *)
(* The traced pass: Flow.run's composition, driven layer by layer        *)
(* ------------------------------------------------------------------ *)

type layers = (string, float) Hashtbl.t

let get (acc : layers) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)

let add (acc : layers) k v = Hashtbl.replace acc k (get acc k +. v)

let clocked acc name f =
  let t0 = Stopwatch.now_s () in
  let r = f () in
  add acc name (since t0);
  r

(* Bracket one pipeline call with the stopwatch and the GC counters.
   Allocation is the minor heap's, from Gc.minor_words, which is exact.
   Blocks of more than 256 words go straight to the major heap; OCaml 5's
   quick_stat settles that count only at collections, so a bracket's share
   of it moves with GC timing, on a small bracket by more than the bracket
   allocates; it is left out. *)
let timed acc ?alloc name f =
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let r = clocked acc name f in
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let mw = (m1 -. m0) /. 1e6 in
  add acc "gc.alloc_mw" mw;
  Option.iter (fun a -> add acc a mw) alloc;
  add acc "gc.minor_collections" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  add acc "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  r

let entry_bytes store ~stage ~key =
  match Store.dir store with
  | None -> 0.0
  | Some dir ->
      let path = Filename.concat (Filename.concat dir stage) (key ^ ".json") in
      float_of_int (Unix.stat path).Unix.st_size

(* Flow.run's stage driver, one call at a time: key, look up, then decode
   the hit or compute, encode and store the miss. *)
let stage (type i o) acc store root
    (module St : Stage.S with type input = i and type output = o) (input : i)
    (compute : Trace.span -> o) : o =
  let span = Trace.span root St.name in
  let key = timed acc "artifact.key_s" (fun () -> Stage.cache_key (module St) input) in
  let out =
    match timed acc "artifact.read_s" (fun () -> Store.find store ~stage:St.name ~key) with
    | Some json ->
        add acc "artifact.hits" 1.0;
        timed acc "artifact.decode_s" (fun () -> St.decode input json)
    | None ->
        add acc "artifact.misses" 1.0;
        let out = compute span in
        let json = timed acc "artifact.encode_s" (fun () -> St.encode out) in
        timed acc "artifact.write_s" (fun () -> Store.store store ~stage:St.name ~key json);
        add acc "artifact.bytes" (entry_bytes store ~stage:St.name ~key);
        out
  in
  Trace.close span;
  out

(* Every workload bridges, so the bridging stage is Bridge.run. *)
let traced_job acc run store circuit =
  let o = run.w.options in
  let root = Trace.root "flow" in
  let pre =
    stage acc store root (module Flow.Preprocess) circuit (fun span ->
        timed acc "preprocess.s" ~alloc:"preprocess.alloc_mw" (fun () ->
            Flow.Preprocess.run ~trace:span circuit))
  in
  let modular = pre.Flow.Preprocess.modular in
  let br =
    stage acc store root (module Flow.Bridging) { Flow.Bridging.bridging = true; modular }
      (fun span ->
        let r =
          timed acc "bridge.s" ~alloc:"bridge.alloc_mw" (fun () -> Bridge.run ~trace:span modular)
        in
        { Flow.Bridging.bridge = Some r; nets = r.Bridge.nets })
  in
  let nets = br.Flow.Bridging.nets in
  let pl =
    stage acc store root (module Flow.Placement)
      { Flow.Placement.primal_groups = o.Flow.primal_groups;
        max_group_size = o.Flow.max_group_size;
        config = o.Flow.place;
        modular;
        nets;
        pool = Some pool }
      (fun span ->
        let cluster =
          timed acc "place.cluster_s" ~alloc:"place.alloc_mw" (fun () ->
              Cluster.build ~primal_groups:o.Flow.primal_groups
                ~max_group_size:o.Flow.max_group_size modular)
        in
        let placement =
          timed acc "place.anneal_s" ~alloc:"place.alloc_mw" (fun () ->
              Place25d.place ~trace:span ~pool o.Flow.place cluster nets)
        in
        { Flow.Placement.cluster; placement })
  in
  let placement = pl.Flow.Placement.placement in
  let config = { o.Flow.route with Router.friend_aware = o.Flow.friend_aware } in
  let routing =
    stage acc store root (module Flow.Routing)
      { Flow.Routing.config; placement; nets; pool = Some pool }
      (fun span ->
        timed acc "route.s" ~alloc:"route.alloc_mw" (fun () ->
            Router.route ~trace:span ~pool config placement nets))
  in
  Trace.close root;
  let d, w, h = routing.Router.dims in
  { Flow.name = circuit.Circuit.name;
    stats = pre.Flow.Preprocess.stats;
    canonical = pre.Flow.Preprocess.canonical;
    modular;
    bridge = br.Flow.Bridging.bridge;
    nets;
    cluster = pl.Flow.Placement.cluster;
    placement;
    routing;
    dims = (w, h, d);
    volume = routing.Router.volume;
    total_volume = routing.Router.volume;
    breakdown =
      { Flow.t_preprocess = 0.0; t_bridging = 0.0; t_placement = 0.0; t_routing = 0.0; t_total = 0.0 };
    trace = root }

(* Nanoseconds per call of a kernel, over at least 0.2 s. *)
let ns_per_call f =
  track_speed ();
  let t0 = Stopwatch.now_s () and calls = ref 0 in
  while !calls < 10 || Stopwatch.now_s () -. t0 < 0.2 do
    f ();
    incr calls
  done;
  since t0 *. 1e9 /. float_of_int !calls

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The counters the stages recorded on a job that computed every stage. *)
let add_counters acc (f : Flow.t) =
  let c stage name = float_of_int (Flow.stage_counter f stage name) in
  List.iter
    (fun (metric, v) -> add acc metric v)
    [ ("preprocess.modules", c "preprocess" "modules");
      ("preprocess.pins", c "preprocess" "pins");
      ("bridge.merges", c "bridging" "merges");
      ("bridge.merge_attempts", c "bridging" "merge_attempts");
      ("bridge.nets", float_of_int (List.length f.Flow.nets));
      ("place.sa_moves", c "placement" "sa_moves");
      ("place.sa_accepted", c "placement" "sa_accepted");
      ("place.clusters", c "placement" "clusters");
      ("place.placed_volume", c "placement" "placed_volume");
      ("route.expansions", c "routing" "astar_expansions");
      ("route.heap_pushes", c "routing" "heap_pushes");
      ("route.passes", c "routing" "ripup_passes");
      ("route.nets_ripped", c "routing" "nets_ripped");
      ("route.spliced", c "routing" "spliced_reroutes");
      ("route.bidir_searches", c "routing" "bidir_searches");
      ("route.first_pass", c "routing" "routed_first_pass");
      ("route.nets", c "routing" "nets_routed" +. c "routing" "nets_failed") ]

let store_s acc =
  List.fold_left (fun s k -> s +. get acc k) 0.0
    [ "artifact.key_s"; "artifact.read_s"; "artifact.encode_s"; "artifact.write_s" ]

(* Every input runs through every layer, on every workload: a cold job on a
   fresh store in an empty directory (each stage keys, misses, computes,
   encodes and writes), then a warm job on a fresh store over that directory
   (each stage keys, reads and decodes). Flow.run takes one of the two paths
   per workload, without the store's share on an uncached one; that path's
   traced time against wall_s is the tracing overhead. *)
let traced_pass run setup tally measured ~wall_s =
  let acc : layers = Hashtbl.create 64 in
  let dir = Filename.concat work_root "traced" in
  let busy = ref 0.0 and first = ref None in
  let job k circuit =
    track_speed ();
    let store0 = store_s acc and t0 = Stopwatch.now_s () in
    let result = try Ok (traced_job acc run (Store.create ~dir ()) circuit) with e -> Error e in
    let dt = since t0 in
    if Option.map outcome (Result.to_option result) <> Option.map fst measured.seen.(k) then
      wrong tally "traced input %d differs from Flow.run" k;
    (result, dt, store_s acc -. store0)
  in
  Array.iteri
    (fun k circuit ->
      remove_tree dir;
      let cold, cold_s, cold_store_s = job k circuit in
      let _, warm_s, _ = job k circuit in
      remove_tree dir;
      (busy :=
         !busy
         +.
         match run.w.cache with
         | Uncached -> cold_s -. cold_store_s
         | Cold -> cold_s
         | Warm -> warm_s);
      match cold with
      | Ok f ->
          add_counters acc f;
          if Option.is_none !first then first := Some f;
          ignore (clocked acc "flow.validate_s" (fun () -> Flow.validate f));
          ignore (clocked acc "verify.s" (fun () -> Verify.verify (verify_input f)))
      | Error _ -> ())
    setup.corpus;
  (match !first with
   | None -> ()
   | Some f ->
       let o = run.w.options in
       add acc "place.eval_ns"
         (ns_per_call (Place25d.sa_eval_bench o.Flow.place f.Flow.cluster f.Flow.nets));
       let dims =
         Array.map
           (fun c ->
             let d, w, _ = c.Cluster.cdims in
             (d, w))
           f.Flow.cluster.Cluster.clusters
       in
       add acc "place.pack_ns" (ns_per_call (fun () -> ignore (Bstar.pack (Bstar.create dims))));
       let search, _ = Router.astar_bench o.Flow.route f.Flow.placement f.Flow.nets in
       add acc "route.search_ns" (ns_per_call search));
  let v = get acc in
  List.iter
    (fun (k, x) -> Hashtbl.replace acc k x)
    [ ("bridge.merge_rate", ratio (v "bridge.merges") (v "bridge.merge_attempts"));
      ("place.accept_rate", ratio (v "place.sa_accepted") (v "place.sa_moves"));
      ("place.moves_per_s", ratio (v "place.sa_moves") (v "place.anneal_s"));
      ("route.expansions_per_s", ratio (v "route.expansions") (v "route.s"));
      ("route.splice_rate", ratio (v "route.spliced") (v "route.nets_ripped"));
      ("route.first_pass_frac", ratio (v "route.first_pass") (v "route.nets"));
      ("gc.top_heap_mb",
       float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("trace.overhead_frac", ratio (!busy -. wall_s) wall_s) ];
  acc

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)
(* ------------------------------------------------------------------ *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("tqec_bench: " ^ msg); exit 2) fmt

let run_workload (spec : Spec.t) w ~seed ~seconds ~traced ~out =
  let run = { w; dir = Filename.concat work_root w.name; job_dirs = 0 } in
  remove_tree work_root;
  Fun.protect ~finally:(fun () -> remove_tree work_root) @@ fun () ->
  (* At least three set-ups and at least one second of them, so that the
     median is steady where a set-up takes milliseconds. Newest first. *)
  let rec set_ups done_ total =
    if List.length done_ >= 3 && total >= 1.0 then done_
    else begin
      track_speed ();
      let t0 = Stopwatch.now_s () in
      let setup = set_up run ~seed in
      let dt = since t0 in
      set_ups ((setup, dt) :: done_) (total +. dt)
    end
  in
  let setups = set_ups [] 0.0 in
  let setup = fst (List.hd setups) in
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let m = measure run setup tally ~seconds in
  let wall_s = median m.rounds in
  let e2e =
    [ ("wall_s", wall_s);
      ("job_p50_s", median m.job_times);
      ("volume_ratio", volume_ratio m.seen);
      ("setup_s", median (List.map snd setups));
      ("peak_rss_mb", peak_rss_mb ()) ]
  in
  let metrics, values =
    if traced then
      let acc = traced_pass run setup tally m ~wall_s in
      (spec.Spec.per_layer, fun name -> if List.mem_assoc name (Spec.moves spec) then Some (get acc name) else None)
    else (spec.Spec.end_to_end, fun name -> List.assoc_opt name e2e)
  in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match values m.Spec.name with
        | Some v -> (m.Spec.name, v, m.Spec.unit_)
        | None -> die "BENCHMARK.json names %s, which this benchmark does not measure" m.Spec.name)
      metrics
  in
  Printf.printf "%s seed %d: %d jobs, %d complete rounds of %d inputs, %d failed, %d wrong\n"
    w.name seed tally.attempted (List.length m.rounds) (Array.length setup.corpus) tally.failed
    tally.wrong;
  Printf.printf "  reference loop: median %.2f ms over %d timings (nominal %.2f ms)\n"
    (1e3 *. median !reference_timings) (List.length !reference_timings)
    (1e3 *. reference_nominal_s);
  List.iter (fun (name, v, u) -> Printf.printf "  %-24s %14.6g %s\n" name v u) metrics;
  let result =
    Json.Obj
      [ ("correct", Json.Bool (tally.wrong = 0));
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int tally.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, u) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               metrics) ) ]
  in
  Option.iter
    (fun dir ->
      mkdir_p dir;
      let file = Printf.sprintf "%s.seed%d.trace%d.json" w.name seed (Bool.to_int traced) in
      Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("workload", Json.String w.name);
                    ("seed", Json.Int seed);
                    ("trace", Json.Bool traced);
                    ("result", result) ]));
          Out_channel.output_char oc '\n'))
    out;
  print_endline (Json.to_string result)

(* Each workload in its own process, one at a time. *)
let run_all argv =
  let ok =
    List.for_all
      (fun w ->
        flush stdout;
        let args = Array.append [| Sys.executable_name; "--workload"; w.name |] argv in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      workloads
  in
  if not ok then exit 1

let () =
  let spec =
    match Spec.load "BENCHMARK.json" with
    | Ok spec -> spec
    | Error e -> die "cannot read BENCHMARK.json (run from the repository root): %s" e
  in
  let workload = ref None and seed = ref 1 and seconds = ref (float_of_int spec.Spec.run_seconds)
  and traced = ref false and out = ref None in
  let usage =
    "tqec_bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]"
  in
  Arg.parse
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "S seed the inputs are made from (default 1)");
      ("--seconds", Arg.Set_float seconds, "N seconds of compression to measure");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 1: per-layer metrics instead");
      ("--out", Arg.String (fun d -> out := Some d), "DIR also write the result to a file here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = List.map (fun w -> w.name) workloads in
  if names <> spec.Spec.workloads then
    die "BENCHMARK.json lists the workloads %s; this benchmark runs %s"
      (String.concat ", " spec.Spec.workloads) (String.concat ", " names);
  match !workload with
  | None -> run_all (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | None ->
          die "unknown workload %S; known: %s" name (String.concat ", " names)
      | Some w ->
          run_workload spec w ~seed:!seed ~seconds:!seconds ~traced:!traced ~out:!out)
