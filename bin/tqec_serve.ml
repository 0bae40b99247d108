(* Batch front end: run a manifest of compression jobs through the shared
   stage cache, emitting per-job metrics JSON.

   The manifest is a JSON object with a "jobs" list; each job names a
   built-in benchmark ("benchmark") or a RevLib file ("real") plus optional
   per-job option overrides (any other field, or an out-of-range value
   such as "region_margin": -5, is an error reported before any job runs,
   so a bad override cannot run silently):

     { "jobs": [
         { "name": "a", "benchmark": "4gt10-v1_81", "sa_iterations": 2000 },
         { "name": "b", "real": "circuits/foo.real", "bridging": false,
           "seed": 7, "route_iterations": 12, "region_margin": 3 } ] }

   Jobs sharing stage inputs (e.g. the same circuit with different routing
   configs) reuse each other's cached artifacts; with --cache-dir the reuse
   extends across tqec_serve invocations.

     tqec_serve --manifest jobs.json --cache-dir .tqec-cache --out out.json *)

open Cmdliner
module Json = Tqec_obs.Json
module Flow = Tqec_core.Flow

exception Manifest of string

let m_err fmt = Printf.ksprintf (fun s -> raise (Manifest s)) fmt

let opt_int job key =
  match Json.member key job with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> m_err "field %S must be an integer" key

let opt_bool ~default job key =
  match Json.member key job with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> m_err "field %S must be a boolean" key

let opt_string job key =
  match Json.member key job with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> m_err "field %S must be a string" key

(* Every field [load_circuit], [options_of] and [run_job] read. *)
let job_fields =
  [ "name"; "benchmark"; "real"; "seed"; "tiers"; "sa_iterations";
    "route_iterations"; "region_margin"; "bridging"; "primal_groups";
    "friend_aware"; "max_group_size" ]

let check_fields job =
  match job with
  | Json.Obj fields ->
      List.iter
        (fun (key, _) ->
          if not (List.mem key job_fields) then
            m_err "unknown field %S (known: %s)" key (String.concat ", " job_fields))
        fields
  | _ -> m_err "job must be a JSON object"

let load_circuit ~seed job =
  match (opt_string job "benchmark", opt_string job "real") with
  | Some name, None -> (
      match Tqec_circuit.Benchmarks.find name with
      | Some spec -> Tqec_circuit.Benchmarks.generate ~seed spec
      | None -> m_err "unknown benchmark %S" name)
  | None, Some path -> (
      try Tqec_circuit.Real_parser.of_file path with
      | Tqec_circuit.Real_parser.Parse_error msg ->
          m_err "cannot parse %s: %s" path msg
      | Sys_error msg -> m_err "%s" msg)
  | Some _, Some _ -> m_err "give either \"benchmark\" or \"real\", not both"
  | None, None -> m_err "job needs a \"benchmark\" or \"real\" field"

let options_of job =
  let base = Flow.default_options in
  let seed =
    match opt_int job "seed" with Some s -> s | None -> 42
  in
  let place =
    { base.Flow.place with
      Tqec_place.Place25d.tiers = opt_int job "tiers";
      seed }
  in
  let route =
    match opt_int job "region_margin" with
    | None -> base.Flow.route
    | Some region_margin -> { base.Flow.route with Tqec_route.Router.region_margin }
  in
  let options =
    { Flow.bridging = opt_bool ~default:true job "bridging";
      primal_groups = opt_bool ~default:true job "primal_groups";
      friend_aware = opt_bool ~default:true job "friend_aware";
      max_group_size =
        (match opt_int job "max_group_size" with
         | Some n -> n
         | None -> base.Flow.max_group_size);
      place;
      route }
  in
  ( seed,
    Flow.scale_options
      ?sa_iterations:(opt_int job "sa_iterations")
      ?route_iterations:(opt_int job "route_iterations")
      options )

let run_job store index job =
  let seed, options = options_of job in
  let circuit = load_circuit ~seed job in
  let name =
    match opt_string job "name" with
    | Some n -> n
    | None -> circuit.Tqec_circuit.Circuit.name
  in
  Printf.eprintf "[serve] job %d (%s): compressing %s...\n%!" index name
    circuit.Tqec_circuit.Circuit.name;
  let flow = Flow.run ~options ~cache:store circuit in
  let valid =
    match Flow.validate flow with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "job %s: %s" name e)
  in
  let hits, misses, stores = Flow.cache_stats flow in
  let w, h, d = flow.Flow.dims in
  let json =
    Json.Obj
      [ ("name", Json.String name);
        ("circuit", Json.String flow.Flow.name);
        ("volume", Json.Int flow.Flow.volume);
        ("dims",
         Json.Obj [ ("w", Json.Int w); ("h", Json.Int h); ("d", Json.Int d) ]);
        ("valid", Json.Bool (Result.is_ok valid));
        ("cache",
         Json.Obj
           [ ("hits", Json.Int hits);
             ("misses", Json.Int misses);
             ("stores", Json.Int stores) ]);
        ("t_total", Json.Float flow.Flow.breakdown.Flow.t_total) ]
  in
  (json, valid, (hits, misses, stores))

let run manifest cache_dir out =
  let contents =
    try In_channel.with_open_text manifest In_channel.input_all
    with Sys_error msg ->
      prerr_endline ("tqec_serve: " ^ msg);
      exit 1
  in
  let jobs =
    match Json.of_string contents with
    | Error msg ->
        Printf.eprintf "tqec_serve: %s does not parse as JSON: %s\n" manifest msg;
        exit 1
    | Ok json -> (
        match Json.member "jobs" json with
        | Some (Json.List jobs) -> jobs
        | Some _ | None ->
            Printf.eprintf "tqec_serve: %s has no \"jobs\" list\n" manifest;
            exit 1)
  in
  List.iteri
    (fun index job ->
      try
        check_fields job;
        Result.iter_error (m_err "%s") (Flow.check_options (snd (options_of job)))
      with Manifest msg ->
        Printf.eprintf "tqec_serve: job %d: %s\n" index msg;
        exit 1)
    jobs;
  let store = Tqec_artifact.Store.create ?dir:cache_dir () in
  let results =
    List.mapi
      (fun index job ->
        try run_job store index job
        with Manifest msg ->
          Printf.eprintf "tqec_serve: job %d: %s\n" index msg;
          exit 1)
      jobs
  in
  let failures = List.filter_map (fun (_, v, _) -> Result.fold ~ok:(fun () -> None) ~error:Option.some v) results in
  let hits, misses, stores =
    List.fold_left
      (fun (h, m, s) (_, _, (jh, jm, js)) -> (h + jh, m + jm, s + js))
      (0, 0, 0) results
  in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let payload =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("jobs", Json.List (List.map (fun (j, _, _) -> j) results));
        ("summary",
         Json.Obj
           [ ("jobs", Json.Int (List.length results));
             ("invalid", Json.Int (List.length failures));
             ("cache_hits", Json.Int hits);
             ("cache_misses", Json.Int misses);
             ("cache_stores", Json.Int stores);
             ("cache_hit_rate", Json.Float hit_rate) ]) ]
  in
  let rendered = Json.to_string ~pretty:true payload ^ "\n" in
  (match out with
   | None -> print_string rendered
   | Some path -> (
       match open_out path with
       | oc ->
           output_string oc rendered;
           close_out oc;
           Printf.eprintf "[serve] results written to %s\n%!" path
       | exception Sys_error msg ->
           Printf.eprintf "tqec_serve: cannot write %s: %s\n" path msg;
           exit 1));
  List.iter (fun msg -> Printf.eprintf "tqec_serve: INVALID %s\n" msg) failures;
  if failures <> [] then exit 2

let manifest =
  Arg.(required & opt (some string) None & info [ "manifest"; "m" ] ~docv:"FILE"
         ~doc:"JSON manifest with the job list.")

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persistent stage-artifact cache shared by all jobs (and by
               later tqec_serve / tqec_compress runs). It lives on disk
               alone: a reused artifact is read back from its file, and no
               artifact is kept in memory. Without it the jobs still share
               an in-memory cache for this invocation.")

let out =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the per-job metrics JSON here instead of stdout.")

let cmd =
  let doc = "batch compression jobs over a shared stage cache" in
  Cmd.v (Cmd.info "tqec_serve" ~doc)
    Term.(const run $ manifest $ cache_dir $ out)

let () = exit (Cmd.eval cmd)
