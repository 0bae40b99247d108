module Json = Tqec_obs.Json

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

type t = {
  paths : string list;
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field key json =
  match Json.member key json with Some v -> v | None -> bad "missing field %S" key

let string = function Json.String s -> s | _ -> bad "expected a string"

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> bad "expected a number"

let list = function Json.List l -> l | _ -> bad "expected a list"

let metric json =
  let better =
    match string (field "better" json) with
    | "lower" -> Lower
    | "higher" -> Higher
    | s -> bad "better must be lower or higher, not %S" s
  in
  { name = string (field "name" json);
    unit_ = string (field "unit" json);
    better;
    bound = Option.map number (Json.member "bound" json) }

let of_json json =
  match
    { paths = List.map string (list (field "paths" json));
      run_seconds = int_of_float (number (field "run_seconds" json));
      workloads = List.map (fun w -> string (field "name" w)) (list (field "workloads" json));
      end_to_end = List.map metric (list (field "end_to_end" json));
      per_layer = List.map metric (list (field "per_layer" json)) }
  with
  | spec -> Ok spec
  | exception Bad msg -> Error msg

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.bind (Json.of_string text) of_json

(* Counts a fixed build computes identically on every run of a seed: two
   sets of runs of the same code must agree on them exactly. *)
let exact =
  [ "volume_ratio"; "route.expansions"; "route.nets_ripped"; "place.sa_moves";
    "bridge.merges"; "gc.alloc_mw" ]

(* The prediction written down before any change is measured: which
   end-to-end metric each per-layer metric should move, on which workloads
   of [spec]. An empty list marks a metric taken outside the timed
   region. *)
let moves spec =
  let all_workloads = spec.workloads in
  let group names predicted = List.map (fun n -> (n, predicted)) names in
  List.concat
    [ (* the control: preprocessing is a negligible share everywhere *)
      group [ "preprocess.s"; "preprocess.alloc_mw"; "preprocess.modules"; "preprocess.pins" ]
        [ ("wall_s", all_workloads) ];
      group
        [ "bridge.s"; "bridge.alloc_mw"; "bridge.merges"; "bridge.merge_attempts";
          "bridge.merge_rate"; "bridge.nets" ]
        [ ("volume_ratio", all_workloads); ("wall_s", all_workloads) ];
      group
        [ "place.cluster_s"; "place.anneal_s"; "place.alloc_mw"; "place.sa_moves";
          "place.moves_per_s"; "place.clusters"; "place.eval_ns"; "place.pack_ns" ]
        [ ("wall_s", [ "anneal-small" ]); ("job_p50_s", [ "anneal-small" ]) ];
      group [ "place.sa_accepted"; "place.accept_rate"; "place.placed_volume" ]
        [ ("volume_ratio", [ "anneal-small" ]); ("wall_s", [ "anneal-small" ]) ];
      group
        [ "route.s"; "route.alloc_mw"; "route.expansions"; "route.heap_pushes";
          "route.expansions_per_s"; "route.passes"; "route.nets_ripped"; "route.spliced";
          "route.splice_rate"; "route.bidir_searches"; "route.first_pass_frac";
          "route.search_ns" ]
        [ ("wall_s", [ "route-congested"; "batch-cold" ]);
          ("job_p50_s", [ "route-congested"; "batch-cold" ]);
          ("volume_ratio", [ "route-congested" ]) ];
      group [ "artifact.encode_s"; "artifact.write_s" ] [ ("wall_s", [ "batch-cold" ]) ];
      group [ "artifact.key_s"; "artifact.read_s"; "artifact.decode_s" ]
        [ ("wall_s", [ "batch-warm" ]); ("job_p50_s", [ "batch-warm" ]) ];
      group [ "artifact.bytes"; "artifact.hits"; "artifact.misses" ]
        [ ("wall_s", [ "batch-cold"; "batch-warm" ]) ];
      group [ "verify.s"; "flow.validate_s"; "trace.overhead_frac" ] [];
      group [ "gc.alloc_mw"; "gc.minor_collections"; "gc.major_collections"; "gc.top_heap_mb" ]
        [ ("wall_s", all_workloads); ("peak_rss_mb", all_workloads) ] ]
