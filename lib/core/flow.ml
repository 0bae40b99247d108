module Trace = Tqec_obs.Trace
module Json = Tqec_obs.Json
module Circuit = Tqec_circuit.Circuit
module Decompose = Tqec_circuit.Decompose
module Icm = Tqec_icm.Icm
module Stats = Tqec_icm.Stats
module Canonical = Tqec_canonical.Canonical
module Modular = Tqec_modular.Modular
module Bridge = Tqec_bridge.Bridge
module Cluster = Tqec_place.Cluster
module Place25d = Tqec_place.Place25d
module Router = Tqec_route.Router
module Codec = Tqec_artifact.Codec
module Codecs = Tqec_artifact.Codecs
module Stage = Tqec_artifact.Stage
module Store = Tqec_artifact.Store

type options = {
  bridging : bool;
  primal_groups : bool;
  friend_aware : bool;
  max_group_size : int;
  place : Place25d.config;
  route : Router.config;
}

let default_options =
  { bridging = true;
    primal_groups = true;
    friend_aware = true;
    max_group_size = 4;
    place = Place25d.default_config;
    route = Router.default_config }

let scale_options ?sa_iterations ?route_iterations options =
  let place =
    match sa_iterations with
    | None -> options.place
    | Some iterations ->
        { options.place with
          Place25d.sa = { options.place.Place25d.sa with Tqec_place.Sa.iterations } }
  in
  let route =
    match route_iterations with
    | None -> options.route
    | Some max_iterations -> { options.route with Router.max_iterations }
  in
  { options with place; route }

let check_options { place; route; max_group_size; _ } =
  let bad field bound v =
    Error (Printf.sprintf "%s must be >= %d (got %d)" field bound v)
  in
  match (place.Place25d.tiers, route) with
  | _ when max_group_size < 1 -> bad "max_group_size" 1 max_group_size
  | Some t, _ when t < 1 -> bad "tiers" 1 t
  | _, { Router.max_iterations = n; _ } when n < 1 -> bad "route_iterations" 1 n
  | _, { Router.region_margin = m; _ } when m < 0 -> bad "region_margin" 0 m
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* The four pipeline stages (paper Fig. 2), each implementing the
   uniform Tqec_artifact.Stage.S signature: a typed input/output, a
   canonical cache key over input + configuration (never execution
   resources), a code-version tag, and a codec for the output artifact.
   Each stage is independently callable.                                *)
(* ------------------------------------------------------------------ *)

let canon json = Json.to_string json

(* A large upstream artifact enters a downstream key as a SHA-256 digest,
   not as its JSON, and each domain remembers the last value it digested
   per kind. Within one job the same physical [modular] and [nets] values
   reach the bridging, placement and routing keys, so each is rendered and
   hashed once per job instead of once per key. The memo is compared by
   [==] but the digest is of content, so a decoded copy with equal content
   keys equally; holding the value keeps its address from being reused by
   another. *)
let digest_memo encode =
  let slot = Domain.DLS.new_key (fun () -> None) in
  fun v ->
    match Domain.DLS.get slot with
    | Some (last, digest) when last == v -> digest
    | _ ->
        let digest = Tqec_prelude.Hash.sha256_hex (canon (encode v)) in
        Domain.DLS.set slot (Some (v, digest));
        digest

let nets_digest = digest_memo Codecs.of_nets

module Preprocess = struct
  type input = Circuit.t

  type output = {
    decomposed : Circuit.t;
    icm : Icm.t;
    stats : Stats.t;
    canonical : Canonical.t;
    modular : Modular.t;
  }

  let name = "preprocess"

  let version = "1"

  let key circuit = canon (Codecs.of_circuit circuit)

  let run ~trace circuit =
    let decomposed = Decompose.circuit circuit in
    let icm = Icm.of_circuit decomposed in
    let canonical = Canonical.of_icm icm in
    let modular = Modular.of_icm icm in
    let stats =
      Stats.of_icm ~qubits_o:circuit.Circuit.num_qubits
        ~gates_o:(Circuit.gate_count circuit) icm
    in
    if Trace.enabled trace then begin
      Trace.incr ~n:(Circuit.gate_count circuit) trace "gates_in";
      Trace.incr ~n:(Circuit.gate_count decomposed) trace "gates_decomposed";
      Trace.incr ~n:(Array.length icm.Icm.gadgets) trace "icm_gadgets";
      Trace.incr ~n:(Modular.num_modules modular) trace "modules";
      Trace.incr ~n:(Array.length modular.Modular.loops) trace "loops";
      Trace.incr ~n:(Array.length modular.Modular.pins) trace "pins"
    end;
    { decomposed; icm; stats; canonical; modular }

  let encode { decomposed; icm; stats; canonical; modular } =
    Json.Obj
      [ ("decomposed", Codecs.of_circuit decomposed);
        ("icm", Codecs.of_icm icm);
        ("stats", Codecs.of_stats stats);
        ("canonical", Codecs.of_canonical canonical);
        ("modular", Codecs.of_modular modular) ]

  let decode (_ : input) json =
    let icm = Codecs.icm (Codec.field "icm" json) in
    { decomposed = Codecs.circuit (Codec.field "decomposed" json);
      icm;
      stats = Codecs.stats (Codec.field "stats" json);
      canonical = Codecs.canonical ~icm (Codec.field "canonical" json);
      modular = Codecs.modular ~icm (Codec.field "modular" json) }
end

(* [modular] is always [Modular.of_icm] of its own [icm], so the ICM and
   the preprocess code version name it exactly: the key digests the ~2 KB
   ICM JSON, not the ~18 KB modular expansion. The price is that any
   change to [Modular.of_icm]'s output must bump [Preprocess.version]
   (tier-1 pins the preprocess bytes of a Toffoli circuit to catch a
   missing bump). *)
let modular_digest =
  digest_memo (fun (modular : Modular.t) ->
      Json.Obj
        [ ("preprocess", Json.String Preprocess.version);
          ("icm", Codecs.of_icm modular.Modular.icm) ])

module Bridging = struct
  type input = { bridging : bool; modular : Modular.t }

  type output = { bridge : Bridge.result option; nets : Bridge.net list }

  let name = "bridging"

  let version = "1"

  let key { bridging; modular } =
    canon
      (Json.Obj
         [ ("bridging", Json.Bool bridging);
           ("modular", Json.String (modular_digest modular)) ])

  let run ~trace { bridging; modular } =
    if bridging then begin
      let r = Bridge.run ~trace modular in
      { bridge = Some r; nets = r.Bridge.nets }
    end
    else begin
      let nets = Bridge.naive_nets modular in
      if Trace.enabled trace then
        Trace.incr ~n:(List.length nets) trace "nets_generated";
      { bridge = None; nets }
    end

  let encode { bridge; nets } =
    Json.Obj
      [ ( "bridge",
          match bridge with
          | None -> Json.Null
          | Some r -> Codecs.of_bridge_result r );
        ("nets", Codecs.of_nets nets) ]

  let decode { modular; _ } json =
    let bridge =
      Codec.opt (Codecs.bridge_result ~modular) (Codec.field "bridge" json)
    in
    { bridge; nets = Codecs.nets (Codec.field "nets" json) }
end

module Placement = struct
  type input = {
    primal_groups : bool;
    max_group_size : int;
    config : Place25d.config;
    modular : Modular.t;
    nets : Bridge.net list;
    pool : Tqec_prelude.Pool.t option;
  }

  type output = { cluster : Cluster.t; placement : Place25d.placement }

  let name = "placement"

  (* 2: module and cluster positions and module offsets stored as packed
     coordinate strings (Codec.of_point3_array). *)
  let version = "2"

  let key { primal_groups; max_group_size; config; modular; nets; pool = _ } =
    canon
      (Json.Obj
         [ ("primal_groups", Json.Bool primal_groups);
           ("max_group_size", Json.Int max_group_size);
           ("config", Codecs.of_place_config config);
           ("modular", Json.String (modular_digest modular));
           ("nets", Json.String (nets_digest nets)) ])

  let run ~trace { primal_groups; max_group_size; config; modular; nets; pool = _ } =
    let cluster = Cluster.build ~primal_groups ~max_group_size modular in
    let placement = Place25d.place ~trace config cluster nets in
    { cluster; placement }

  let encode { cluster; placement } =
    Json.Obj
      [ ("cluster", Codecs.of_cluster cluster);
        ("placement", Codecs.of_placement placement) ]

  let decode { modular; _ } json =
    (* Share the one decoded cluster between [cluster] and
       [placement.cluster], matching the physical sharing of a cold run. *)
    let cluster = Codecs.cluster ~modular (Codec.field "cluster" json) in
    { cluster;
      placement = Codecs.placement ~cluster (Codec.field "placement" json) }
end

module Routing = struct
  type input = {
    config : Router.config;
    placement : Place25d.placement;
    nets : Bridge.net list;
    pool : Tqec_prelude.Pool.t option;
  }

  type output = Router.result

  let name = "routing"

  (* 5: routed paths stored as packed coordinate strings (Codec.of_path),
     layouts unchanged; a version-4 entry is a miss, not a second format to
     decode. 4: splice repairs and the corridor clamp deleted, with the
     config's two splice fields (3: negotiation-schedule overhaul; 2:
     search-kernel rework); routings cached before 4 are not
     reproducible. *)
  let version = "5"

  let key { config; placement; nets; pool = _ } =
    let cluster = placement.Place25d.cluster in
    canon
      (Json.Obj
         [ ("config", Codecs.of_route_config config);
           ("modular", Json.String (modular_digest cluster.Cluster.modular));
           ("cluster", Codecs.of_cluster cluster);
           ("placement", Codecs.of_placement placement);
           ("nets", Json.String (nets_digest nets)) ])

  let run ~trace { config; placement; nets; pool = _ } =
    Router.route ~trace config placement nets

  let encode result = Codecs.of_routing result

  let decode (_ : input) json = Codecs.routing json
end

(* ------------------------------------------------------------------ *)
(* End-to-end composition: a generic cache-aware stage driver           *)
(* ------------------------------------------------------------------ *)

type breakdown = {
  t_preprocess : float;
  t_bridging : float;
  t_placement : float;
  t_routing : float;
  t_total : float;
}

type t = {
  name : string;
  stats : Stats.t;
  canonical : Canonical.t;
  modular : Modular.t;
  bridge : Bridge.result option;
  nets : Bridge.net list;
  cluster : Cluster.t;
  placement : Place25d.placement;
  routing : Router.result;
  dims : int * int * int;
  volume : int;
  total_volume : int;
  breakdown : breakdown;
  trace : Trace.span;
}

let stage_names = [ "preprocess"; "bridging"; "placement"; "routing" ]

(* Run one stage under its own child span, consulting the cache first.
   A hit decodes the stored artifact (bit-identical to recomputing it, by
   the codecs' round-trip law); a corrupt entry is evicted and recomputed.
   Counters record onto the stage's span so metrics/tests can observe the
   cache behaviour per stage. *)
let run_stage (type i o) ((module St : Stage.S with type input = i and type output = o) as stage)
    ~cache root (input : i) : o * float =
  let span = Trace.span root St.name in
  let compute ~store_result key =
    let out = St.run ~trace:span input in
    (match (store_result, key) with
    | true, Some (store, key) ->
        Store.store store ~stage:St.name ~key (St.encode out);
        Trace.incr span "cache_miss";
        Trace.incr span "cache_store"
    | _ -> ());
    out
  in
  let out =
    match cache with
    | None -> compute ~store_result:false None
    | Some store -> (
        let key = Stage.cache_key stage input in
        match Store.find store ~stage:St.name ~key with
        | None -> compute ~store_result:true (Some (store, key))
        | Some json -> (
            match St.decode input json with
            | decoded ->
                Trace.incr span "cache_hit";
                decoded
            | exception (Codec.Decode _ | Invalid_argument _ | Failure _) ->
                Store.remove store ~stage:St.name ~key;
                compute ~store_result:true (Some (store, key))))
  in
  Trace.close span;
  (out, Trace.duration_s span)

let run ?(options = default_options) ?trace ?pool:_ ?cache circuit =
  let root =
    match trace with
    | Some parent -> Trace.span parent "flow"
    | None -> Trace.root "flow"
  in
  (* Preprocess is computed, never cached. It is a linear pass, and its
     artifact is the largest in the store: reading it back costs more than
     recomputing it. On the batch-warm ladder a warm job spent ~1.4 ms
     reading, parsing and decoding it against ~0.34 ms to recompute; on the
     Table-I rows parse + decode is 3-4x the recompute (4gt10 2.8 vs
     0.69 ms, ham15_107 117 vs 35 ms). The downstream keys embed the
     content digest of [modular], not this stage's key, so they are the
     same whether [modular] was recomputed or decoded. *)
  let pre, t_preprocess = run_stage (module Preprocess) ~cache:None root circuit in
  let br, t_bridging =
    run_stage (module Bridging) ~cache root
      { Bridging.bridging = options.bridging; modular = pre.Preprocess.modular }
  in
  let pl, t_placement =
    run_stage (module Placement) ~cache root
      { Placement.primal_groups = options.primal_groups;
        max_group_size = options.max_group_size;
        config = options.place;
        modular = pre.Preprocess.modular;
        nets = br.Bridging.nets;
        pool = None }
  in
  let route_config =
    { options.route with Router.friend_aware = options.friend_aware && options.bridging }
  in
  let routing, t_routing =
    run_stage (module Routing) ~cache root
      { Routing.config = route_config;
        placement = pl.Placement.placement;
        nets = br.Bridging.nets;
        pool = None }
  in
  Trace.close root;
  let d, w, h = routing.Router.dims in
  let volume = routing.Router.volume in
  { name = circuit.Circuit.name;
    stats = pre.Preprocess.stats;
    canonical = pre.Preprocess.canonical;
    modular = pre.Preprocess.modular;
    bridge = br.Bridging.bridge;
    nets = br.Bridging.nets;
    cluster = pl.Placement.cluster;
    placement = pl.Placement.placement;
    routing;
    dims = (w, h, d);
    volume;
    total_volume = volume;
    breakdown =
      { t_preprocess;
        t_bridging;
        t_placement;
        t_routing;
        t_total = Trace.duration_s root };
    trace = root }

let num_nodes t = Cluster.num_clusters t.cluster

let num_nets t = List.length t.nets

let stage_span t name = Trace.find t.trace [ name ]

let stage_counter t stage name =
  match stage_span t stage with Some s -> Trace.counter s name | None -> 0

let cache_stats t =
  List.fold_left
    (fun (hits, misses, stores) stage ->
      ( hits + stage_counter t stage "cache_hit",
        misses + stage_counter t stage "cache_miss",
        stores + stage_counter t stage "cache_store" ))
    (0, 0, 0) stage_names

let metrics_json t =
  let w, h, d = t.dims in
  let hits, misses, stores = cache_stats t in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Json.Obj
    [ ("schema_version", Json.Int 2);
      ("circuit", Json.String t.name);
      ("volume", Json.Int t.volume);
      ("dims", Json.Obj [ ("w", Json.Int w); ("h", Json.Int h); ("d", Json.Int d) ]);
      ("nets", Json.Int (num_nets t));
      ("nodes", Json.Int (num_nodes t));
      ("routed", Json.Int (List.length t.routing.Router.routed));
      ("unrouted", Json.Int (List.length t.routing.Router.failed));
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ("stores", Json.Int stores);
            ("hit_rate", Json.Float hit_rate) ] );
      ( "stage_durations_s",
        Json.Obj
          (List.map
             (fun name ->
               let dur =
                 match stage_span t name with
                 | Some s -> Trace.duration_s s
                 | None -> 0.0
               in
               (name, Json.Float dur))
             stage_names) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Int v))
             (Trace.flat_counters t.trace)) );
      ("trace", Trace.to_json t.trace) ]

let validate t =
  let ( let* ) = Result.bind in
  let at stage result =
    Result.map_error (fun e -> stage ^ ": " ^ e) result
  in
  let* () = at "placement" (Place25d.check_no_overlap t.placement) in
  let* () = at "placement" (Place25d.check_time_ordering t.placement) in
  let* () = at "routing" (Router.validate t.placement t.routing) in
  match t.routing.Router.failed with
  | [] -> Ok ()
  | failed ->
      at "routing"
        (Error (Printf.sprintf "%d nets remain unrouted" (List.length failed)))
