module Gen = Tqec_proptest.Gen
module Shrink = Tqec_proptest.Shrink
module Property = Tqec_proptest.Property
module Circuit = Tqec_circuit.Circuit
module Decompose = Tqec_circuit.Decompose
module Semantics = Tqec_circuit.Semantics
module Flow = Tqec_core.Flow
module Lin = Tqec_baseline.Lin
module Verify = Tqec_verify.Verify

type prop =
  | Prop :
      string * 'a Property.arbitrary * ('a -> bool)
      -> prop

let name (Prop (n, _, _)) = n

let fast_options =
  Flow.scale_options ~sa_iterations:800 ~route_iterations:12
    Flow.default_options

let options_with_seed salt =
  { fast_options with
    Flow.place = { fast_options.Flow.place with Tqec_place.Place25d.seed = salt }
  }

let verify_input_of_flow (f : Flow.t) : Verify.input =
  { Verify.modular = f.Flow.modular;
    placement = f.Flow.placement;
    routing = f.Flow.routing;
    nets = f.Flow.nets;
    bridge = f.Flow.bridge }

(* Pipeline properties draw (circuit, salt): the salt reseeds the placement
   annealer so repeated cases explore different layouts of similar circuits. *)
let salted_arbitrary ~max_qubits ~max_gates =
  let carb = Circuit_gen.arbitrary ~max_qubits ~max_gates () in
  Property.make
    ~shrink:(Shrink.pair carb.Property.shrink Shrink.int)
    ~print:(fun (c, salt) ->
      Printf.sprintf "placement salt %d; %s" salt (carb.Property.print c))
    (Gen.pair carb.Property.gen (Gen.int_bound 1_000_000))

let semantics ~max_qubits ~max_gates =
  let arb = Circuit_gen.arbitrary ~max_qubits:(Int.min max_qubits 8) ~max_gates () in
  Prop
    ( "decomposition-semantics",
      arb,
      fun c -> Semantics.equivalent c (Decompose.circuit c) )

(* Below this T count the comparison is not meaningful: the flow places real
   distillation boxes while Lin only adds a volume lower bound, so tiny
   circuits are dominated by fixed overhead Lin does not model. Empirically
   the flow wins from ~24 T gates up; 28 leaves margin (worst observed ratio
   0.85 over 250 random circuits). *)
let volume_t_threshold = 28

let volume ~max_qubits ~max_gates =
  Prop
    ( "volume-vs-lin",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        if Circuit.t_count (Decompose.circuit c) < volume_t_threshold then true
        else
          let flow = Flow.run ~options:(options_with_seed salt) c in
          let lin = Lin.of_circuit Lin.One_d c in
          flow.Flow.total_volume <= lin.Lin.total_volume )

let oracle ~max_qubits ~max_gates =
  Prop
    ( "oracle-agreement",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        let flow = Flow.run ~options:(options_with_seed salt) c in
        let report = Verify.verify (verify_input_of_flow flow) in
        let oracle_ok = Verify.ok report in
        let pipeline_ok =
          match Flow.validate flow with Ok () -> true | Error _ -> false
        in
        (* The router may exhaust its rip-up budget and admit defeat; the
           differential claim is agreement: a fully routed layout passes
           both validators, an incomplete one is rejected by both — the
           oracle rediscovering the failure from geometry alone. *)
        match flow.Flow.routing.Tqec_route.Router.failed with
        | [] -> oracle_ok && pipeline_ok
        | _ :: _ -> (not oracle_ok) && not pipeline_ok )

(* --- incremental-evaluation coherence (PR3 perf work) --- *)

module Bstar = Tqec_place.Bstar
module Rng = Tqec_prelude.Rng

type bstar_op =
  | Swap of int * int
  | Move of int * int      (* block, rng seed for the re-insertion point *)
  | Set_dims of int * (int * int)
  | Copy                   (* continue on a copy; the original is retained *)
  | Warm                   (* populate the cache *)

let block_dims_gen = Gen.pair (Gen.int_range 1 6) (Gen.int_range 1 6)

(* Mutations of a tree over [n] blocks; [Copy] only when [copies]. *)
let bstar_op n ~copies =
  let open Gen in
  let block = int_bound n in
  frequency
    ([ (3, map2 (fun a b -> Swap (a, b)) block block);
       (3, map2 (fun b s -> Move (b, s)) block (int_bound 1_000_000));
       (2, map2 (fun b d -> Set_dims (b, d)) block block_dims_gen) ]
     @ (if copies then [ (1, const Copy) ] else [])
     @ [ (2, const Warm) ])

let bstar_arbitrary =
  let open Gen in
  let gen =
    bind (int_range 2 12) (fun n ->
        pair (array_n n block_dims_gen) (list ~max_len:32 (bstar_op n ~copies:true)))
  in
  Property.make
    ~print:(fun (dims, ops) ->
      Printf.sprintf "%d blocks, %d ops" (Array.length dims) (List.length ops))
    gen

let apply_op t = function
  | Swap (a, b) -> Bstar.swap_blocks t a b
  | Move (b, s) -> Bstar.move_block ~rng:(Rng.create s) t b
  | Set_dims (b, (dx, dy)) -> Bstar.set_block_dims t b dx dy
  | Warm -> ignore (Bstar.pack t)
  | Copy -> ()

let equal_packing (a : Bstar.packing) (b : Bstar.packing) =
  a.Bstar.xs = b.Bstar.xs && a.Bstar.ys = b.Bstar.ys
  && a.Bstar.span_x = b.Bstar.span_x
  && a.Bstar.span_y = b.Bstar.span_y

(* The cached packing must equal a from-scratch evaluation after every
   mutation, and the trees a mutated copy was taken from must keep
   answering from their own (still valid) buffers. *)
let pack_cache =
  Prop
    ( "bstar-pack-cache",
      bstar_arbitrary,
      fun (dims, ops) ->
        let t = ref (Bstar.create dims) in
        let retained = ref [] in
        let coherent tr = equal_packing (Bstar.pack tr) (Bstar.repack tr) in
        List.for_all
          (fun op ->
            (match op with
             | Copy ->
                 retained := !t :: !retained;
                 t := Bstar.copy !t
             | Swap _ | Move _ | Set_dims _ | Warm -> apply_op !t op);
            coherent !t)
          ops
        && List.for_all coherent !retained )

(* (dims, mutations of src, mutations of dst, mutations of src after the
   checkpoint): the two trees start from different states, warm or stale. *)
let checkpoint_arbitrary =
  let open Gen in
  let gen =
    bind (int_range 2 12) (fun n ->
        let ops = list ~max_len:16 (bstar_op n ~copies:false) in
        map2
          (fun (dims, pre_src) (pre_dst, post) -> (dims, pre_src, pre_dst, post))
          (pair (array_n n block_dims_gen) ops)
          (pair ops ops))
  in
  Property.make
    ~print:(fun (dims, a, b, c) ->
      Printf.sprintf "%d blocks, %d/%d/%d ops" (Array.length dims) (List.length a)
        (List.length b) (List.length c))
    gen

(* The annealer's tier checkpoint: after [blit ~src ~dst], mutating and
   re-packing [src] leaves [dst] equal to [src] as it was, answering that
   packing from its own buffer; blitting back restores [src] exactly. *)
let checkpoint =
  Prop
    ( "bstar-checkpoint",
      checkpoint_arbitrary,
      fun (dims, pre_src, pre_dst, post) ->
        let src = Bstar.create dims and dst = Bstar.create dims in
        List.iter (apply_op src) pre_src;
        List.iter (apply_op dst) pre_dst;
        let before = Bstar.copy src in
        let coherent tr = equal_packing (Bstar.pack tr) (Bstar.repack tr) in
        let as_before tr =
          Bstar.equal tr before && coherent tr
          && equal_packing (Bstar.pack tr) (Bstar.repack before)
        in
        Bstar.blit ~src ~dst;
        let copied = Bstar.equal dst before in
        List.iter (apply_op src) post;
        let kept = as_before dst && coherent src in
        Bstar.blit ~src:dst ~dst:src;
        copied && kept && as_before src )

let incremental_cost ~max_qubits ~max_gates =
  Prop
    ( "sa-incremental-cost",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        let icm = Tqec_icm.Icm.of_circuit (Decompose.circuit c) in
        let m = Tqec_modular.Modular.of_icm icm in
        let nets = (Tqec_bridge.Bridge.run m).Tqec_bridge.Bridge.nets in
        let cl = Tqec_place.Cluster.build m in
        let cfg = (options_with_seed salt).Flow.place in
        match
          Tqec_place.Place25d.check_incremental_cost ~iterations:60 cfg cl nets
        with
        | Ok () -> true
        | Error _ -> false )

(* --- content-addressed artifact graph (PR6 cache work) --- *)

module Json = Tqec_obs.Json
module Codecs = Tqec_artifact.Codecs
module Stage = Tqec_artifact.Stage
module Store = Tqec_artifact.Store

(* The stored bytes must parse and render back to themselves, and decoding
   the parsed tree then encoding again must reproduce them too (and hence
   the same content hash) — the path a disk cache hit takes. The cache key
   must be a pure function of the input. Checked per stage on the real
   artifacts of a full pipeline run. *)
let stage_roundtrips (type i o)
    ((module St : Stage.S with type input = i and type output = o) as stage)
    (input : i) (out : o) =
  let bytes = Json.to_string (St.encode out) in
  match Json.of_string bytes with
  | Error _ -> false
  | Ok parsed ->
      let rebytes = Json.to_string (St.encode (St.decode input parsed)) in
      String.equal (Json.to_string parsed) bytes
      && String.equal bytes rebytes
      && Int64.equal
           (Tqec_prelude.Hash.fnv1a64 bytes)
           (Tqec_prelude.Hash.fnv1a64 rebytes)
      && String.equal (Stage.cache_key stage input) (Stage.cache_key stage input)

let artifact_roundtrip ~max_qubits ~max_gates =
  Prop
    ( "artifact-roundtrip",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        let options = options_with_seed salt in
        let trace = Tqec_obs.Trace.noop in
        let pre = Flow.Preprocess.run ~trace c in
        let br_input =
          { Flow.Bridging.bridging = options.Flow.bridging;
            modular = pre.Flow.Preprocess.modular }
        in
        let br = Flow.Bridging.run ~trace br_input in
        let pl_input =
          { Flow.Placement.primal_groups = options.Flow.primal_groups;
            max_group_size = options.Flow.max_group_size;
            config = options.Flow.place;
            modular = pre.Flow.Preprocess.modular;
            nets = br.Flow.Bridging.nets;
            pool = None }
        in
        let pl = Flow.Placement.run ~trace pl_input in
        let rt_input =
          { Flow.Routing.config =
              { options.Flow.route with
                Tqec_route.Router.friend_aware =
                  options.Flow.friend_aware && options.Flow.bridging };
            placement = pl.Flow.Placement.placement;
            nets = br.Flow.Bridging.nets;
            pool = None }
        in
        let rt = Flow.Routing.run ~trace rt_input in
        stage_roundtrips (module Flow.Preprocess) c pre
        && stage_roundtrips (module Flow.Bridging) br_input br
        && stage_roundtrips (module Flow.Placement) pl_input pl
        && stage_roundtrips (module Flow.Routing) rt_input rt )

(* A warm run answered entirely from the cache must be bit-identical to the
   cold run that populated it, with the expected hit/miss counters. Artifact
   equality is checked on canonical bytes — the same representation the
   on-disk cache stores. *)
let cache_warm_identity ~max_qubits ~max_gates =
  Prop
    ( "cache-warm-bit-identity",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        let options = options_with_seed salt in
        let store = Store.create () in
        let cold = Flow.run ~options ~cache:store c in
        let warm = Flow.run ~options ~cache:store c in
        let same_bytes encode a b =
          String.equal (Json.to_string (encode a)) (Json.to_string (encode b))
        in
        cold.Flow.volume = warm.Flow.volume
        && cold.Flow.dims = warm.Flow.dims
        && same_bytes Codecs.of_placement cold.Flow.placement warm.Flow.placement
        && same_bytes Codecs.of_routing cold.Flow.routing warm.Flow.routing
        && Flow.cache_stats cold = (0, 3, 3)
        && Flow.cache_stats warm = (3, 0, 0) )

(* --- restricted-region routing (PR7 speed work) --- *)

module Router = Tqec_route.Router

(* Restricted per-net search regions (paper SIII-D) are the router's main
   throughput lever. Byte-identical results against full-grid regions are
   NOT claimed — and are empirically false: widening a region changes the
   weighted-A* frontier, so equal-cost paths, the rip-up schedule, and
   occasionally the final volume (observed within a few percent, either
   direction) all drift. What the differential run must guarantee is that
   the region machinery (clipping, stride indexing, growth-on-failure,
   region-scoped heuristic floors) never corrupts a layout: both modes
   produce geometry that passes the full validator, and both volumes cover
   the placement and stay within a 1.3x envelope of each other — a
   region-bookkeeping bug shows up as a validation failure or a volume
   blow-up long before it shows up as a subtle drift. *)
let restricted_region ~max_qubits ~max_gates =
  Prop
    ( "route-restricted-region",
      salted_arbitrary ~max_qubits ~max_gates,
      fun (c, salt) ->
        let options = options_with_seed salt in
        let trace = Tqec_obs.Trace.noop in
        let pre = Flow.Preprocess.run ~trace c in
        let br =
          Flow.Bridging.run ~trace
            { Flow.Bridging.bridging = options.Flow.bridging;
              modular = pre.Flow.Preprocess.modular }
        in
        let pl =
          Flow.Placement.run ~trace
            { Flow.Placement.primal_groups = options.Flow.primal_groups;
              max_group_size = options.Flow.max_group_size;
              config = options.Flow.place;
              modular = pre.Flow.Preprocess.modular;
              nets = br.Flow.Bridging.nets;
              pool = None }
        in
        (* Full default pass budget: region growth needs a few extra passes
           to converge, and the claim is about converged runs. *)
        let rcfg =
          { options.Flow.route with
            Tqec_route.Router.friend_aware =
              options.Flow.friend_aware && options.Flow.bridging;
            max_iterations = Router.default_config.Router.max_iterations }
        in
        let placement = pl.Flow.Placement.placement in
        let nets = br.Flow.Bridging.nets in
        let restricted = Router.route rcfg placement nets in
        let full = Router.route ~restrict_regions:false rcfg placement nets in
        let valid r =
          match Router.validate placement r with Ok () -> true | Error _ -> false
        in
        let vr = restricted.Router.volume and vf = full.Router.volume in
        valid restricted && valid full
        && vr >= placement.Tqec_place.Place25d.volume
        && vf >= placement.Tqec_place.Place25d.volume
        && 10 * Int.max vr vf <= 13 * Int.min vr vf )

let all ~max_qubits ~max_gates =
  [ semantics ~max_qubits ~max_gates;
    volume ~max_qubits ~max_gates;
    oracle ~max_qubits ~max_gates;
    pack_cache;
    checkpoint;
    incremental_cost ~max_qubits ~max_gates;
    artifact_roundtrip ~max_qubits ~max_gates;
    cache_warm_identity ~max_qubits ~max_gates;
    restricted_region ~max_qubits ~max_gates ]

let run_prop ?count ?seed (Prop (n, arb, f)) =
  Property.run ?count ?seed ~name:n arb f
