open Tqec_circuit
open Tqec_place
module Rng = Tqec_prelude.Rng

(* --- SA engine --- *)

(* Anneal an [int ref] in place: [step] draws the next value from the
   current one, [undo] puts back the value the last step replaced. *)
let run_int ~rng ~init ~cost ~step params =
  let prev = ref init in
  Sa.run ~rng ~init:(ref init)
    ~copy:(fun x -> ref !x)
    ~blit:(fun ~src ~dst -> dst := !src)
    ~cost:(fun x -> cost !x)
    ~perturb:(fun rng x ->
      prev := !x;
      x := step rng !x)
    ~undo:(fun x -> x := !prev)
    params

let test_sa_minimizes () =
  (* Minimize (x - 7)^2 over integers by +-1 moves. *)
  let rng = Rng.create 1 in
  let cost x = (float_of_int x -. 7.0) ** 2.0 in
  let stats =
    run_int ~rng ~init:100
      ~cost
      ~step:(fun rng x -> if Rng.bool rng then x + 1 else x - 1)
      { Sa.default_params with Sa.iterations = 5000; start_temp = 50.0 }
  in
  Alcotest.(check int) "found the minimum" 7 !(stats.Sa.best)

let test_sa_deterministic () =
  let run () =
    let rng = Rng.create 5 in
    run_int ~rng ~init:50
      ~cost:(fun x -> float_of_int (abs (x - 3)))
      ~step:(fun rng x -> x + Rng.int rng 5 - 2)
      { Sa.default_params with Sa.iterations = 1000 }
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same best" !(a.Sa.best) !(b.Sa.best);
  Alcotest.(check int) "same accepted" a.Sa.accepted b.Sa.accepted

let test_sa_restore_best () =
  let rng = Rng.create 2 in
  let stats =
    run_int ~rng ~init:0
      ~cost:(fun x -> float_of_int (abs x))
      ~step:(fun rng x -> x + Rng.int rng 11 - 5)
      { Sa.iterations = 500; start_temp = 10.0; end_temp = 0.1 }
  in
  Alcotest.(check (float 1e-9)) "best cost matches best" (float_of_int (abs !(stats.Sa.best)))
    stats.Sa.best_cost

(* --- B*-tree --- *)

let blocks_of dims = Bstar.create (Array.of_list dims)

let test_bstar_pack_no_overlap () =
  let t = blocks_of [ (3, 2); (2, 5); (4, 4); (1, 1); (6, 2); (2, 2) ] in
  let p = Bstar.pack ~spacing:0 t in
  let n = Bstar.num_blocks t in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let di, wi = Bstar.block_dims t i and dj, wj = Bstar.block_dims t j in
      let overlap =
        p.Bstar.xs.(i) < p.Bstar.xs.(j) + dj
        && p.Bstar.xs.(j) < p.Bstar.xs.(i) + di
        && p.Bstar.ys.(i) < p.Bstar.ys.(j) + wj
        && p.Bstar.ys.(j) < p.Bstar.ys.(i) + wi
      in
      Alcotest.(check bool) (Printf.sprintf "blocks %d,%d disjoint" i j) false overlap
    done
  done

let test_bstar_spacing () =
  let t = blocks_of [ (2, 2); (2, 2) ] in
  let p = Bstar.pack ~spacing:1 t in
  (* The left child sits at parent's x + dx + spacing. *)
  Alcotest.(check int) "root at origin x" 0 p.Bstar.xs.(0);
  Alcotest.(check bool) "second block leaves a gap" true
    (p.Bstar.xs.(1) >= 3 || p.Bstar.ys.(1) >= 3)

let test_bstar_bounding_box () =
  let t = blocks_of [ (4, 3) ] in
  let p = Bstar.pack ~spacing:1 t in
  Alcotest.(check int) "span_x excludes trailing margin" 4 p.Bstar.span_x;
  Alcotest.(check int) "span_y excludes trailing margin" 3 p.Bstar.span_y

let test_bstar_perturbations_preserve_structure () =
  let rng = Rng.create 3 in
  let t = blocks_of (List.init 20 (fun i -> ((i mod 4) + 1, (i mod 3) + 1))) in
  for _ = 1 to 500 do
    (match Rng.int rng 2 with
     | 0 ->
         let a = Bstar.random_block rng t and b = Bstar.random_block rng t in
         if a <> b then Bstar.swap_blocks t a b
     | _ -> Bstar.move_block ~rng t (Bstar.random_block rng t));
    match Bstar.check t with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let packing_equal a b =
  a.Bstar.xs = b.Bstar.xs && a.Bstar.ys = b.Bstar.ys
  && a.Bstar.span_x = b.Bstar.span_x
  && a.Bstar.span_y = b.Bstar.span_y

let check_coherent msg t =
  Alcotest.(check bool) msg true (packing_equal (Bstar.pack t) (Bstar.repack t))

(* The subtle cache path: swapping two equal-dimension blocks keeps the
   packing geometry but exchanges the blocks' coordinates, and the fixup
   must not mutate a packing shared with an earlier copy. *)
let test_bstar_cache_equal_dims_swap () =
  let t = blocks_of [ (2, 3); (2, 3); (4, 1); (1, 1) ] in
  ignore (Bstar.pack t);
  let before = Bstar.copy t in
  let snapshot = Bstar.pack before in
  Bstar.swap_blocks t 0 1;
  check_coherent "cache coherent after equal-dims swap" t;
  Alcotest.(check bool) "copy's packing untouched by the swap fixup" true
    (packing_equal snapshot (Bstar.repack before))

let test_bstar_cache_invalidation () =
  let t = blocks_of [ (3, 2); (2, 5); (4, 4) ] in
  ignore (Bstar.pack t);
  Bstar.set_block_dims t 1 (2, 5);
  check_coherent "no-op resize keeps a valid cache" t;
  Bstar.set_block_dims t 1 (5, 2);
  check_coherent "real resize invalidates" t;
  let rng = Rng.create 11 in
  Bstar.move_block ~rng t 2;
  check_coherent "move invalidates" t;
  (* Different spacing must never be served from the cache. *)
  let p0 = Bstar.pack ~spacing:0 t and p1 = Bstar.pack ~spacing:1 t in
  Alcotest.(check bool) "spacing distinguishes cache entries" true
    (packing_equal p0 (Bstar.repack ~spacing:0 t)
     && packing_equal p1 (Bstar.repack ~spacing:1 t))

let prop_bstar_pack_area =
  QCheck.Test.make ~name:"packing area >= total block area" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15) (pair (int_range 1 5) (int_range 1 5)))
    (fun dims ->
      let t = blocks_of dims in
      let p = Bstar.pack ~spacing:0 t in
      let total = List.fold_left (fun acc (d, w) -> acc + (d * w)) 0 dims in
      p.Bstar.span_x * p.Bstar.span_y >= total)

let prop_bstar_random_walk_valid =
  QCheck.Test.make ~name:"random perturbation walks keep tree valid" ~count:50
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 2 12) (pair (int_range 1 4) (int_range 1 4))))
    (fun (seed, dims) ->
      let rng = Rng.create seed in
      let t = blocks_of dims in
      let ok = ref true in
      for _ = 1 to 60 do
        (match Rng.int rng 2 with
         | 0 ->
             let a = Bstar.random_block rng t and b = Bstar.random_block rng t in
             if a <> b then Bstar.swap_blocks t a b
         | _ -> Bstar.move_block ~rng t (Bstar.random_block rng t));
        if Bstar.check t <> Ok () then ok := false
      done;
      !ok)

(* --- clustering --- *)

let cluster_of gates ~n ?(primal_groups = true) () =
  let icm = Tqec_icm.Icm.of_circuit (Circuit.make ~name:"t" ~num_qubits:n gates) in
  let m = Tqec_modular.Modular.of_icm icm in
  Cluster.build ~primal_groups m

let test_cluster_covers_all_modules () =
  let cl = cluster_of ~n:2 [ Gate.T 0; Gate.Cnot { control = 0; target = 1 } ] () in
  (match Cluster.validate cl with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "every module clustered" false
    (Array.exists (fun c -> c = -1) cl.Cluster.module_cluster)

let test_cluster_kinds () =
  let cl = cluster_of ~n:2 [ Gate.T 0 ] () in
  let count pred = Array.to_list cl.Cluster.clusters |> List.filter pred |> List.length in
  Alcotest.(check int) "one tdep super" 1
    (count (fun c -> match c.Cluster.kind with Cluster.Tdep _ -> true | _ -> false));
  Alcotest.(check int) "three dist-inj supers" 3
    (count (fun c -> match c.Cluster.kind with Cluster.Dist_inj _ -> true | _ -> false))

let test_cluster_tsl () =
  let cl = cluster_of ~n:2 [ Gate.T 0; Gate.T 0; Gate.T 1 ] () in
  Alcotest.(check int) "qubit 0 TSL length" 2 (List.length cl.Cluster.tsl.(0));
  Alcotest.(check int) "qubit 1 TSL length" 1 (List.length cl.Cluster.tsl.(1))

let test_cluster_equalize_tsl () =
  let cl = cluster_of ~n:2 [ Gate.T 0; Gate.T 0 ] () in
  Cluster.equalize_tsl cl;
  match cl.Cluster.tsl.(0) with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "same dims" true
        (cl.Cluster.clusters.(c1).Cluster.cdims = cl.Cluster.clusters.(c2).Cluster.cdims)
  | _ -> Alcotest.fail "expected two TSL clusters"

let test_primal_groups_reduce_nodes () =
  let gates = List.init 12 (fun i -> Gate.Cnot { control = i mod 3; target = ((i + 1) mod 3) }) in
  let with_groups = cluster_of ~n:3 gates () in
  let without = cluster_of ~n:3 gates ~primal_groups:false () in
  Alcotest.(check bool)
    (Printf.sprintf "groups shrink node count (%d < %d)"
       (Cluster.num_clusters with_groups) (Cluster.num_clusters without))
    true
    (Cluster.num_clusters with_groups < Cluster.num_clusters without);
  (match Cluster.validate with_groups with Ok () -> () | Error e -> Alcotest.fail e);
  (match Cluster.validate without with Ok () -> () | Error e -> Alcotest.fail e)

let test_node_count_ballpark () =
  (* #Nodes for 4gt10 should land in the neighbourhood of the paper's 190. *)
  let spec = Option.get (Benchmarks.find "4gt10-v1_81") in
  let c = Decompose.circuit (Benchmarks.generate spec) in
  let m = Tqec_modular.Modular.of_icm (Tqec_icm.Icm.of_circuit c) in
  let cl = Cluster.build m in
  let n = Cluster.num_clusters cl in
  Alcotest.(check bool) (Printf.sprintf "nodes %d within [140, 280]" n) true
    (n >= 140 && n <= 280)

(* --- 2.5D placement --- *)

let quick_place ?(tiers = 3) ?(iterations = 1500) gates ~n =
  let icm = Tqec_icm.Icm.of_circuit (Circuit.make ~name:"t" ~num_qubits:n gates) in
  let m = Tqec_modular.Modular.of_icm icm in
  let bridge = Tqec_bridge.Bridge.run m in
  let cl = Cluster.build m in
  let cfg =
    { Place25d.default_config with
      Place25d.tiers = Some tiers;
      sa = { Sa.default_params with Sa.iterations = iterations } }
  in
  Place25d.place cfg cl bridge.Tqec_bridge.Bridge.nets

let gates_mixed =
  [ Gate.Cnot { control = 0; target = 1 };
    Gate.T 0;
    Gate.Cnot { control = 1; target = 2 };
    Gate.T 1;
    Gate.T 0;
    Gate.Cnot { control = 2; target = 0 } ]

let test_place_no_overlap () =
  let p = quick_place gates_mixed ~n:3 in
  match Place25d.check_no_overlap p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_place_time_ordering () =
  let p = quick_place gates_mixed ~n:3 in
  match Place25d.check_time_ordering p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_place_dims_positive () =
  let p = quick_place gates_mixed ~n:3 in
  let d, w, h = p.Place25d.dims in
  Alcotest.(check bool) "positive dims" true (d > 0 && w > 0 && h > 0);
  Alcotest.(check int) "volume consistent" (d * w * h) p.Place25d.volume

let test_place_deterministic () =
  let p1 = quick_place gates_mixed ~n:3 and p2 = quick_place gates_mixed ~n:3 in
  Alcotest.(check int) "same volume" p1.Place25d.volume p2.Place25d.volume;
  Alcotest.(check int) "same wirelength" p1.Place25d.wirelength p2.Place25d.wirelength

let test_place_single_cluster () =
  let p = quick_place ~tiers:1 [ Gate.Cnot { control = 0; target = 1 } ] ~n:2 in
  match Place25d.check_no_overlap p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Bit-identity pin on one generated 4gt10-v1_81 instance (10 tiers, 4
   TSL groups: inter-tier swaps and TSL reallocation both happen), at the
   default SA budget and at ten times it. The numbers and the digest of the
   placement artifact are the annealer's observable behaviour; a speed-up
   of the move loop must leave them unchanged. *)
let test_place_pinned_4gt10 () =
  let module Flow = Tqec_core.Flow in
  let noop = Tqec_obs.Trace.noop in
  let circuit =
    Benchmarks.generate ~seed:1000 (Option.get (Benchmarks.find "4gt10-v1_81"))
  in
  let modular = (Flow.Preprocess.run ~trace:noop circuit).Flow.Preprocess.modular in
  let nets =
    (Flow.Bridging.run ~trace:noop { Flow.Bridging.bridging = true; modular })
      .Flow.Bridging.nets
  in
  List.iter
    (fun (iterations, volume, wirelength, accepted, improved, digest) ->
      let options = Flow.scale_options ~sa_iterations:iterations Flow.default_options in
      let p =
        (Flow.Placement.run ~trace:noop
           { Flow.Placement.primal_groups = true;
             max_group_size = 4;
             config = options.Flow.place;
             modular;
             nets;
             pool = None })
          .Flow.Placement.placement
      in
      let at what = Printf.sprintf "SA %d %s" iterations what in
      Alcotest.(check int) (at "volume") volume p.Place25d.volume;
      Alcotest.(check int) (at "wirelength") wirelength p.Place25d.wirelength;
      Alcotest.(check int) (at "sa_accepted") accepted p.Place25d.sa_accepted;
      Alcotest.(check int) (at "sa_improved") improved p.Place25d.sa_improved;
      Alcotest.(check string) (at "placement sha256") digest
        (Tqec_prelude.Hash.sha256_hex
           (Tqec_obs.Json.to_string (Tqec_artifact.Codecs.of_placement p))))
    [ (2000, 71440, 16132, 1699, 796,
       "cc0927bbdc489c77ab71f24a305b27023088c299e6f8e8e7824f48b3a48bc44a");
      (20000, 62016, 15252, 16196, 7267,
       "32c7f3c82b1c83fa5fc3e8f3738c86ff8d6a645807e7a80aec7877d773cd1607") ]

(* The annealer's incremental cost (touched-tier repack, net-length deltas)
   against a from-scratch recompute after every move of a 2000-move random
   walk with undos, on the bridged nets of a Table-I row at the default
   placement config. *)
let test_place_incremental_cost_4gt10 () =
  let module Flow = Tqec_core.Flow in
  let noop = Tqec_obs.Trace.noop in
  let circuit =
    Benchmarks.generate ~seed:42 (Option.get (Benchmarks.find "4gt10-v1_81"))
  in
  let modular = (Flow.Preprocess.run ~trace:noop circuit).Flow.Preprocess.modular in
  let nets =
    (Flow.Bridging.run ~trace:noop { Flow.Bridging.bridging = true; modular })
      .Flow.Bridging.nets
  in
  match
    Place25d.check_incremental_cost ~iterations:2000 Place25d.default_config
      (Cluster.build modular) nets
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let prop_place_valid_on_random_circuits =
  QCheck.Test.make ~name:"placement invariants on random circuits" ~count:10
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (int_bound 4))
    (fun ops ->
      let gates =
        List.map
          (fun op ->
            match op with
            | 0 -> Gate.Cnot { control = 0; target = 1 }
            | 1 -> Gate.T 0
            | 2 -> Gate.Cnot { control = 1; target = 2 }
            | 3 -> Gate.T 2
            | _ -> Gate.Cnot { control = 2; target = 0 })
          ops
      in
      let p = quick_place ~iterations:400 gates ~n:3 in
      Place25d.check_no_overlap p = Ok () && Place25d.check_time_ordering p = Ok ())

let suites =
  [ ( "place.sa",
      [ Alcotest.test_case "minimizes" `Quick test_sa_minimizes;
        Alcotest.test_case "deterministic" `Quick test_sa_deterministic;
        Alcotest.test_case "restore best" `Quick test_sa_restore_best ] );
    ( "place.bstar",
      [ Alcotest.test_case "pack no overlap" `Quick test_bstar_pack_no_overlap;
        Alcotest.test_case "spacing" `Quick test_bstar_spacing;
        Alcotest.test_case "bounding box" `Quick test_bstar_bounding_box;
        Alcotest.test_case "cache equal-dims swap" `Quick
          test_bstar_cache_equal_dims_swap;
        Alcotest.test_case "cache invalidation" `Quick test_bstar_cache_invalidation;
        Alcotest.test_case "perturbations valid" `Quick
          test_bstar_perturbations_preserve_structure;
        QCheck_alcotest.to_alcotest prop_bstar_pack_area;
        QCheck_alcotest.to_alcotest prop_bstar_random_walk_valid ] );
    ( "place.cluster",
      [ Alcotest.test_case "covers modules" `Quick test_cluster_covers_all_modules;
        Alcotest.test_case "kinds" `Quick test_cluster_kinds;
        Alcotest.test_case "tsl" `Quick test_cluster_tsl;
        Alcotest.test_case "equalize tsl" `Quick test_cluster_equalize_tsl;
        Alcotest.test_case "primal groups shrink" `Quick test_primal_groups_reduce_nodes;
        Alcotest.test_case "node count ballpark" `Quick test_node_count_ballpark ] );
    ( "place.25d",
      [ Alcotest.test_case "no overlap" `Quick test_place_no_overlap;
        Alcotest.test_case "time ordering" `Quick test_place_time_ordering;
        Alcotest.test_case "dims positive" `Quick test_place_dims_positive;
        Alcotest.test_case "deterministic" `Quick test_place_deterministic;
        Alcotest.test_case "single cluster" `Quick test_place_single_cluster;
        Alcotest.test_case "pinned 4gt10 instance" `Quick test_place_pinned_4gt10;
        Alcotest.test_case "incremental cost on 4gt10" `Quick
          test_place_incremental_cost_4gt10;
        QCheck_alcotest.to_alcotest prop_place_valid_on_random_circuits ] ) ]
