open Tqec_circuit
open Tqec_geom
module Grid = Tqec_route.Grid
module Router = Tqec_route.Router
module Bridge = Tqec_bridge.Bridge
module Flow = Tqec_core.Flow
module Trace = Tqec_obs.Trace

(* --- grid --- *)

let p = Point3.make

let test_grid_block_unblock () =
  let g = Grid.create ~lo:(p 0 0 0) ~hi:(p 4 4 4) in
  Alcotest.(check bool) "initially free" false (Grid.blocked g (p 1 1 1));
  Grid.block g (p 1 1 1);
  Alcotest.(check bool) "blocked" true (Grid.blocked g (p 1 1 1));
  Grid.unblock g (p 1 1 1);
  Alcotest.(check bool) "unblocked" false (Grid.blocked g (p 1 1 1))

let test_grid_out_of_bounds () =
  let g = Grid.create ~lo:(p 0 0 0) ~hi:(p 2 2 2) in
  Alcotest.(check bool) "outside is blocked" true (Grid.blocked g (p 5 0 0));
  Alcotest.(check bool) "negative is blocked" true (Grid.blocked g (p (-1) 0 0))

let test_grid_block_box () =
  let g = Grid.create ~lo:(p 0 0 0) ~hi:(p 6 6 6) in
  Grid.block_box g (Cuboid.of_origin_size (p 1 1 1) ~w:2 ~h:2 ~d:2);
  Alcotest.(check bool) "inside blocked" true (Grid.blocked g (p 2 2 2));
  Alcotest.(check bool) "outside free" false (Grid.blocked g (p 4 4 4))

let test_grid_negative_origin () =
  let g = Grid.create ~lo:(p (-3) (-3) (-3)) ~hi:(p 3 3 3) in
  Grid.block g (p (-2) (-2) (-2));
  Alcotest.(check bool) "negative coords work" true (Grid.blocked g (p (-2) (-2) (-2)));
  Alcotest.(check bool) "origin free" false (Grid.blocked g (p 0 0 0))

let test_grid_encode_decode () =
  let g = Grid.create ~lo:(p (-2) (-1) 0) ~hi:(p 3 4 5) in
  let ok = ref true in
  for c = 0 to Grid.size g - 1 do
    if Grid.encode g (Grid.decode g c) <> c then ok := false
  done;
  Alcotest.(check bool) "encode/decode roundtrip" true !ok

(* --- router on real flows --- *)

(* Every router test runs once per search kernel: the suites below are built
   by [router_suite] for [Dial] and for [Reference]. *)
let routed_flow ?(friend_aware = true) ?(bridging = true) ~kernel gates ~n =
  let icm = Tqec_icm.Icm.of_circuit (Circuit.make ~name:"t" ~num_qubits:n gates) in
  let m = Tqec_modular.Modular.of_icm icm in
  let nets = if bridging then (Bridge.run m).Bridge.nets else Bridge.naive_nets m in
  let cl = Tqec_place.Cluster.build m in
  let cfg =
    { Tqec_place.Place25d.default_config with
      Tqec_place.Place25d.tiers = Some 2;
      sa = { Tqec_place.Sa.default_params with Tqec_place.Sa.iterations = 1500 } }
  in
  let placement = Tqec_place.Place25d.place cfg cl nets in
  let rcfg = { Router.default_config with Router.friend_aware } in
  (placement, nets, Router.route ~kernel rcfg placement nets)

let gates_small =
  [ Gate.Cnot { control = 0; target = 1 };
    Gate.Cnot { control = 1; target = 2 };
    Gate.Cnot { control = 0; target = 2 } ]

let test_route_all_nets kernel () =
  let placement, nets, r = routed_flow ~kernel gates_small ~n:3 in
  Alcotest.(check int) "no failures" 0 (List.length r.Router.failed);
  Alcotest.(check int) "all routed" (List.length nets) (List.length r.Router.routed);
  match Router.validate placement r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_route_paths_avoid_modules kernel () =
  let placement, _, r = routed_flow ~kernel gates_small ~n:3 in
  let modular = placement.Tqec_place.Place25d.cluster.Tqec_place.Cluster.modular in
  let boxes =
    Array.to_list modular.Tqec_modular.Modular.modules
    |> List.map (fun md ->
           Tqec_place.Place25d.module_box placement md.Tqec_modular.Modular.module_id)
  in
  let pins =
    List.concat_map
      (fun rn ->
        [ Tqec_place.Place25d.pin_position placement rn.Router.net.Bridge.pin_a;
          Tqec_place.Place25d.pin_position placement rn.Router.net.Bridge.pin_b ])
      r.Router.routed
  in
  (* Interior path cells never sit inside a module; endpoints may (pins). *)
  List.iter
    (fun rn ->
      match rn.Router.path with
      | [] | [ _ ] -> ()
      | _ :: interior_and_last ->
          let interior = List.filteri (fun i _ -> i < List.length interior_and_last - 1) interior_and_last in
          List.iter
            (fun cell ->
              if not (List.exists (Point3.equal cell) pins) then
                List.iter
                  (fun box ->
                    if Cuboid.contains_point box cell then
                      Alcotest.fail
                        (Printf.sprintf "net %d interior cell %s inside a module"
                           rn.Router.net.Bridge.net_id (Point3.to_string cell)))
                  boxes)
            interior)
    r.Router.routed

let test_route_deterministic kernel () =
  let _, _, r1 = routed_flow ~kernel gates_small ~n:3 in
  let _, _, r2 = routed_flow ~kernel gates_small ~n:3 in
  Alcotest.(check int) "same volume" r1.Router.volume r2.Router.volume;
  Alcotest.(check int) "same routed count" (List.length r1.Router.routed)
    (List.length r2.Router.routed)

let test_route_t_gadget kernel () =
  let placement, nets, r = routed_flow ~kernel [ Gate.T 0 ] ~n:2 in
  Alcotest.(check int) "all nets routed" (List.length nets) (List.length r.Router.routed);
  match Router.validate placement r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_route_friend_toggle kernel () =
  (* Friend-aware routing must stay valid and never route fewer nets. *)
  let _, nets_f, rf = routed_flow ~friend_aware:true ~kernel [ Gate.T 0 ] ~n:2 in
  let _, _, rn = routed_flow ~friend_aware:false ~kernel [ Gate.T 0 ] ~n:2 in
  Alcotest.(check int) "friend: all routed" (List.length nets_f)
    (List.length rf.Router.routed);
  Alcotest.(check int) "no-friend: all routed" (List.length nets_f)
    (List.length rn.Router.routed)

let test_route_volume_covers_placement kernel () =
  let placement, _, r = routed_flow ~kernel gates_small ~n:3 in
  Alcotest.(check bool) "routed volume >= placed volume" true
    (r.Router.volume >= placement.Tqec_place.Place25d.volume)

let test_route_without_bridging kernel () =
  let placement, nets, r = routed_flow ~bridging:false ~kernel gates_small ~n:3 in
  Alcotest.(check int) "9 naive nets" 9 (List.length nets);
  Alcotest.(check int) "all routed" 9 (List.length r.Router.routed);
  match Router.validate placement r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- search kernels --- *)

module Search = Router.Search

(* A pinned set of arena scenarios: each builds the same setup twice (the
   arenas own cumulative counters) and must produce byte-identical paths and
   identical expansion/push counts from the Dial and the Binheap reference
   kernels, in both heuristic modes — searched once on the fresh arena, and
   once more after each [path_edits] entry changed the middle cell of the
   first path at the same present penalty. The Dial kernel reads a
   step-cost field that survives between searches at one penalty, so an
   arena setter that failed to invalidate it would leave Dial pricing the
   old cell while the reference kernel, which recomputes every cost, sees
   the new one. *)
let kernel_scenarios =
  let wall_maze t =
    (* A y-z wall at x=4 with one gap, plus a second wall at x=7. *)
    for y = 0 to 5 do
      for z = 0 to 2 do
        if not (y = 4 && z = 1) then Search.block t (p 4 y z);
        if not (y = 0 && z = 0) then Search.block t (p 7 y z)
      done
    done
  in
  let history_hills t =
    for x = 0 to 9 do
      for y = 0 to 5 do
        Search.set_history t (p x y 0) (0.25 *. float_of_int ((x + y) mod 4))
      done
    done;
    Search.set_occ t (p 5 2 0) 1;
    Search.set_occ t (p 5 3 0) 2
  in
  let full = Cuboid.make (p 0 0 0) (p 10 6 3) in
  [ ("straight", (fun _ -> ()), full, [ p 0 0 0 ], [ p 9 5 2 ], p 9 5 2);
    ("maze", wall_maze, full, [ p 0 0 0 ], [ p 9 0 0 ], p 9 0 0);
    ("history", history_hills, full, [ p 0 0 0 ], [ p 9 5 0 ], p 9 5 0);
    ( "multi start/goal",
      wall_maze,
      full,
      [ p 0 0 0; p 0 5 2; p 2 3 1 ],
      [ p 9 0 0; p 9 5 2 ],
      p 9 0 0 );
    ( "restricted region",
      (fun _ -> ()),
      Cuboid.make (p 1 1 0) (p 9 5 2),
      [ p 0 0 0; p 1 1 0 ],
      [ p 8 4 1 ],
      p 8 4 1 ) ]

let path_edits =
  [ ("block", Search.block);
    ("set_occ", fun t cell -> Search.set_occ t cell 3);
    ("set_history", fun t cell -> Search.set_history t cell 4.0) ]

let run_scenario ?edit kernel exact (_, setup, region, starts, goals, target) =
  let t = Search.make ~lo:(p 0 0 0) ~hi:(p 10 6 3) in
  setup t;
  let search () = Search.run ~kernel ~exact t ~region ~starts ~goals ~target in
  let path = search () in
  let path =
    match (edit, path) with
    | Some (_, apply), Some cells ->
        apply t (List.nth cells (List.length cells / 2));
        search ()
    | _ -> path
  in
  (path, Search.expansions t, Search.pushes t)

let test_kernel_equivalence () =
  List.iter
    (fun scenario ->
      let name, _, _, _, _, _ = scenario in
      List.iter
        (fun edit ->
          List.iter
            (fun exact ->
              let label s =
                Printf.sprintf "%s%s (exact=%b): %s" name
                  (match edit with Some (e, _) -> ", then " ^ e | None -> "")
                  exact s
              in
              let pd, ed, hd = run_scenario ?edit Search.Dial exact scenario in
              let pr, er, hr =
                run_scenario ?edit Search.Reference exact scenario
              in
              (match (edit, pd) with
              | None, None -> Alcotest.fail (label "dial kernel found no path")
              | _ -> ());
              Alcotest.(check (list string))
                (label "byte-identical path")
                (match pd with Some l -> List.map Point3.to_string l | None -> [])
                (match pr with Some l -> List.map Point3.to_string l | None -> []);
              Alcotest.(check int) (label "same expansions") ed er;
              Alcotest.(check int) (label "same pushes") hd hr)
            [ false; true ])
        (None :: List.map Option.some path_edits))
    kernel_scenarios

(* The exact-admissible heuristic must never exceed the true remaining cost,
   exhaustively checked by backward Dijkstra over every cell of small
   regions — including a saturated-history arena where the folded per-step
   floor [minc] is strictly positive. *)
let test_heuristic_admissible () =
  let arenas =
    [ ("empty", fun _ -> ());
      ( "maze+history",
        fun t ->
          Search.block t (p 2 1 0);
          Search.block t (p 2 2 0);
          Search.block t (p 3 3 1);
          Search.set_history t (p 1 1 0) 0.75;
          Search.set_history t (p 4 2 1) 1.5;
          Search.set_occ t (p 1 2 0) 2 );
      ( "saturated history",
        fun t ->
          for x = 0 to 5 do
            for y = 0 to 4 do
              for z = 0 to 1 do
                Search.set_history t (p x y z) (2.0 +. (0.125 *. float_of_int x))
              done
            done
          done ) ]
  in
  let region = Cuboid.make (p 0 0 0) (p 6 5 2) in
  let target = p 5 4 1 in
  List.iter
    (fun (name, setup) ->
      let t = Search.make ~lo:(p 0 0 0) ~hi:(p 6 5 2) in
      setup t;
      let true_cost = Search.true_costs t ~region ~target in
      let checked = ref 0 in
      for x = 0 to 5 do
        for y = 0 to 4 do
          for z = 0 to 1 do
            let cell = p x y z in
            match true_cost cell with
            | None -> ()
            | Some tc ->
                incr checked;
                let h = Search.heuristic ~exact:true t ~region ~target cell in
                if h > tc then
                  Alcotest.fail
                    (Printf.sprintf "%s: h(%s)=%d exceeds true cost %d" name
                       (Point3.to_string cell) h tc)
          done
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: checked most cells" name)
        true (!checked > 40))
    arenas

(* Regression for the historical off-by-one: the budget aborts after exactly
   [max_expansions] genuine expansions — stale and terminal pops are not
   counted, and a start that is already a goal costs zero expansions. *)
let test_expansion_budget () =
  let corridor () = Search.make ~lo:(p 0 0 0) ~hi:(p 8 1 1) in
  let region = Cuboid.make (p 0 0 0) (p 8 1 1) in
  let t = corridor () in
  let path =
    Search.run ~exact:true t ~region ~starts:[ p 0 0 0 ] ~goals:[ p 7 0 0 ]
      ~target:(p 7 0 0)
  in
  Alcotest.(check bool) "corridor routes" true (path <> None);
  Alcotest.(check int) "corridor expands each interior cell once" 7
    (Search.expansions t);
  (* Budget one below the requirement: abort, with the counter stopping at
     exactly the budget. *)
  let t = corridor () in
  let path =
    Search.run ~exact:true ~max_expansions:6 t ~region ~starts:[ p 0 0 0 ]
      ~goals:[ p 7 0 0 ] ~target:(p 7 0 0)
  in
  Alcotest.(check bool) "under budget fails" true (path = None);
  Alcotest.(check int) "aborts at exactly the budget" 6 (Search.expansions t);
  (* Budget exactly at the requirement succeeds: the goal pop is terminal and
     must not burn budget. *)
  let t = corridor () in
  let path =
    Search.run ~exact:true ~max_expansions:7 t ~region ~starts:[ p 0 0 0 ]
      ~goals:[ p 7 0 0 ] ~target:(p 7 0 0)
  in
  Alcotest.(check bool) "exact budget routes" true (path <> None);
  Alcotest.(check int) "exact budget expansions" 7 (Search.expansions t);
  (* A start that is already a goal needs no expansions at all. *)
  let t = corridor () in
  let path =
    Search.run ~exact:true ~max_expansions:0 t ~region ~starts:[ p 3 0 0 ]
      ~goals:[ p 3 0 0 ] ~target:(p 3 0 0)
  in
  Alcotest.(check bool) "trivial route with zero budget" true (path <> None);
  Alcotest.(check int) "zero expansions" 0 (Search.expansions t);
  (* Zero budget on a non-trivial search expands nothing and fails. *)
  let t = corridor () in
  let path =
    Search.run ~exact:true ~max_expansions:0 t ~region ~starts:[ p 0 0 0 ]
      ~goals:[ p 7 0 0 ] ~target:(p 7 0 0)
  in
  Alcotest.(check bool) "zero budget fails" true (path = None);
  Alcotest.(check int) "zero budget zero expansions" 0 (Search.expansions t)

(* --- bidirectional kernel ------------------------------------------------ *)

(* A run_bidir result must be a simple axis-connected walk inside [region]
   from [start] to [goal] that visits no blocked interior cell — the contract
   pass-1 routing relies on when it commits the walk as a net's path. *)
let check_bidir_path name t ~region ~start ~goal path =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c then
        Alcotest.fail
          (Printf.sprintf "%s: cell %s repeats (walk not loop-erased)" name
             (Point3.to_string c));
      Hashtbl.add seen c ();
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s inside region" name (Point3.to_string c))
        true
        (Cuboid.contains_point region c))
    path;
  (match path with
  | [] -> Alcotest.fail (name ^ ": empty path")
  | first :: _ ->
      Alcotest.(check string) (name ^ ": starts at start")
        (Point3.to_string start) (Point3.to_string first);
      Alcotest.(check string) (name ^ ": ends at goal")
        (Point3.to_string goal)
        (Point3.to_string (List.nth path (List.length path - 1))));
  let rec steps = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: unit step %s -> %s" name (Point3.to_string a)
             (Point3.to_string b))
          1 (Point3.manhattan a b);
        steps rest
    | _ -> ()
  in
  steps path;
  ignore t

let test_bidir_simple_corridor () =
  let t = Search.make ~lo:(p 0 0 0) ~hi:(p 8 1 1) in
  let region = Cuboid.make (p 0 0 0) (p 8 1 1) in
  let start = p 0 0 0 and goal = p 7 0 0 in
  match Search.run_bidir t ~region ~start ~goal with
  | None -> Alcotest.fail "corridor: no path"
  | Some path ->
      check_bidir_path "corridor" t ~region ~start ~goal path;
      Alcotest.(check int) "corridor: optimal length" 8 (List.length path);
      Alcotest.(check int) "corridor: one bidir search" 1 (Search.bidir_searches t)

let test_bidir_around_wall () =
  (* A wall with a single gap: both frontiers must funnel through it and the
     glued walk must stay simple. *)
  let t = Search.make ~lo:(p 0 0 0) ~hi:(p 7 5 2) in
  for y = 0 to 4 do
    if y <> 2 then Search.block t (p 3 y 0)
  done;
  for y = 0 to 4 do
    Search.block t (p 3 y 1)
  done;
  let region = Cuboid.make (p 0 0 0) (p 7 5 2) in
  let start = p 0 0 0 and goal = p 6 4 0 in
  match Search.run_bidir t ~region ~start ~goal with
  | None -> Alcotest.fail "wall: no path"
  | Some path ->
      check_bidir_path "wall" t ~region ~start ~goal path;
      List.iter
        (fun c ->
          if c.Point3.x = 3 && not (Point3.equal c (p 3 2 0)) then
            Alcotest.fail
              (Printf.sprintf "wall: path crosses the wall at %s"
                 (Point3.to_string c)))
        path

let test_bidir_trivial_and_outside () =
  let t = Search.make ~lo:(p 0 0 0) ~hi:(p 6 6 2) in
  let region = Cuboid.make (p 1 1 0) (p 5 5 1) in
  (* start = goal: single-cell path, no expansions needed. *)
  (match Search.run_bidir t ~region ~start:(p 2 2 0) ~goal:(p 2 2 0) with
  | Some [ c ] ->
      Alcotest.(check string) "trivial cell" (Point3.to_string (p 2 2 0))
        (Point3.to_string c)
  | Some _ | None -> Alcotest.fail "trivial: expected the one-cell path");
  (* Either terminal outside the clipped region fails cleanly. *)
  Alcotest.(check bool) "start outside region" true
    (Search.run_bidir t ~region ~start:(p 0 0 0) ~goal:(p 2 2 0) = None);
  Alcotest.(check bool) "goal outside region" true
    (Search.run_bidir t ~region ~start:(p 2 2 0) ~goal:(p 5 5 1) = None)

let test_bidir_budget_exhaustion () =
  let mk () = Search.make ~lo:(p 0 0 0) ~hi:(p 8 1 1) in
  let region = Cuboid.make (p 0 0 0) (p 8 1 1) in
  let start = p 0 0 0 and goal = p 7 0 0 in
  (* Zero budget on a non-trivial search fails without expanding. *)
  let t = mk () in
  Alcotest.(check bool) "zero budget fails" true
    (Search.run_bidir ~max_expansions:0 t ~region ~start ~goal = None);
  Alcotest.(check int) "zero budget zero expansions" 0 (Search.expansions t);
  (* A starved budget fails; a generous one succeeds on the same arena. *)
  let t = mk () in
  Alcotest.(check bool) "starved budget fails" true
    (Search.run_bidir ~max_expansions:2 t ~region ~start ~goal = None);
  let t = mk () in
  Alcotest.(check bool) "ample budget routes" true
    (Search.run_bidir ~max_expansions:64 t ~region ~start ~goal <> None)

let test_bidir_matches_unidir_cost () =
  (* On an uncongested arena with history the meet-in-the-middle walk must
     still cost what the unidirectional kernel pays: same length here, since
     every step costs the same quantum and both are optimal modulo the
     heuristic weighting. *)
  let setup t =
    Search.block t (p 2 1 0);
    Search.block t (p 2 2 0);
    Search.set_history t (p 1 1 0) 0.5
  in
  let t_uni = Search.make ~lo:(p 0 0 0) ~hi:(p 6 4 2) in
  setup t_uni;
  let t_bi = Search.make ~lo:(p 0 0 0) ~hi:(p 6 4 2) in
  setup t_bi;
  let region = Cuboid.make (p 0 0 0) (p 6 4 2) in
  let start = p 0 0 0 and goal = p 5 3 1 in
  let uni =
    Search.run ~exact:true t_uni ~region ~starts:[ start ] ~goals:[ goal ]
      ~target:goal
  in
  let bi = Search.run_bidir ~exact:true t_bi ~region ~start ~goal in
  match (uni, bi) with
  | Some u, Some b ->
      check_bidir_path "uni-vs-bidir" t_bi ~region ~start ~goal b;
      Alcotest.(check int) "same optimal length" (List.length u) (List.length b)
  | _ -> Alcotest.fail "uni-vs-bidir: a kernel found no path"

let test_astar_bench_kernels_agree () =
  let icm =
    Tqec_icm.Icm.of_circuit
      (Circuit.make ~name:"t" ~num_qubits:3 gates_small)
  in
  let m = Tqec_modular.Modular.of_icm icm in
  let nets = (Bridge.run m).Bridge.nets in
  let cl = Tqec_place.Cluster.build m in
  let placement =
    Tqec_place.Place25d.place Tqec_place.Place25d.default_config cl nets
  in
  let counts kernel =
    let search, expansions = Router.astar_bench ~kernel Router.default_config placement nets in
    search ();
    expansions ()
  in
  let ed = counts Router.Dial and er = counts Router.Reference in
  Alcotest.(check bool) "bench search expands" true (ed > 0);
  Alcotest.(check int) "kernels expand identically" ed er

(* One expansion allocates nothing, in either kernel. Each search floods a
   40^3 arena toward a terminal walled into a corner, so it expands every
   reachable cell once (the exact heuristic is consistent) and fails. A
   first flood sizes the region scratch and the open list's buckets; the
   second, identical flood is measured. The unidirectional flood runs the
   Dial kernel's step; the two bidirectional ones, each with a different
   terminal walled in, run the forward and the backward frontier's steps. *)
let test_search_allocation_free () =
  let n = 40 in
  let corner = p 0 0 0 and far = p (n - 1) (n - 1) (n - 1) in
  let region = Cuboid.make (p 0 0 0) (p n n n) in
  let t = Search.make ~lo:(p 0 0 0) ~hi:(p n n n) in
  List.iter (Search.block t) [ p 1 0 0; p 0 1 0; p 0 0 1 ];
  let words_per_expansion what search =
    Alcotest.(check bool) (what ^ ": warm-up flood fails") true (search () = None);
    let e0 = Search.expansions t in
    let w0 = Gc.minor_words () in
    let path = search () in
    let w1 = Gc.minor_words () in
    let expansions = Search.expansions t - e0 in
    Alcotest.(check bool) (what ^ ": flood fails") true (path = None);
    Alcotest.(check bool) (what ^ ": floods the arena") true
      (expansions >= (n * n * n) - 4);
    let per = (w1 -. w0) /. float_of_int expansions in
    if per >= 0.05 then
      Alcotest.failf "%s: %.3f minor words per expansion (%d expansions)" what per
        expansions
  in
  words_per_expansion "dial" (fun () ->
      Search.run ~kernel:Search.Dial ~exact:true t ~region ~starts:[ far ]
        ~goals:[ corner ] ~target:corner);
  words_per_expansion "bidir forward" (fun () ->
      Search.run_bidir ~exact:true t ~region ~start:far ~goal:corner);
  words_per_expansion "bidir backward" (fun () ->
      Search.run_bidir ~exact:true t ~region ~start:corner ~goal:far)

(* One instance of the route-congested benchmark under its options (SA
   2000, 60 passes), placed once and shared by the tests below. *)
let pinned_4gt10 =
  lazy
    (let noop = Trace.noop in
     let circuit =
       Benchmarks.generate ~seed:1000 (Option.get (Benchmarks.find "4gt10-v1_81"))
     in
     let options = Flow.scale_options ~route_iterations:60 Flow.default_options in
     let modular = (Flow.Preprocess.run ~trace:noop circuit).Flow.Preprocess.modular in
     let bridging =
       Flow.Bridging.run ~trace:noop { Flow.Bridging.bridging = true; modular }
     in
     let nets = bridging.Flow.Bridging.nets in
     let placement =
       (Flow.Placement.run ~trace:noop
          { Flow.Placement.primal_groups = true;
            max_group_size = 4;
            config = options.Flow.place;
            modular;
            nets;
            pool = None })
         .Flow.Placement.placement
     in
     (options, modular, bridging, nets, placement))

(* The routing of the pinned instance, pinned bit for bit. A change to the
   search kernels or their scratch must leave the routed layout, its bytes
   in Layout_json's fixed rendering and the search work unchanged, and the layout must route
   every net and pass the independent geometry oracle. Both kernels produce
   the same layout, bytes and search counts. Routing is sequential, so the
   pool passed to [Router.route] changes nothing: every count is pinned for
   [domains] 1 and 3 alike. *)
let test_route_pinned_4gt10 ~domains kernel () =
  let module Pool = Tqec_prelude.Pool in
  let options, modular, bridging, nets, placement = Lazy.force pinned_4gt10 in
  let pool = Pool.create ~domains () in
  let trace = Trace.root "routing" in
  let r =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Router.route ~trace ~pool ~kernel options.Flow.route placement nets)
  in
  Trace.close trace;
  Alcotest.(check (list int)) "no failed nets" []
    (List.map (fun n -> n.Bridge.net_id) r.Router.failed);
  List.iter
    (fun name -> Alcotest.(check int) name 0 (Trace.counter trace name))
    [ "nets_parked"; "nets_pending" ];
  let oracle =
    Tqec_verify.Verify.(
      first_error
        (verify
           { modular; placement; routing = r; nets;
             bridge = bridging.Flow.Bridging.bridge }))
  in
  Alcotest.(check (option string)) "geometry oracle accepts" None oracle;
  Alcotest.(check int) "volume" 76752 r.Router.volume;
  Alcotest.(check int) "iterations_used" 7 r.Router.iterations_used;
  Alcotest.(check int) "routed_first_iteration" 335 r.Router.routed_first_iteration;
  Alcotest.(check int) "astar_expansions" 550984
    (Trace.counter trace "astar_expansions");
  Alcotest.(check int) "heap_pushes" 1118711 (Trace.counter trace "heap_pushes");
  Alcotest.(check int) "bidir_searches" 217 (Trace.counter trace "bidir_searches");
  Alcotest.(check string) "routing sha256"
    "050d1459ae71cb58a36ce43c712a806cd9cdd2d6416e3e9694a45676c984e1ec"
    (Layout_json.digest (Layout_json.routing r))

(* Every failed net is counted under exactly one reason: parked by the
   give-up rule, or still pending when the pass cap hit. One pass leaves the
   ripped nets of the pinned instance pending. *)
let test_failed_net_accounting kernel () =
  let _, _, _, nets, placement = Lazy.force pinned_4gt10 in
  let trace = Trace.root "routing" in
  let r =
    Router.route ~trace ~kernel
      { Router.default_config with Router.max_iterations = 1 }
      placement nets
  in
  Trace.close trace;
  let count = Trace.counter trace in
  let failed = List.length r.Router.failed in
  Alcotest.(check bool) "some nets fail" true (failed > 0);
  Alcotest.(check int) "nets_failed" failed (count "nets_failed");
  Alcotest.(check int) "parked + pending" failed
    (count "nets_parked" + count "nets_pending")

let prop_route_random_circuits_valid kernel =
  QCheck.Test.make ~name:"routing validates on random circuits" ~count:8
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_bound 4))
    (fun ops ->
      let gates =
        List.map
          (fun op ->
            match op with
            | 0 -> Gate.Cnot { control = 0; target = 1 }
            | 1 -> Gate.Cnot { control = 1; target = 2 }
            | 2 -> Gate.T 1
            | 3 -> Gate.Cnot { control = 2; target = 0 }
            | _ -> Gate.T 0)
          ops
      in
      let placement, _, r = routed_flow ~kernel gates ~n:3 in
      r.Router.failed = [] && Router.validate placement r = Ok ())

let router_suite kernel =
  let name =
    match kernel with
    | Router.Dial -> "route.router"
    | Router.Reference -> "route.router.ref"
  in
  ( name,
    [ Alcotest.test_case "routes all nets" `Quick (test_route_all_nets kernel);
      Alcotest.test_case "avoids modules" `Quick
        (test_route_paths_avoid_modules kernel);
      Alcotest.test_case "deterministic" `Quick (test_route_deterministic kernel);
      Alcotest.test_case "T gadget" `Quick (test_route_t_gadget kernel);
      Alcotest.test_case "friend toggle" `Quick (test_route_friend_toggle kernel);
      Alcotest.test_case "volume covers placement" `Quick
        (test_route_volume_covers_placement kernel);
      Alcotest.test_case "without bridging" `Quick
        (test_route_without_bridging kernel);
      Alcotest.test_case "pinned 4gt10 instance" `Quick
        (test_route_pinned_4gt10 ~domains:1 kernel);
      Alcotest.test_case "pinned 4gt10, 3 domains" `Quick
        (test_route_pinned_4gt10 ~domains:3 kernel);
      Alcotest.test_case "failed-net accounting" `Quick
        (test_failed_net_accounting kernel);
      QCheck_alcotest.to_alcotest (prop_route_random_circuits_valid kernel) ] )

let suites =
  [ ( "route.grid",
      [ Alcotest.test_case "block/unblock" `Quick test_grid_block_unblock;
        Alcotest.test_case "out of bounds" `Quick test_grid_out_of_bounds;
        Alcotest.test_case "block box" `Quick test_grid_block_box;
        Alcotest.test_case "negative origin" `Quick test_grid_negative_origin;
        Alcotest.test_case "encode/decode" `Quick test_grid_encode_decode ] );
    router_suite Router.Dial;
    router_suite Router.Reference;
    ( "route.kernel",
      [ Alcotest.test_case "dial = reference on pinned arenas" `Quick
          test_kernel_equivalence;
        Alcotest.test_case "exact heuristic admissible" `Quick test_heuristic_admissible;
        Alcotest.test_case "expansion budget exact" `Quick test_expansion_budget;
        Alcotest.test_case "astar_bench kernels agree" `Quick
          test_astar_bench_kernels_agree;
        Alcotest.test_case "expansions allocate nothing" `Quick
          test_search_allocation_free ] );
    ( "route.bidir",
      [ Alcotest.test_case "simple corridor" `Quick test_bidir_simple_corridor;
        Alcotest.test_case "around a wall" `Quick test_bidir_around_wall;
        Alcotest.test_case "trivial and outside region" `Quick
          test_bidir_trivial_and_outside;
        Alcotest.test_case "budget exhaustion" `Quick test_bidir_budget_exhaustion;
        Alcotest.test_case "matches unidirectional cost" `Quick
          test_bidir_matches_unidir_cost ] ) ]
