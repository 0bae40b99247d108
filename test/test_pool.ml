(* Taskpool determinism contract (lib/prelude/pool.ml): ordered results
   under adversarial chunk sizes, first-failure propagation with chunk
   cancellation, nested-submission fail-fast, and the end-to-end guarantee
   that the whole pipeline is bit-identical for every domain count. *)

open Tqec_circuit
module Pool = Tqec_prelude.Pool
module Rng = Tqec_prelude.Rng
module Flow = Tqec_core.Flow
module Router = Tqec_route.Router
module P = Tqec_place.Place25d

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Results are a pure function of the task index: every (domains, chunk)
   combination must reproduce Array.init exactly, including chunk sizes
   that do not divide the task count and chunks larger than the job, and
   must run each task exactly once. Tasks only count their runs; the checks
   run on the main domain afterwards, because Alcotest's reporter is not
   domain-safe. *)
let test_init_ordering () =
  let n = 97 in
  let expected = Array.init n (fun i -> (i * i) - (3 * i)) in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun chunk ->
              let runs = Array.init n (fun _ -> Atomic.make 0) in
              let got =
                Pool.parallel_init pool ~chunk n (fun i ->
                    Atomic.incr runs.(i);
                    (i * i) - (3 * i))
              in
              let label = Printf.sprintf "domains=%d chunk=%d" domains chunk in
              Alcotest.(check bool) label true (got = expected);
              Alcotest.(check bool) (label ^ ": every task ran once") true
                (Array.for_all (fun r -> Atomic.get r = 1) runs))
            [ 1; 2; 3; 7; 16; 96; 97; 1000 ]))
    [ 1; 2; 3; 4 ]

let test_map_matches_sequential () =
  let input = Array.init 41 (fun i -> i * 5) in
  let f x = Printf.sprintf "<%d>" (x + 1) in
  let expected = Array.map f input in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "map domains=%d" domains)
            true
            (Pool.parallel_map pool f input = expected)))
    [ 1; 3 ]

let test_iteri_disjoint_writes () =
  let input = Array.init 50 (fun i -> i + 100) in
  with_pool ~domains:3 (fun pool ->
      let out = Array.make 50 0 in
      Pool.parallel_iteri pool (fun i x -> out.(i) <- x * 2) input;
      Alcotest.(check bool) "iteri wrote every slot" true
        (out = Array.map (fun x -> x * 2) input))

(* The first failing chunk (lowest chunk index) wins even when a later
   chunk fails first in wall-clock time, and unclaimed chunks are
   cancelled rather than run. *)
let test_exception_propagation () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let executed = Atomic.make 0 in
          let n = 10_000 in
          (match
             Pool.parallel_init pool n (fun i ->
                 Atomic.incr executed;
                 if i = 3 || i = 10 then failwith (string_of_int i))
           with
          | _ -> Alcotest.fail "expected the job to raise"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "lowest failing index wins (domains=%d)" domains)
                "3" msg);
          Alcotest.(check bool)
            (Printf.sprintf "failure cancels unclaimed chunks (domains=%d)" domains)
            true
            (Atomic.get executed < n);
          (* The pool survives a failed job. *)
          Alcotest.(check bool) "pool usable after failure" true
            (Pool.parallel_init pool 5 Fun.id = [| 0; 1; 2; 3; 4 |])))
    [ 1; 4 ]

let test_nested_fail_fast () =
  with_pool ~domains:2 (fun pool ->
      (match
         Pool.parallel_init pool 4 (fun _ ->
             Pool.parallel_init pool 4 Fun.id)
       with
      | _ -> Alcotest.fail "nested submission must not be accepted"
      | exception Failure _ -> ());
      Alcotest.(check bool) "pool usable after nested rejection" true
        (Pool.parallel_init pool 3 Fun.id = [| 0; 1; 2 |]))

let test_in_worker_flag () =
  Alcotest.(check bool) "not in worker outside a job" false (Pool.in_worker ());
  with_pool ~domains:2 (fun pool ->
      let flags = Pool.parallel_init pool 8 (fun _ -> Pool.in_worker ()) in
      Alcotest.(check bool) "in worker inside every task" true
        (Array.for_all Fun.id flags));
  Alcotest.(check bool) "flag cleared after the job" false (Pool.in_worker ())

let test_shutdown_semantics () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check int) "domains clamped as requested" 3 (Pool.domains pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.parallel_init pool 2 Fun.id with
  | _ -> Alcotest.fail "submission after shutdown must raise"
  | exception Failure _ -> ()

let test_tasks_per_worker () =
  with_pool ~domains:2 (fun pool ->
      let (_ : int array) = Pool.parallel_init pool 40 Fun.id in
      let per_worker = Pool.tasks_per_worker pool in
      Alcotest.(check int) "one utilization slot per domain" 2
        (Array.length per_worker);
      Alcotest.(check int) "chunks executed sum to the job size" 40
        (Array.fold_left ( + ) 0 per_worker))

(* Rng.stream: per-task streams are a pure function of (root, index) and
   pairwise independent in their first draws. *)
let test_rng_streams () =
  let draw i = Rng.int64 (Rng.stream ~root:42 i) in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "stream %d reproducible" i)
        true
        (draw i = Rng.int64 (Rng.stream ~root:42 i)))
    [ 0; 1; 5 ];
  let firsts = List.init 8 draw in
  Alcotest.(check int) "first draws pairwise distinct" 8
    (List.length (List.sort_uniq compare firsts))

let fast_options =
  Flow.scale_options ~sa_iterations:1500 ~route_iterations:15 Flow.default_options

let fig4_circuit () =
  Circuit.make ~name:"fig4" ~num_qubits:3
    [ Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 2 };
      Gate.Cnot { control = 0; target = 2 } ]

let run_with_domains ~options ~domains circuit =
  with_pool ~domains (fun pool -> Flow.run ~options ~pool circuit)

(* The determinism guarantee: the compressed layout — volume AND the exact
   routed geometry — is bit-identical whether the pipeline runs on a
   1-domain or a multi-domain pool. *)
let test_flow_bit_identical_across_domains () =
  let circuit = fig4_circuit () in
  let f1 = run_with_domains ~options:fast_options ~domains:1 circuit in
  let f3 = run_with_domains ~options:fast_options ~domains:3 circuit in
  Alcotest.(check int) "same volume" f1.Flow.volume f3.Flow.volume;
  Alcotest.(check bool) "same routed geometry" true
    (Router.routed_segments f1.Flow.routing
    = Router.routed_segments f3.Flow.routing);
  Alcotest.(check int) "same rip-up schedule"
    f1.Flow.routing.Router.iterations_used f3.Flow.routing.Router.iterations_used

(* Multi-start placement: with chains > 1 the chains' RNG streams are keyed
   by chain index, so the winning placement (and hence the whole layout) is
   also independent of the domain count. *)
let test_multi_chain_deterministic () =
  let options =
    { fast_options with Flow.place = { fast_options.Flow.place with P.chains = 3 } }
  in
  let circuit = fig4_circuit () in
  let f1 = run_with_domains ~options ~domains:1 circuit in
  let f2 = run_with_domains ~options ~domains:2 circuit in
  Alcotest.(check int) "same volume with 3 chains" f1.Flow.volume f2.Flow.volume;
  Alcotest.(check bool) "same routed geometry with 3 chains" true
    (Router.routed_segments f1.Flow.routing
    = Router.routed_segments f2.Flow.routing);
  (* The multi-start telemetry is part of the contract: chain count and the
     (deterministic) winner index are recorded on the placement stage. *)
  Alcotest.(check int) "sa_chains counter" 3 (Flow.stage_counter f1 "placement" "sa_chains");
  let winner = Flow.stage_counter f1 "placement" "sa_winner_chain" in
  Alcotest.(check bool) "winner chain in range" true (winner >= 0 && winner < 3);
  Alcotest.(check int) "winner identical across domain counts" winner
    (Flow.stage_counter f2 "placement" "sa_winner_chain")

let suites =
  [ ( "prelude.pool",
      [ Alcotest.test_case "init ordering under chunk sizes" `Quick test_init_ordering;
        Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
        Alcotest.test_case "iteri disjoint writes" `Quick test_iteri_disjoint_writes;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested fail-fast" `Quick test_nested_fail_fast;
        Alcotest.test_case "in_worker flag" `Quick test_in_worker_flag;
        Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
        Alcotest.test_case "tasks per worker" `Quick test_tasks_per_worker;
        Alcotest.test_case "rng streams" `Quick test_rng_streams;
        Alcotest.test_case "flow bit-identical across domains" `Quick
          test_flow_bit_identical_across_domains;
        Alcotest.test_case "multi-chain deterministic" `Quick
          test_multi_chain_deterministic ] ) ]
