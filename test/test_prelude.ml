open Tqec_prelude

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_decorrelated () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* The first draws, pinned. [int64] against the published SplitMix64
   vectors for seed 1234567; the derived draws against values recorded
   before the state was unboxed. The benchmark corpora are generated from
   these draws, so any change to them changes every generated circuit. *)
let test_rng_pinned_draws () =
  let draws n f = List.init n (fun _ -> f ()) in
  let r = Rng.create 1234567 in
  Alcotest.(check (list string)) "int64, SplitMix64 vectors"
    [ "6457827717110365317"; "3203168211198807973"; "9817491932198370423";
      "4593380528125082431"; "16408922859458223821" ]
    (draws 5 (fun () -> Printf.sprintf "%Lu" (Rng.int64 r)));
  let r = Rng.create 42 in
  Alcotest.(check (list int)) "int" [ 605; 291; 954; 860; 250 ]
    (draws 5 (fun () -> Rng.int r 1000));
  let r = Rng.create 42 in
  Alcotest.(check (list string)) "float"
    [ "0x1.7bae644c5fd6dp-1"; "0x1.477f199d93378p-3"; "0x1.1d499d5c4c3e6p-2" ]
    (draws 3 (fun () -> Printf.sprintf "%h" (Rng.float r 1.0)));
  let r = Rng.create 42 in
  Alcotest.(check (list bool)) "bool"
    [ true; true; false; false; false; false; true; false ]
    (draws 8 (fun () -> Rng.bool r));
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.(check (list int64)) "split child"
    [ 0x57e1faba65107204L; 0xf4abd143feb24055L ]
    (draws 2 (fun () -> Rng.int64 child));
  Alcotest.(check int64) "split parent continues" 0x28efe333b266f103L (Rng.int64 r);
  let st = Rng.stream ~root:42 3 in
  Alcotest.(check (list int64)) "stream"
    [ 0x5155125769ef480fL; 0xf751ab7a3bc9928bL ]
    (draws 2 (fun () -> Rng.int64 st))

(* A draw that ends in an int, float or bool allocates nothing. *)
let test_rng_allocation_free () =
  let r = Rng.create 1 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 7 + Bool.to_int (Rng.bool r)
  done;
  let per = (Gc.minor_words () -. w0) /. 10_000.0 in
  Alcotest.(check bool) "draws stay in range" true (!acc >= 0);
  if per >= 0.05 then Alcotest.failf "%.3f minor words per int and bool draw" per

let test_heap_order () =
  let h = Binheap.create () in
  List.iter (fun k -> Binheap.push h ~key:k (string_of_int k)) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  let keys = ref [] in
  let rec drain () =
    match Binheap.pop h with
    | None -> ()
    | Some (k, _) ->
        keys := k :: !keys;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "descending" [ 9; 6; 5; 4; 3; 2; 1; 1 ] (List.rev !keys)

let test_heap_empty () =
  let h : unit Binheap.t = Binheap.create () in
  Alcotest.(check bool) "empty" true (Binheap.is_empty h);
  Alcotest.(check bool) "pop none" true (Binheap.pop h = None)

let test_heap_peek () =
  let h = Binheap.create () in
  Binheap.push h ~key:2 "two";
  Binheap.push h ~key:7 "seven";
  (match Binheap.peek h with
   | Some (7, "seven") -> ()
   | _ -> Alcotest.fail "peek should be the max");
  Alcotest.(check int) "size unchanged" 2 (Binheap.size h)

let test_heap_clear () =
  let h = Binheap.create () in
  Binheap.push h ~key:1 ();
  Binheap.clear h;
  Alcotest.(check bool) "cleared" true (Binheap.is_empty h)

let heap_property =
  QCheck.Test.make ~name:"heap pops keys in non-increasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Binheap.create () in
      List.iter (fun k -> Binheap.push h ~key:k k) keys;
      let rec drain acc =
        match Binheap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort (fun a b -> Int.compare b a) keys)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial count" 5 (Union_find.count uf);
  Alcotest.(check bool) "union works" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same set" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "different set" false (Union_find.same uf 0 2);
  Alcotest.(check int) "count after one union" 4 (Union_find.count uf)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "transitively joined" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "separate component" false (Union_find.same uf 0 3);
  Alcotest.(check int) "three components" 3 (Union_find.count uf)

let uf_property =
  QCheck.Test.make ~name:"union-find component count is n - effective unions" ~count:200
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      let effective = List.fold_left (fun acc (a, b) ->
        if Union_find.union uf a b then acc + 1 else acc) 0 pairs
      in
      Union_find.count uf = 20 - effective)

let test_stopwatch () =
  let (), dt = Stopwatch.time (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

(* SHA-256 against the FIPS 180-4 / NIST CAVP vectors. *)
let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Hash.sha256_hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Hash.sha256_hex "abc");
  Alcotest.(check string) "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Hash.sha256_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* One byte short of the block boundary exercises the padding edge. *)
  Alcotest.(check string) "63 bytes"
    (Hash.sha256_hex (String.make 63 'a'))
    (Hash.sha256_hex (String.concat "" [ String.make 31 'a'; String.make 32 'a' ]))

let test_sha256_streaming () =
  let one_shot = Hash.sha256_hex "the quick brown fox jumps over the lazy dog" in
  let st = Hash.Sha256.create () in
  Hash.Sha256.add_string st "the quick brown fox ";
  Hash.Sha256.add_string st "jumps over ";
  Hash.Sha256.add_string st "the lazy dog";
  Alcotest.(check string) "incremental = one-shot" one_shot (Hash.Sha256.hex st);
  (* [hex] must not consume the state: appending afterwards still works. *)
  Hash.Sha256.add_string st "!";
  Alcotest.(check string) "state reusable after hex"
    (Hash.sha256_hex "the quick brown fox jumps over the lazy dog!")
    (Hash.Sha256.hex st)

let test_fnv1a64 () =
  (* Standard FNV-1a 64-bit reference values. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Hash.fnv1a64_hex "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (Hash.fnv1a64_hex "a");
  Alcotest.(check string) "foobar" "85944171f73967e8" (Hash.fnv1a64_hex "foobar");
  Alcotest.(check bool) "distinct inputs differ" true
    (not (Int64.equal (Hash.fnv1a64 "bridging") (Hash.fnv1a64 "placement")))

(* --- Dialq ------------------------------------------------------------- *)

let drain_dialq q =
  let rec go acc =
    match Dialq.pop q with None -> List.rev acc | Some kv -> go (kv :: acc)
  in
  go []

let test_dialq_order () =
  let q = Dialq.create () in
  let keys = [ 9; 3; 7; 3; 0; 12; 7; 1 ] in
  List.iteri (fun i k -> Dialq.push q ~key:k (100 + i)) keys;
  Alcotest.(check int) "size" (List.length keys) (Dialq.size q);
  let out = drain_dialq q in
  let ks = List.map fst out in
  Alcotest.(check (list int)) "keys ascend" (List.sort compare keys) ks;
  Alcotest.(check bool) "empty after drain" true (Dialq.is_empty q);
  Alcotest.(check (list int)) "all values present"
    (List.init (List.length keys) (fun i -> 100 + i))
    (List.sort compare (List.map snd out))

let test_dialq_fifo_tie_break () =
  let q = Dialq.create () in
  (* Values sharing key 5 are pushed 1,2,3 interleaved with other keys. *)
  Dialq.push q ~key:5 1;
  Dialq.push q ~key:2 10;
  Dialq.push q ~key:5 2;
  Dialq.push q ~key:8 20;
  Dialq.push q ~key:5 3;
  Alcotest.(check (list (pair int int)))
    "FIFO within key"
    [ (2, 10); (5, 1); (5, 2); (5, 3); (8, 20) ]
    (drain_dialq q)

let test_dialq_empty () =
  let q = Dialq.create () in
  Alcotest.(check bool) "fresh empty" true (Dialq.is_empty q);
  Alcotest.(check (option (pair int int))) "pop empty" None (Dialq.pop q);
  Alcotest.(check (option (pair int int))) "peek empty" None (Dialq.peek q);
  Alcotest.(check int) "pop_min sentinel" min_int (Dialq.pop_min q)

let test_dialq_peek_pop_min () =
  let q = Dialq.create () in
  Dialq.push q ~key:4 44;
  Dialq.push q ~key:2 22;
  Alcotest.(check (option (pair int int))) "peek min" (Some (2, 22)) (Dialq.peek q);
  Alcotest.(check int) "peek does not remove" 2 (Dialq.size q);
  Alcotest.(check int) "pop_min value" 22 (Dialq.pop_min q);
  Alcotest.(check int) "last_key" 2 (Dialq.last_key q);
  Alcotest.(check int) "pop_min value 2" 44 (Dialq.pop_min q);
  Alcotest.(check int) "last_key 2" 4 (Dialq.last_key q)

let test_dialq_clear_reuse () =
  let q = Dialq.create () in
  for gen = 1 to 4 do
    (* Reuse the same queue across generations: stale bucket contents from
       the previous generation must never leak into the next drain. *)
    Dialq.push q ~key:3 (gen * 10);
    Dialq.push q ~key:1 (gen * 10 + 1);
    Dialq.push q ~key:3 (gen * 10 + 2);
    if gen mod 2 = 0 then ignore (Dialq.pop q);
    Dialq.clear q;
    Alcotest.(check bool) "cleared" true (Dialq.is_empty q);
    Dialq.push q ~key:3 gen;
    Alcotest.(check (list (pair int int))) "only new entries" [ (3, gen) ]
      (drain_dialq q)
  done

let test_dialq_key_decrease () =
  (* Weighted A* pushes keys below the last popped key; the scan finger must
     move back rather than skip them. *)
  let q = Dialq.create () in
  Dialq.push q ~key:10 1;
  Dialq.push q ~key:20 2;
  Alcotest.(check (option (pair int int))) "first" (Some (10, 1)) (Dialq.pop q);
  Dialq.push q ~key:4 3;
  Dialq.push q ~key:15 4;
  Alcotest.(check (list (pair int int)))
    "low key pushed after a higher pop still pops first"
    [ (4, 3); (15, 4); (20, 2) ]
    (drain_dialq q)

let test_dialq_last_key_after_clear () =
  let q = Dialq.create () in
  Alcotest.(check int) "sentinel before first pop" min_int (Dialq.last_key q);
  Dialq.push q ~key:6 1;
  Alcotest.(check int) "pop_min value" 1 (Dialq.pop_min q);
  Alcotest.(check int) "tracks pop" 6 (Dialq.last_key q);
  Dialq.clear q;
  Alcotest.(check int) "clear resets to sentinel" min_int (Dialq.last_key q);
  Dialq.push q ~key:2 7;
  Alcotest.(check int) "push leaves sentinel in place" min_int (Dialq.last_key q);
  Alcotest.(check int) "next generation pop value" 7 (Dialq.pop_min q);
  Alcotest.(check int) "next generation key" 2 (Dialq.last_key q)

(* The bidirectional kernel holds one Dialq per frontier; finger movement and
   non-monotone pushes on one queue must never disturb the other's order. *)
let test_dialq_two_queues_interleaved () =
  let a = Dialq.create () and b = Dialq.create () in
  Dialq.push a ~key:9 1;
  Dialq.push b ~key:7 2;
  Dialq.push a ~key:3 3;
  Alcotest.(check (option (pair int int))) "a pops its min" (Some (3, 3))
    (Dialq.pop a);
  (* Push below a's scan finger while interleaving pushes into b. *)
  Dialq.push b ~key:1 4;
  Dialq.push a ~key:0 5;
  Dialq.push b ~key:7 6;
  Alcotest.(check (option (pair int int))) "a's finger moves back" (Some (0, 5))
    (Dialq.pop a);
  Alcotest.(check (list (pair int int)))
    "b unaffected, FIFO on its tie"
    [ (1, 4); (7, 2); (7, 6) ]
    (drain_dialq b);
  Alcotest.(check (list (pair int int))) "a remainder" [ (9, 1) ] (drain_dialq a)

let test_dialq_negative_key () =
  let q = Dialq.create () in
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Dialq.push: negative key") (fun () ->
      Dialq.push q ~key:(-1) 0)

(* Differential property: random interleavings of pushes and pops drain from
   Dialq and from Binheap in identical order, when the Binheap realizes the
   same documented total order (key ascending, FIFO within a key) through the
   composite max-heap key [-(key * 2^bits + push_seq)] — the same encoding
   the router's reference kernel uses. *)
let dialq_vs_binheap_outcome () =
  let module P = Tqec_proptest.Property in
  let module G = Tqec_proptest.Gen in
  let op = G.frequency [ (3, G.map (fun k -> Some k) (G.int_bound 64)); (1, G.const None) ] in
  let arb =
    P.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map (function Some k -> string_of_int k | None -> "pop") ops))
      (G.list ~max_len:200 op)
  in
  P.run ~count:300 ~seed:41 ~name:"dialq-vs-binheap" arb (fun ops ->
      let bits = 21 in
      let q = Dialq.create () and h = Binheap.create () in
      let seq = ref 0 and n = ref 0 in
      let agree = ref true in
      let check_pops () =
        let expect = Dialq.pop q in
        let got =
          match Binheap.pop h with
          | None -> None
          | Some (nk, (k, v)) ->
              if -nk asr bits <> k then agree := false;
              Some (k, v)
        in
        if expect <> got then agree := false
      in
      List.iter
        (fun o ->
          match o with
          | Some k ->
              Dialq.push q ~key:k !n;
              Binheap.push h ~key:(-((k lsl bits) + !seq)) (k, !n);
              incr seq;
              incr n
          | None -> check_pops ())
        ops;
      while not (Dialq.is_empty q) || not (Binheap.is_empty h) do
        check_pops ()
      done;
      !agree)

let test_dialq_vs_binheap () =
  match Tqec_proptest.Property.check (dialq_vs_binheap_outcome ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Two-frontier differential: drive a pair of Dialqs through a random
   interleaving of pushes and pops, then drain them in the bidirectional
   kernel's alternation order (smaller {!Dialq.peek_key} head first). Each
   queue is modeled by its own Binheap realizing the documented total order
   — key ascending, FIFO within a key — so any cross-queue interference or
   finger corruption from the alternating peeks shows up as a divergence. *)
let dialq_two_frontier_outcome () =
  let module P = Tqec_proptest.Property in
  let module G = Tqec_proptest.Gen in
  let op =
    G.pair G.bool
      (G.frequency
         [ (3, G.map (fun k -> Some k) (G.int_bound 64)); (2, G.const None) ])
  in
  let arb =
    P.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (fun (side, o) ->
               Printf.sprintf "%c%s"
                 (if side then 'a' else 'b')
                 (match o with Some k -> string_of_int k | None -> "!"))
             ops))
      (G.list ~max_len:300 op)
  in
  P.run ~count:200 ~seed:57 ~name:"dialq-two-frontier" arb (fun ops ->
      let bits = 21 in
      let mk () = (Dialq.create (), Binheap.create (), ref 0) in
      let a = mk () and b = mk () in
      let n = ref 0 in
      let agree = ref true in
      let check_pop (q, h, _) =
        let expect = Dialq.pop q in
        let got =
          match Binheap.pop h with
          | None -> None
          | Some (nk, (k, v)) ->
              if -nk asr bits <> k then agree := false;
              Some (k, v)
        in
        if expect <> got then agree := false
      in
      let push (q, h, seq) k =
        Dialq.push q ~key:k !n;
        Binheap.push h ~key:(-((k lsl bits) + !seq)) (k, !n);
        incr seq;
        incr n
      in
      List.iter
        (fun (side, o) ->
          let f = if side then a else b in
          match o with Some k -> push f k | None -> check_pop f)
        ops;
      let qa, _, _ = a and qb, _, _ = b in
      while (not (Dialq.is_empty qa)) || not (Dialq.is_empty qb) do
        if Dialq.peek_key qa <= Dialq.peek_key qb then check_pop a
        else check_pop b
      done;
      !agree)

let test_dialq_two_frontier () =
  match Tqec_proptest.Property.check (dialq_two_frontier_outcome ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suites =
  [ ( "prelude.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "split decorrelated" `Quick test_rng_split_decorrelated;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "pinned draws" `Quick test_rng_pinned_draws;
        Alcotest.test_case "draws allocate nothing" `Quick test_rng_allocation_free ] );
    ( "prelude.binheap",
      [ Alcotest.test_case "order" `Quick test_heap_order;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "peek" `Quick test_heap_peek;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        QCheck_alcotest.to_alcotest heap_property ] );
    ( "prelude.dialq",
      [ Alcotest.test_case "order" `Quick test_dialq_order;
        Alcotest.test_case "fifo tie-break" `Quick test_dialq_fifo_tie_break;
        Alcotest.test_case "empty" `Quick test_dialq_empty;
        Alcotest.test_case "peek and pop_min" `Quick test_dialq_peek_pop_min;
        Alcotest.test_case "clear reuse across generations" `Quick test_dialq_clear_reuse;
        Alcotest.test_case "non-monotone key decrease" `Quick test_dialq_key_decrease;
        Alcotest.test_case "last_key across clear" `Quick test_dialq_last_key_after_clear;
        Alcotest.test_case "two queues interleaved" `Quick test_dialq_two_queues_interleaved;
        Alcotest.test_case "negative key" `Quick test_dialq_negative_key;
        Alcotest.test_case "dialq-vs-binheap differential" `Quick test_dialq_vs_binheap;
        Alcotest.test_case "two-frontier alternate drain" `Quick test_dialq_two_frontier ] );
    ( "prelude.union_find",
      [ Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "transitive" `Quick test_uf_transitive;
        QCheck_alcotest.to_alcotest uf_property ] );
    ("prelude.stopwatch", [ Alcotest.test_case "time" `Quick test_stopwatch ]);
    ( "prelude.hash",
      [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
        Alcotest.test_case "fnv1a64" `Quick test_fnv1a64 ] ) ]
