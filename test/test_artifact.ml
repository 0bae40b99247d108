(* The content-addressed artifact graph: store semantics (memory + disk),
   codec strictness, and the cached flow driver's contract — warm runs
   bit-identical to cold ones, per-stage invalidation, corrupt-entry
   recovery, and a preprocess stage that is computed and never cached. *)

open Tqec_circuit
module Flow = Tqec_core.Flow
module Codec = Tqec_artifact.Codec
module Codecs = Tqec_artifact.Codecs
module Stage = Tqec_artifact.Stage
module Store = Tqec_artifact.Store
module Json = Tqec_obs.Json

let fast_options =
  Flow.scale_options ~sa_iterations:1500 ~route_iterations:15 Flow.default_options

let fig4_circuit () =
  Circuit.make ~name:"fig4" ~num_qubits:3
    [ Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 2 };
      Gate.Cnot { control = 0; target = 2 } ]

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "tqec_artifact_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (* A fresh per-(process, call) name; Store.create makes the directory. *)
    dir

let check_stats label (eh, em, es) flow =
  let h, m, s = Flow.cache_stats flow in
  Alcotest.(check (triple int int int)) label (eh, em, es) (h, m, s)

let flow_fingerprint f =
  Json.to_string
    (Json.Obj
       [ ("volume", Json.Int f.Flow.volume);
         ("placement", Codecs.of_placement f.Flow.placement);
         ("cluster", Codecs.of_cluster f.Flow.cluster);
         ("routing", Codecs.of_routing f.Flow.routing) ])

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_memory () =
  let s = Store.create () in
  Alcotest.(check (option string)) "empty miss" None
    (Option.map Json.to_string (Store.find s ~stage:"a" ~key:"k"));
  Store.store s ~stage:"a" ~key:"k" (Json.Int 1);
  Store.store s ~stage:"b" ~key:"k" (Json.Int 2);
  Alcotest.(check int) "two entries" 2 (Store.entries s);
  Alcotest.(check (option string)) "stage-scoped hit" (Some "1")
    (Option.map Json.to_string (Store.find s ~stage:"a" ~key:"k"));
  Store.remove s ~stage:"a" ~key:"k";
  Alcotest.(check (option string)) "removed" None
    (Option.map Json.to_string (Store.find s ~stage:"a" ~key:"k"));
  Alcotest.(check (option string)) "other stage intact" (Some "2")
    (Option.map Json.to_string (Store.find s ~stage:"b" ~key:"k"))

let test_store_disk_persistence () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.store s1 ~stage:"preprocess" ~key:"deadbeef"
    (Json.Obj [ ("x", Json.Int 7) ]);
  (* A second store on the same directory starts warm. *)
  let s2 = Store.create ~dir () in
  Alcotest.(check int) "fresh memory" 0 (Store.entries s2);
  (match Store.find s2 ~stage:"preprocess" ~key:"deadbeef" with
   | Some j ->
       Alcotest.(check string) "reloaded"
         (Json.to_string (Json.Obj [ ("x", Json.Int 7) ]))
         (Json.to_string j)
   | None -> Alcotest.fail "disk entry not found");
  Alcotest.(check int) "promoted to memory" 1 (Store.entries s2);
  Store.remove s2 ~stage:"preprocess" ~key:"deadbeef";
  let s3 = Store.create ~dir () in
  Alcotest.(check bool) "removed from disk" true
    (Store.find s3 ~stage:"preprocess" ~key:"deadbeef" = None)

let test_store_unparseable_entry () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.store s1 ~stage:"routing" ~key:"cafe" (Json.Int 3);
  let path = Filename.concat (Filename.concat dir "routing") "cafe.json" in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  let s2 = Store.create ~dir () in
  Alcotest.(check bool) "unparseable reads as miss" true
    (Store.find s2 ~stage:"routing" ~key:"cafe" = None)

(* ------------------------------------------------------------------ *)
(* Codec strictness                                                    *)
(* ------------------------------------------------------------------ *)

let test_codec_rejects_wrong_shape () =
  let expect_error label decode json =
    match Codec.to_result decode json with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": wrong shape accepted")
  in
  expect_error "circuit from int" Codecs.circuit (Json.Int 3);
  expect_error "circuit missing fields" Codecs.circuit (Json.Obj []);
  expect_error "gate with bad tag" Codecs.gate
    (Json.List [ Json.String "warp"; Json.Int 0 ]);
  expect_error "routing from string" Codecs.routing (Json.String "x");
  (* Constructor revalidation: a structurally well-formed circuit with an
     out-of-range qubit is rejected by Circuit.make, not just by shape. *)
  expect_error "circuit revalidated" Codecs.circuit
    (Json.Obj
       [ ("name", Json.String "bad");
         ("qubits", Json.Int 1);
         ("gates", Json.List [ Json.List [ Json.String "not"; Json.Int 5 ] ]) ])

let test_circuit_roundtrip () =
  let c = fig4_circuit () in
  let c' = Codecs.circuit (Codecs.of_circuit c) in
  Alcotest.(check string) "same canonical bytes"
    (Json.to_string (Codecs.of_circuit c))
    (Json.to_string (Codecs.of_circuit c'))

(* ------------------------------------------------------------------ *)
(* Cached flow driver                                                  *)
(* ------------------------------------------------------------------ *)

let test_cold_warm_bit_identity () =
  let dir = temp_dir () in
  let c = fig4_circuit () in
  let cold = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  check_stats "cold misses the three cached stages" (0, 3, 3) cold;
  (* The warm run goes through a fresh store instance on the same directory:
     every cached artifact is decoded from its persisted bytes. *)
  let warm = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  check_stats "warm hits the three cached stages" (3, 0, 0) warm;
  Alcotest.(check string) "bit-identical artifacts" (flow_fingerprint cold)
    (flow_fingerprint warm);
  (* And identical to an uncached run: the cache is invisible in results. *)
  let plain = Flow.run ~options:fast_options c in
  check_stats "uncached run has no counters" (0, 0, 0) plain;
  Alcotest.(check string) "identical to uncached" (flow_fingerprint plain)
    (flow_fingerprint warm)

let test_routing_config_invalidation () =
  let store = Store.create () in
  let c = fig4_circuit () in
  let cold = Flow.run ~options:fast_options ~cache:store c in
  check_stats "cold" (0, 3, 3) cold;
  (* Only the routing config changes: the bridging and placement artifacts
     are reused and exactly the routing stage recomputes. *)
  let options =
    { fast_options with
      Flow.route =
        { fast_options.Flow.route with
          Tqec_route.Router.region_margin =
            fast_options.Flow.route.Tqec_route.Router.region_margin + 1 } }
  in
  let reroute = Flow.run ~options ~cache:store c in
  check_stats "reroute reuses two stages" (2, 1, 1) reroute

let test_placement_config_invalidation () =
  let store = Store.create () in
  let c = fig4_circuit () in
  ignore (Flow.run ~options:fast_options ~cache:store c);
  (* A placement-seed change invalidates placement and (transitively,
     through the changed placement artifact) routing, but not bridging. *)
  let options =
    { fast_options with
      Flow.place = { fast_options.Flow.place with Tqec_place.Place25d.seed = 43 } }
  in
  let replaced = Flow.run ~options ~cache:store c in
  check_stats "seed change recomputes placement+routing" (1, 2, 2) replaced

let test_corrupt_entry_recovery () =
  let store = Store.create () in
  let c = fig4_circuit () in
  let cold = Flow.run ~options:fast_options ~cache:store c in
  (* Overwrite the bridging artifact with shape-valid-JSON garbage under
     its correct key: the driver must evict, recompute and restore it. *)
  let key =
    Stage.cache_key (module Flow.Bridging)
      { Flow.Bridging.bridging = fast_options.Flow.bridging; modular = cold.Flow.modular }
  in
  Store.store store ~stage:"bridging" ~key (Json.String "garbage");
  let recovered = Flow.run ~options:fast_options ~cache:store c in
  check_stats "corrupt entry recomputed, rest hit" (2, 1, 1) recovered;
  Alcotest.(check string) "results unaffected" (flow_fingerprint cold)
    (flow_fingerprint recovered);
  let healed = Flow.run ~options:fast_options ~cache:store c in
  check_stats "entry healed" (3, 0, 0) healed

let test_cache_key_properties () =
  let c = fig4_circuit () in
  let k1 = Stage.cache_key (module Flow.Preprocess) c in
  let k2 = Stage.cache_key (module Flow.Preprocess) c in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check int) "sha256 hex length" 64 (String.length k1);
  let renamed = Circuit.make ~name:"fig4b" ~num_qubits:3 c.Circuit.gates in
  Alcotest.(check bool) "input-sensitive" true
    (not (String.equal k1 (Stage.cache_key (module Flow.Preprocess) renamed)))

(* The four stage cache keys of [fig4_circuit] under [fast_options], and
   the SHA-256 of each artifact's stored bytes. A different key silently
   orphans every existing cache directory, different bytes mean a changed
   canonical form, so neither moves by accident. The bridging, placement
   and routing keys changed once, on purpose, when they began to embed
   digests of the modular description and the nets instead of their JSON;
   the preprocess key and all four stored-bytes digests did not. The
   placement key changed once more, on purpose, when multi-start annealing
   was deleted and the placement config lost its "chains" field. The
   placement and routing keys changed once more, on purpose, when the
   fixed floorplan, Phi, SA and routing-schedule constants left their
   configs; no other key and no stored bytes changed. Flow.run stopped
   storing the preprocess artifact, but its key and bytes stay pinned: a
   caller that caches the stage itself (the benchmark's traced pass) still
   writes that entry. The bridging, placement and routing keys changed once
   more, on purpose, when they began to name the modular description by
   its ICM and the preprocess version instead of its own JSON; the
   preprocess key and all four stored-bytes digests did not. *)
let pinned_keys =
  [ ( "preprocess",
      "f1e02623e7cf2fbd1fac599287adfed2a969a2fd734dd33f62e00e2f6ba78451",
      "24ab3767a77630191bf4242fad3f060668d8ae798147d3fcb11eb4179f7408eb" );
    ( "bridging",
      "27764955294c8ad2782ad8f95f5c986f0ba6e9d74bc67e4c9722def38d2fc01f",
      "a8c876f26fb04ffaf4ee53afbab3d086cffe404dde44a1e69ad33ca6d02869a7" );
    ( "placement",
      "92e04424da849f28e9148d0a0dd493fa19ac7f737b968eb6e85dd8d7b6f25526",
      "f38107bf236dfe7e86f398790795d9dadd13bf50f60fdab6dc0a5f48e33938be" );
    ( "routing",
      "ea304f71706baf651bc7139861a0e4e0b10ac6c10efdca231f55936226885c58",
      "2e044c1fb5830759b6c1a9b703f3ccf858e045dd6e3818a5b0bf1b048e52ec31" ) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

let entry_path dir ~stage ~key =
  Filename.concat (Filename.concat dir stage) (key ^ ".json")

(* The stages Flow.run caches, with their pinned keys. *)
let cached_stages =
  List.filter (fun (stage, _, _) -> not (String.equal stage "preprocess")) pinned_keys

(* The bytes of [stage]'s entry for [fig4_circuit] after a cached Flow.run
   into [dir]. Flow.run never stores preprocess, so its bytes are rendered
   from the stage's encoder, as a caller that caches the stage writes them. *)
let stored_bytes dir ~stage ~key =
  if String.equal stage "preprocess" then
    Json.to_string
      (Flow.Preprocess.encode
         (Flow.Preprocess.run ~trace:Tqec_obs.Trace.noop (fig4_circuit ())))
  else read_file (entry_path dir ~stage ~key)

let test_pinned_keys_and_bytes () =
  let dir = temp_dir () in
  let c = fig4_circuit () in
  let f = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  let o = fast_options in
  let keys =
    [ Stage.cache_key (module Flow.Preprocess) c;
      Stage.cache_key (module Flow.Bridging)
        { Flow.Bridging.bridging = o.Flow.bridging; modular = f.Flow.modular };
      Stage.cache_key (module Flow.Placement)
        { Flow.Placement.primal_groups = o.Flow.primal_groups;
          max_group_size = o.Flow.max_group_size;
          config = o.Flow.place;
          modular = f.Flow.modular;
          nets = f.Flow.nets;
          pool = None };
      Stage.cache_key (module Flow.Routing)
        { Flow.Routing.config =
            { o.Flow.route with
              Tqec_route.Router.friend_aware = o.Flow.friend_aware && o.Flow.bridging };
          placement = f.Flow.placement;
          nets = f.Flow.nets;
          pool = None } ]
  in
  List.iter2
    (fun (stage, key, digest) computed ->
      Alcotest.(check string) (stage ^ " key") key computed;
      if not (String.equal stage "preprocess") then
        Alcotest.(check (array string)) (stage ^ " is the only entry")
          [| key ^ ".json" |]
          (Sys.readdir (Filename.concat dir stage));
      Alcotest.(check string) (stage ^ " stored bytes") digest
        (Tqec_prelude.Hash.sha256_hex (stored_bytes dir ~stage ~key)))
    pinned_keys keys

(* The downstream keys name the modular description by its ICM and
   [Flow.Preprocess.version] alone, so this pins the preprocess output of a
   circuit with Toffolis (whose T gadgets and Y/A boxes fig4's CNOTs never
   reach): a change to what preprocess makes of an ICM must bump that
   version, or warm caches would serve artifacts built from the old one. *)
let pinned_preprocess =
  ("1", "dd5b4152bed7c6cd30e7a6514a39b416c2ad779ba8d276216c89fca05905200f")

let test_pinned_preprocess_bytes () =
  let c =
    Tqec_circuit.Benchmarks.generate ~seed:1
      (Option.get (Tqec_circuit.Benchmarks.find "4gt10-v1_81"))
  in
  Alcotest.(check bool) "the circuit has a Toffoli" true
    (List.exists (function Gate.Toffoli _ -> true | _ -> false) c.Circuit.gates);
  let pre = Flow.Preprocess.run ~trace:Tqec_obs.Trace.noop c in
  Alcotest.(check bool) "its modular description has Y/A boxes" true
    (Array.exists Tqec_modular.Modular.is_box pre.Flow.Preprocess.modular.Tqec_modular.Modular.modules);
  let digest =
    Tqec_prelude.Hash.sha256_hex (Json.to_string (Flow.Preprocess.encode pre))
  in
  let version, pinned = pinned_preprocess in
  if not (String.equal digest pinned) then
    Alcotest.failf
      "preprocess output of 4gt10-v1_81 (seed 1) is %s, pinned %s under version %s: \
       bump Flow.Preprocess.version, then re-pin this digest with it"
      digest pinned version;
  Alcotest.(check string) "version the bytes were pinned under" version
    Flow.Preprocess.version

(* The bridging key is the digest of the ICM and [Flow.Preprocess.version]
   and nothing else: it equals that digest spelled out here, and a modular
   description whose derived fields are emptied, over the same ICM, keys
   the same. *)
let test_bridging_key_is_icm_digest () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  let m = f.Flow.modular in
  let key modular = Flow.Bridging.key { Flow.Bridging.bridging = true; modular } in
  let digest =
    Tqec_prelude.Hash.sha256_hex
      (Json.to_string
         (Json.Obj
            [ ("preprocess", Json.String Flow.Preprocess.version);
              ("icm", Codecs.of_icm m.Tqec_modular.Modular.icm) ]))
  in
  Alcotest.(check string) "ICM and version digest"
    (Json.to_string
       (Json.Obj [ ("bridging", Json.Bool true); ("modular", Json.String digest) ]))
    (key m);
  let hollow =
    { m with Tqec_modular.Modular.modules = [||]; pins = [||]; loops = [||];
             wire_module = [||]; cross_module = [||] }
  in
  Alcotest.(check string) "derived fields unread" (key m) (key hollow)

(* Flow.run never looks up or writes a preprocess entry: a cold run on a
   disk store makes no preprocess directory, and a garbage entry under the
   preprocess key is neither read (the warm run still hits the three cached
   stages and misses nothing) nor evicted nor rewritten. *)
let test_store_never_sees_preprocess () =
  let dir = temp_dir () in
  let c = fig4_circuit () in
  let cold = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  let pre_dir = Filename.concat dir "preprocess" in
  Alcotest.(check bool) "no preprocess directory" false (Sys.file_exists pre_dir);
  Unix.mkdir pre_dir 0o755;
  let path =
    entry_path dir ~stage:"preprocess" ~key:(Stage.cache_key (module Flow.Preprocess) c)
  in
  write_file path "\"garbage\"";
  let warm = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  check_stats "preprocess entry ignored" (3, 0, 0) warm;
  Alcotest.(check string) "cold result" (flow_fingerprint cold) (flow_fingerprint warm);
  Alcotest.(check string) "garbage entry untouched" "\"garbage\"" (read_file path)

(* The bridging, placement and routing keys of one flow result, from the
   given [modular] and [nets]. *)
let downstream_keys ?modular ?nets f =
  let o = fast_options in
  let modular = Option.value modular ~default:f.Flow.modular
  and nets = Option.value nets ~default:f.Flow.nets in
  [ Stage.cache_key (module Flow.Bridging)
      { Flow.Bridging.bridging = o.Flow.bridging; modular };
    Stage.cache_key (module Flow.Placement)
      { Flow.Placement.primal_groups = o.Flow.primal_groups;
        max_group_size = o.Flow.max_group_size;
        config = o.Flow.place;
        modular;
        nets;
        pool = None };
    Stage.cache_key (module Flow.Routing)
      { Flow.Routing.config = o.Flow.route;
        placement =
          { f.Flow.placement with
            Tqec_place.Place25d.cluster = { f.Flow.cluster with Tqec_place.Cluster.modular } };
        nets;
        pool = None } ]

(* The keys memoize each upstream digest by physical identity: A, then B,
   then A again must give A's keys back (no stale memo hit), and so must
   decode(encode) copies of A's modular and nets, which are new values with
   equal content (no key that depends on identity). *)
let test_key_digest_memo () =
  let a = Flow.run ~options:fast_options (fig4_circuit ()) in
  let b =
    Flow.run ~options:fast_options
      (Circuit.make ~name:"memo-b" ~num_qubits:3
         [ Gate.Cnot { control = 0; target = 2 }; Gate.Cnot { control = 2; target = 1 } ])
  in
  let keys_a = downstream_keys a in
  let keys_b = downstream_keys b in
  let keys_a' = downstream_keys a in
  let m = a.Flow.modular in
  let modular =
    Codecs.modular ~icm:(Codecs.icm (Codecs.of_icm m.Tqec_modular.Modular.icm))
      (Codecs.of_modular m)
  in
  let nets = Codecs.nets (Codecs.of_nets a.Flow.nets) in
  Alcotest.(check bool) "copies are new values" true (modular != m && nets != a.Flow.nets);
  let keys_copy = downstream_keys ~modular ~nets a in
  Alcotest.(check (list string)) "A again" keys_a keys_a';
  Alcotest.(check (list string)) "A from decoded copies" keys_a keys_copy;
  List.iter2
    (fun ka kb -> Alcotest.(check bool) "A and B differ" false (String.equal ka kb))
    keys_a keys_b

(* ------------------------------------------------------------------ *)
(* Hostile stored entries                                              *)
(* ------------------------------------------------------------------ *)

(* Flip byte [i] of [s] to a different byte drawn from [rng]. *)
let flip rng s i =
  let b = Bytes.of_string s in
  let c = Char.code (Bytes.get b i) in
  Bytes.set b i (Char.chr ((c + 1 + Tqec_prelude.Rng.int rng 255) land 0xff));
  Bytes.to_string b

(* Every truncated prefix and 400 single-byte flips of every stage artifact
   of a real run parse to [Ok] or [Error]; the parser never raises. *)
let test_hostile_bytes_never_raise () =
  let dir = temp_dir () in
  ignore (Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) (fig4_circuit ()));
  let rng = Tqec_prelude.Rng.create 11 in
  List.iter
    (fun (stage, key, _) ->
      let bytes = stored_bytes dir ~stage ~key in
      let n = String.length bytes in
      let survives input =
        match Json.of_string input with Ok _ | Error _ -> true | exception _ -> false
      in
      for len = 0 to n - 1 do
        if not (survives (String.sub bytes 0 len)) then
          Alcotest.failf "%s: prefix of %d bytes raised" stage len
      done;
      for _ = 1 to 400 do
        let i = Tqec_prelude.Rng.int rng n in
        if not (survives (flip rng bytes i)) then
          Alcotest.failf "%s: flip at byte %d raised" stage i
      done)
    pinned_keys

(* A stored entry cut short or flipped into malformed JSON is a cache miss
   for its stage only: the run recomputes it, hits the other two, and
   returns exactly the cold result. (A flip that leaves well-formed JSON,
   such as one digit for another, can decode to a different artifact: the
   store keeps no checksum of its bytes.) *)
let test_hostile_entry_is_a_miss () =
  let dir = temp_dir () in
  let c = fig4_circuit () in
  let cold = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
  let rng = Tqec_prelude.Rng.create 5 in
  List.iter
    (fun (stage, key, _) ->
      let path = entry_path dir ~stage ~key in
      let bytes = read_file path in
      let n = String.length bytes in
      let rec malformed_flip () =
        let s = flip rng bytes (Tqec_prelude.Rng.int rng n) in
        match Json.of_string s with Error _ -> s | Ok _ -> malformed_flip ()
      in
      List.iter
        (fun (label, corrupt) ->
          write_file path corrupt;
          let run = Flow.run ~options:fast_options ~cache:(Store.create ~dir ()) c in
          check_stats (Printf.sprintf "%s %s: one miss" stage label) (2, 1, 1) run;
          Alcotest.(check string)
            (Printf.sprintf "%s %s: cold result" stage label)
            (flow_fingerprint cold) (flow_fingerprint run);
          Alcotest.(check string)
            (Printf.sprintf "%s %s: entry rewritten" stage label)
            bytes (read_file path))
        [ ("empty", "");
          ("half", String.sub bytes 0 (n / 2));
          ("last byte cut", String.sub bytes 0 (n - 1));
          ("malformed flip", malformed_flip ()) ])
    cached_stages

let test_metrics_cache_block () =
  let store = Store.create () in
  let c = fig4_circuit () in
  ignore (Flow.run ~options:fast_options ~cache:store c);
  let warm = Flow.run ~options:fast_options ~cache:store c in
  let json = Flow.metrics_json warm in
  (match Json.path [ "schema_version" ] json with
   | Some (Json.Int 2) -> ()
   | _ -> Alcotest.fail "schema_version must be 2");
  (match Json.path [ "cache"; "hits" ] json with
   | Some (Json.Int 3) -> ()
   | _ -> Alcotest.fail "cache.hits must be 3 on a warm run");
  (match Json.path [ "cache"; "misses" ] json with
   | Some (Json.Int 0) -> ()
   | _ -> Alcotest.fail "cache.misses must be 0 on a warm run");
  (match Json.path [ "cache"; "hit_rate" ] json with
   | Some (Json.Float r) -> Alcotest.(check bool) "hit_rate 1.0" true (r > 0.999)
   | _ -> Alcotest.fail "cache.hit_rate missing")

let test_validate_stage_prefix () =
  let f = Flow.run ~options:fast_options (fig4_circuit ()) in
  (match Flow.validate f with Ok () -> () | Error e -> Alcotest.fail e);
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.equal (String.sub s 0 (String.length prefix)) prefix
  in
  let p = f.Flow.placement in
  let pos = Array.copy p.Tqec_place.Place25d.module_pos in
  pos.(1) <- pos.(0);
  (match
     Flow.validate
       { f with Flow.placement = { p with Tqec_place.Place25d.module_pos = pos } }
   with
   | Error e ->
       Alcotest.(check bool)
         (Printf.sprintf "overlap error names placement (got %S)" e)
         true
         (starts_with ~prefix:"placement: " e)
   | Ok () -> Alcotest.fail "overlap not detected");
  let r = f.Flow.routing in
  match
    Flow.validate
      { f with
        Flow.routing =
          { r with Tqec_route.Router.failed = [ List.hd f.Flow.nets ] } }
  with
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "unrouted error names routing (got %S)" e)
        true
        (starts_with ~prefix:"routing: " e)
  | Ok () -> Alcotest.fail "unrouted net not detected"

let suites =
  [ ( "artifact",
      [ Alcotest.test_case "store: memory" `Quick test_store_memory;
        Alcotest.test_case "store: disk persistence" `Quick
          test_store_disk_persistence;
        Alcotest.test_case "store: unparseable entry" `Quick
          test_store_unparseable_entry;
        Alcotest.test_case "codec: wrong shapes rejected" `Quick
          test_codec_rejects_wrong_shape;
        Alcotest.test_case "codec: circuit round-trip" `Quick
          test_circuit_roundtrip;
        Alcotest.test_case "flow: cold/warm bit identity" `Quick
          test_cold_warm_bit_identity;
        Alcotest.test_case "flow: routing-config invalidation" `Quick
          test_routing_config_invalidation;
        Alcotest.test_case "flow: placement-config invalidation" `Quick
          test_placement_config_invalidation;
        Alcotest.test_case "flow: corrupt entry recovery" `Quick
          test_corrupt_entry_recovery;
        Alcotest.test_case "flow: store never sees preprocess" `Quick
          test_store_never_sees_preprocess;
        Alcotest.test_case "stage: cache key" `Quick test_cache_key_properties;
        Alcotest.test_case "stage: pinned keys and bytes" `Quick
          test_pinned_keys_and_bytes;
        Alcotest.test_case "stage: key digest memo" `Quick test_key_digest_memo;
        Alcotest.test_case "stage: pinned preprocess bytes" `Quick
          test_pinned_preprocess_bytes;
        Alcotest.test_case "stage: bridging key is the ICM digest" `Quick
          test_bridging_key_is_icm_digest;
        Alcotest.test_case "hostile: bytes never raise" `Quick
          test_hostile_bytes_never_raise;
        Alcotest.test_case "hostile: corrupt entry is a miss" `Quick
          test_hostile_entry_is_a_miss;
        Alcotest.test_case "metrics: cache block" `Quick test_metrics_cache_block;
        Alcotest.test_case "validate: stage prefixes" `Quick
          test_validate_stage_prefix ] ) ]
