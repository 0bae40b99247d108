module Trace = Tqec_obs.Trace
module Json = Tqec_obs.Json

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let root = Trace.root "flow" in
  let a = Trace.span root "a" in
  let a1 = Trace.span a "inner" in
  Trace.close a1;
  Trace.close a;
  let b = Trace.span root "b" in
  Trace.close b;
  Trace.close root;
  Alcotest.(check (list string)) "children in creation order" [ "a"; "b" ]
    (List.map Trace.name (Trace.children root));
  (match Trace.find root [ "a"; "inner" ] with
   | Some s -> Alcotest.(check string) "nested find" "inner" (Trace.name s)
   | None -> Alcotest.fail "find [a; inner] returned None");
  Alcotest.(check bool) "missing path" true (Trace.find root [ "a"; "b" ] = None);
  Alcotest.(check bool) "root duration >= child" true
    (Trace.duration_s root >= Trace.duration_s a)

let test_close_idempotent_and_recursive () =
  let root = Trace.root "r" in
  let child = Trace.span root "open-child" in
  Trace.close root;
  (* child was still open: closing the root freezes it too *)
  let d1 = Trace.duration_s child in
  let d2 = Trace.duration_s child in
  Alcotest.(check (float 0.0)) "child frozen by root close" d1 d2;
  let dr = Trace.duration_s root in
  Trace.close root;
  Alcotest.(check (float 0.0)) "second close is a no-op" dr (Trace.duration_s root)

let test_with_span () =
  let root = Trace.root "r" in
  let result = Trace.with_span root "work" (fun s -> Trace.incr s "steps"; 17) in
  Alcotest.(check int) "result passed through" 17 result;
  (try
     ignore
       (Trace.with_span root "boom" (fun _ -> failwith "x") : int)
   with Failure _ -> ());
  Trace.close root;
  Alcotest.(check (list string)) "spans recorded, also on exception"
    [ "work"; "boom" ]
    (List.map Trace.name (Trace.children root))

(* ------------------------------------------------------------------ *)
(* Counters, gauges, distributions                                     *)
(* ------------------------------------------------------------------ *)

let test_counter_accumulation () =
  let s = Trace.root "s" in
  Trace.incr s "hits";
  Trace.incr s "hits";
  Trace.incr ~n:40 s "hits";
  Trace.incr s "other";
  Alcotest.(check int) "accumulated" 42 (Trace.counter s "hits");
  Alcotest.(check int) "absent counter is 0" 0 (Trace.counter s "nope");
  Alcotest.(check (list (pair string int))) "sorted listing"
    [ ("hits", 42); ("other", 1) ] (Trace.counters s)

let test_gauges_and_dists () =
  let s = Trace.root "s" in
  Trace.gauge s "temp" 1.0;
  Trace.gauge s "temp" 0.5;
  Alcotest.(check (list (pair string (float 0.0)))) "gauge last-write-wins"
    [ ("temp", 0.5) ] (Trace.gauges s);
  Trace.observe s "delta" 2.0;
  Trace.observe s "delta" (-1.0);
  Trace.observe s "delta" 5.0;
  match Trace.dists s with
  | [ ("delta", d) ] ->
      Alcotest.(check int) "n" 3 d.Trace.n;
      Alcotest.(check (float 1e-9)) "sum" 6.0 d.Trace.sum;
      Alcotest.(check (float 1e-9)) "min" (-1.0) d.Trace.min_v;
      Alcotest.(check (float 1e-9)) "max" 5.0 d.Trace.max_v
  | other -> Alcotest.fail (Printf.sprintf "expected one dist, got %d" (List.length other))

(* Regression for the --metrics-json / bench counter-table contract: metric
   key order is sorted by name, never hash-table insertion or bucket order,
   so two runs recording the same metrics in different orders emit
   byte-identical key sequences. *)
let test_metric_key_order_stable () =
  let run names =
    let root = Trace.root "flow" in
    List.iter (fun k -> Trace.incr ~n:(String.length k) root k) names;
    List.iter (fun k -> Trace.gauge root (k ^ "_g") 1.0) names;
    let child = Trace.span root "stage" in
    List.iter (fun k -> Trace.incr child k) names;
    Trace.close root;
    root
  in
  let a = run [ "beta"; "alpha"; "gamma"; "delta" ] in
  let b = run [ "delta"; "gamma"; "alpha"; "beta" ] in
  Alcotest.(check (list (pair string int))) "counters sorted by key"
    [ ("alpha", 5); ("beta", 4); ("delta", 5); ("gamma", 5) ]
    (Trace.counters a);
  Alcotest.(check (list (pair string int))) "counter order identical across runs"
    (Trace.counters a) (Trace.counters b);
  Alcotest.(check (list string)) "gauge order identical across runs"
    (List.map fst (Trace.gauges a)) (List.map fst (Trace.gauges b));
  Alcotest.(check (list (pair string int))) "flat counters identical across runs"
    (Trace.flat_counters a) (Trace.flat_counters b);
  (* The rendered JSON must agree key-for-key wherever keys appear; strip the
     (run-dependent) durations by comparing the counters objects only. *)
  let counters_json t =
    match Json.path [ "counters" ] (Trace.to_json t) with
    | Some j -> Json.to_string j
    | None -> "missing"
  in
  Alcotest.(check string) "emitted counters json byte-identical"
    (counters_json a) (counters_json b);
  match (Json.path [ "counters" ] (Trace.to_json a)) with
  | Some (Json.Obj fields) ->
      Alcotest.(check (list string)) "json keys sorted"
        [ "alpha"; "beta"; "delta"; "gamma" ] (List.map fst fields)
  | _ -> Alcotest.fail "expected a counters object"

let test_flat_counters () =
  let root = Trace.root "flow" in
  Trace.incr ~n:1 root "top";
  let a = Trace.span root "stage" in
  Trace.incr ~n:2 a "work";
  let b = Trace.span a "sub" in
  Trace.incr ~n:3 b "work";
  Trace.close root;
  Alcotest.(check (list (pair string int))) "path-prefixed, sorted"
    [ ("stage/sub/work", 3); ("stage/work", 2); ("top", 1) ]
    (Trace.flat_counters root)

(* ------------------------------------------------------------------ *)
(* The no-op sink                                                      *)
(* ------------------------------------------------------------------ *)

let test_noop_sink () =
  let s = Trace.noop in
  Alcotest.(check bool) "disabled" false (Trace.enabled s);
  let child = Trace.span s "child" in
  Alcotest.(check bool) "noop children are noop" false (Trace.enabled child);
  (* Recording on the sink must allocate no state and observe nothing. *)
  Trace.incr ~n:1000 s "hits";
  Trace.gauge s "g" 1.0;
  Trace.observe s "d" 1.0;
  Trace.close s;
  Alcotest.(check int) "counter stays 0" 0 (Trace.counter s "hits");
  Alcotest.(check bool) "no counters" true (Trace.counters s = []);
  Alcotest.(check bool) "no children" true (Trace.children s = []);
  Alcotest.(check (float 0.0)) "no duration" 0.0 (Trace.duration_s s);
  Alcotest.(check string) "no text" "" (Trace.to_text s);
  Alcotest.(check bool) "null json" true (Json.equal Json.Null (Trace.to_json s));
  Alcotest.(check int) "with_span still runs f" 3
    (Trace.with_span s "x" (fun _ -> 3))

let test_noop_is_free () =
  (* The sink must not accumulate memory no matter how much is thrown at
     it — a million increments leave the heap untouched. *)
  let s = Trace.noop in
  let before = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to 1_000_000 do
    Trace.incr s "hot"
  done;
  let after = (Gc.quick_stat ()).Gc.minor_words in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free hot loop (%.0f words)" (after -. before))
    true
    (after -. before < 1000.0)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [ ("name", Json.String "flow \"quoted\"\n");
      ("count", Json.Int 42);
      ("neg", Json.Int (-7));
      ("ratio", Json.Float 0.5);
      ("tiny", Json.Float 1.5e-9);
      ("flag", Json.Bool true);
      ("off", Json.Bool false);
      ("nothing", Json.Null);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("items", Json.List [ Json.Int 1; Json.String "two"; Json.List [ Json.Null ] ]) ]

let test_json_round_trip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample_json) with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip (pretty=%b)" pretty)
            true
            (Json.equal sample_json parsed)
      | Error msg -> Alcotest.fail msg)
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" input)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_escaped_strings () =
  let cases =
    [ ({|"a\"b"|}, "a\"b");
      ({|"back\\slash"|}, "back\\slash");
      ({|"sol\/idus"|}, "sol/idus");
      ({|"\b\f\n\r\t"|}, "\b\012\n\r\t");
      (* ASCII \u escapes decode; non-ASCII code points are kept literal *)
      ("\"\\u0041z\"", "Az");
      ("\"\\u00e9\"", "\\u00e9") ]
  in
  List.iter
    (fun (input, expected) ->
      match Json.of_string input with
      | Ok (Json.String s) -> Alcotest.(check string) input expected s
      | Ok _ -> Alcotest.fail (input ^ " parsed to a non-string")
      | Error e -> Alcotest.fail (input ^ " failed to parse: " ^ e))
    cases

let test_json_nested_empty () =
  match Json.of_string "[[], {}, [{}], {\"a\": []}]" with
  | Ok v ->
      Alcotest.(check bool) "nested empty containers" true
        (Json.equal v
           (Json.List
              [ Json.List [];
                Json.Obj [];
                Json.List [ Json.Obj [] ];
                Json.Obj [ ("a", Json.List []) ] ]))
  | Error e -> Alcotest.fail e

let test_json_exponent_floats () =
  let cases =
    [ ("1e3", 1000.0); ("-2.5E-2", -0.025); ("4.0e0", 4.0); ("2E2", 200.0) ]
  in
  List.iter
    (fun (input, expected) ->
      match Json.of_string input with
      | Ok (Json.Float f) ->
          Alcotest.(check (float 1e-12)) input expected f
      | Ok _ -> Alcotest.fail (input ^ " should parse as Float")
      | Error e -> Alcotest.fail (input ^ " failed to parse: " ^ e))
    cases

let test_json_trailing_garbage () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" input)
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions trailing data (%s)" input e)
            true
            (String.length e >= 8 && String.sub e 0 8 = "trailing"))
    [ "{} []"; "1,"; "null null"; "[1] x" ]

(* Results pinned from the original character-at-a-time parser, so a
   faster rewrite cannot drift on the spellings real artifacts never use:
   the general number path (19 digits, overflow, a sign alone, '+', an
   exponent out of float range, leading zeros), raw UTF-8 and a cut-off
   literal. Offsets assume 63-bit ints. *)
let test_json_edge_inputs () =
  let show = function
    | Ok (Json.Int i) -> Printf.sprintf "Int %d" i
    | Ok (Json.Float f) -> Printf.sprintf "Float %h" f
    | Ok (Json.String s) -> Printf.sprintf "String %S" s
    | Ok v -> "Ok " ^ Json.to_string v
    | Error e -> "Error " ^ e
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (show (Json.of_string input)))
    [ ("1234567890123456789", "Int 1234567890123456789");
      ("9999999999999999999", {|Error at offset 19: invalid number "9999999999999999999"|});
      ("-4611686018427387904", "Int -4611686018427387904");
      ("-", {|Error at offset 1: invalid number "-"|});
      ("+5", "Int 5");
      ("1e400", "Float infinity");
      ("007", "Int 7");
      ("\"\xc3\xa9\"", "String \"\\195\\169\"");
      ("tru", "Error at offset 0: invalid literal (expected true)");
      ("[1,2,]", {|Error at offset 5: invalid number ""|}) ]

(* Ints in 0 .. 1023 parse to shared leaves; the values at and around the
   range's ends are the same as ever, and "-0" and "007" reach the shared
   leaves of 0 and 7. *)
let test_json_shared_small_ints () =
  let ints input =
    match Json.of_string input with
    | Ok (Json.List l) -> l
    | _ -> Alcotest.failf "%s does not parse to a list" input
  in
  let a = ints "[-1,0,1,1023,1024,-0,007]" and b = ints "[-1,0,1,1023,1024,0,7]" in
  Alcotest.(check string) "values" "[-1,0,1,1023,1024,0,7]" (Json.to_string (Json.List a));
  List.iteri
    (fun k (x, y) ->
      let shared = k >= 1 && k <> 4 in
      Alcotest.(check bool) (Printf.sprintf "element %d shared" k) shared (x == y))
    (List.combine a b)

(* Rendered bytes pinned from the original printer, compact and pretty:
   integer extremes, escapes, raw UTF-8, floats and empty containers. *)
let test_json_rendered_bytes () =
  let v =
    Json.Obj
      [ ("ints", Json.List [ Json.Int 0; Json.Int (-7); Json.Int max_int; Json.Int min_int ]);
        ("s", Json.String "tab\there \"q\" \001 \xc3\xa9");
        ("f", Json.List [ Json.Float 0.5; Json.Float 1e300; Json.Float nan; Json.Float (-0.0) ]);
        ( "nest",
          Json.Obj
            [ ("e", Json.List []); ("o", Json.Obj []); ("b", Json.Bool true); ("n", Json.Null) ] ) ]
  in
  Alcotest.(check string) "compact"
    ({|{"ints":[0,-7,4611686018427387903,-4611686018427387904],|}
     ^ {|"s":"tab\there \"q\" \u0001 é",|}
     ^ {|"f":[0.5,1e+300,null,-0.0],"nest":{"e":[],"o":{},"b":true,"n":null}}|})
    (Json.to_string v);
  Alcotest.(check string) "pretty"
    (String.concat "\n"
       [ {|{|};
         {|  "ints": [|};
         {|    0,|};
         {|    -7,|};
         {|    4611686018427387903,|};
         {|    -4611686018427387904|};
         {|  ],|};
         {|  "s": "tab\there \"q\" \u0001 é",|};
         {|  "f": [|};
         {|    0.5,|};
         {|    1e+300,|};
         {|    null,|};
         {|    -0.0|};
         {|  ],|};
         {|  "nest": {|};
         {|    "e": [],|};
         {|    "o": {},|};
         {|    "b": true,|};
         {|    "n": null|};
         {|  }|};
         {|}|} ])
    (Json.to_string ~pretty:true v)

(* Round-trip as a property under the in-repo framework: any value built
   from finite floats survives render → parse. *)
let test_json_round_trip_property () =
  let module Gen = Tqec_proptest.Gen in
  let module Property = Tqec_proptest.Property in
  let scalar =
    Gen.frequency
      [ (1, Gen.const Json.Null);
        (2, Gen.map (fun b -> Json.Bool b) Gen.bool);
        (3, Gen.map (fun i -> Json.Int (i - 5000)) (Gen.int_bound 10_000));
        (2, Gen.map (fun f -> Json.Float f) (Gen.float_range (-1e6) 1e6));
        (3,
          Gen.map
            (fun s -> Json.String s)
            (Gen.string ~max_len:10 (Gen.char_range ' ' '~'))) ]
  in
  let key = Gen.string ~max_len:6 (Gen.char_range 'a' 'z') in
  let rec value depth rng =
    if depth = 0 then scalar rng
    else
      Gen.frequency
        [ (3, scalar);
          (1, Gen.map (fun l -> Json.List l) (Gen.list ~max_len:4 (value (depth - 1))));
          (1,
            Gen.map
              (fun kvs -> Json.Obj kvs)
              (Gen.list ~max_len:4 (Gen.pair key (value (depth - 1))))) ]
        rng
  in
  let arb = Property.make ~print:(Json.to_string ~pretty:false) (value 3) in
  let outcome =
    Property.run ~count:200 ~seed:17 ~name:"json-round-trip" arb (fun v ->
        List.for_all
          (fun pretty ->
            match Json.of_string (Json.to_string ~pretty v) with
            | Ok parsed -> Json.equal v parsed
            | Error _ -> false)
          [ false; true ])
  in
  match Property.check outcome with Ok () -> () | Error e -> Alcotest.fail e

let test_trace_json_round_trips () =
  let root = Trace.root "flow" in
  let stage = Trace.span root "stage" in
  Trace.incr ~n:5 stage "hits";
  Trace.gauge stage "cost" 1.25;
  Trace.observe stage "delta" 3.0;
  Trace.close root;
  let json = Trace.to_json root in
  (match Json.path [ "children" ] json with
   | Some (Json.List [ child ]) ->
       Alcotest.(check bool) "counter in json" true
         (Json.path [ "counters"; "hits" ] child = Some (Json.Int 5));
       Alcotest.(check bool) "gauge in json" true
         (Json.path [ "gauges"; "cost" ] child = Some (Json.Float 1.25));
       Alcotest.(check bool) "dist n in json" true
         (Json.path [ "dists"; "delta"; "n" ] child = Some (Json.Int 1))
   | _ -> Alcotest.fail "expected one child in trace json");
  match Json.of_string (Json.to_string ~pretty:true json) with
  | Ok parsed ->
      Alcotest.(check bool) "rendered trace json round-trips" true
        (Json.equal json parsed)
  | Error msg -> Alcotest.fail msg

let suites =
  [ ( "obs.trace",
      [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "close semantics" `Quick test_close_idempotent_and_recursive;
        Alcotest.test_case "with_span" `Quick test_with_span;
        Alcotest.test_case "counter accumulation" `Quick test_counter_accumulation;
        Alcotest.test_case "gauges and dists" `Quick test_gauges_and_dists;
        Alcotest.test_case "metric key order stable" `Quick
          test_metric_key_order_stable;
        Alcotest.test_case "flat counters" `Quick test_flat_counters;
        Alcotest.test_case "noop sink" `Quick test_noop_sink;
        Alcotest.test_case "noop is free" `Quick test_noop_is_free ] );
    ( "obs.json",
      [ Alcotest.test_case "round trip" `Quick test_json_round_trip;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "escaped strings" `Quick test_json_escaped_strings;
        Alcotest.test_case "nested empty containers" `Quick test_json_nested_empty;
        Alcotest.test_case "exponent floats" `Quick test_json_exponent_floats;
        Alcotest.test_case "trailing garbage" `Quick test_json_trailing_garbage;
        Alcotest.test_case "edge inputs pinned" `Quick test_json_edge_inputs;
        Alcotest.test_case "shared small ints" `Quick test_json_shared_small_ints;
        Alcotest.test_case "rendered bytes pinned" `Quick test_json_rendered_bytes;
        Alcotest.test_case "round-trip property" `Quick test_json_round_trip_property;
        Alcotest.test_case "trace json" `Quick test_trace_json_round_trips ] ) ]
