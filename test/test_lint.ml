(* Fixture-based tests for the determinism & hot-path lint (lib/lint).

   Each fixture is an inline compilation unit handed to [Lint.lint_source]
   under a synthetic path, since two rules are path-scoped (ambient-effect
   is waived under lib/prelude/, exit under bin/). *)

module Json = Tqec_obs.Json

let lint ?(file = "lib/fixture/snippet.ml") src = Lint.lint_source ~file src
let rules_of r = List.map (fun f -> f.Lint.rule) r.Lint.findings

let check_rules name expected src =
  Alcotest.(check (list string)) name expected (rules_of (lint src))

(* ------------------------------------------------------------------ *)
(* hashtbl-unsorted                                                    *)
(* ------------------------------------------------------------------ *)

let test_hashtbl_flagged () =
  check_rules "iter flagged" [ "hashtbl-unsorted" ]
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl";
  check_rules "fold flagged" [ "hashtbl-unsorted" ]
    "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []";
  (* The allowance is syntactic: a fold whose result only reaches the sort
     through a separate let-binding is still flagged. *)
  check_rules "fold via let-binding still flagged" [ "hashtbl-unsorted" ]
    "let f tbl =\n\
    \  let xs = Hashtbl.fold (fun k _ a -> k :: a) tbl [] in\n\
    \  List.sort Int.compare xs"

let test_hashtbl_sorted_allowance () =
  check_rules "fold |> sort" []
    "let f tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl [] |> List.sort Int.compare";
  check_rules "sort (fold ...)" []
    "let f tbl = List.sort Int.compare (Hashtbl.fold (fun k _ a -> k :: a) tbl [])";
  check_rules "sort_uniq @@ fold" []
    "let f tbl = List.sort_uniq Int.compare @@ Hashtbl.fold (fun k _ a -> k :: a) tbl []";
  check_rules "fold |> map |> stable_sort" []
    "let f tbl =\n\
    \  Hashtbl.fold (fun k v a -> (k, v) :: a) tbl []\n\
    \  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)"

(* ------------------------------------------------------------------ *)
(* poly-compare / float-lit-eq                                         *)
(* ------------------------------------------------------------------ *)

let test_poly_compare () =
  check_rules "bare compare" [ "poly-compare" ] "let x = compare 1 2";
  check_rules "compare as argument" [ "poly-compare" ]
    "let f l = List.sort compare l";
  check_rules "Hashtbl.hash" [ "poly-compare" ] "let h x = Hashtbl.hash x";
  check_rules "option with variable payload" [ "poly-compare" ]
    "let f a b = a = Some b";
  check_rules "tuple operand" [ "poly-compare" ]
    "let f a b c d = (a, b) < (c, d)";
  check_rules "typed comparator ok" [] "let f a b = Int.compare a b";
  check_rules "constant constructor ok" [] "let f a = a = None";
  check_rules "constant-shaped constructor ok" [] "let f a = a = Some 1";
  check_rules "empty list ok" [] "let f a = a = []";
  check_rules "bare variables ok" [] "let f a b = a < b"

let test_float_lit_eq () =
  check_rules "equality against float literal" [ "float-lit-eq" ]
    "let f x = x = 1.0";
  check_rules "inequality against float literal" [ "float-lit-eq" ]
    "let f x = x <> 0.5";
  check_rules "negated float literal" [ "float-lit-eq" ]
    "let f x = x = -.1.5";
  check_rules "ordering against float literal ok" [] "let f x = x <= 1.0"

(* ------------------------------------------------------------------ *)
(* ambient-effect / exit: path-scoped rules                            *)
(* ------------------------------------------------------------------ *)

let test_ambient_effect () =
  check_rules "Random outside prelude" [ "ambient-effect" ]
    "let f () = Random.int 3";
  check_rules "gettimeofday outside prelude" [ "ambient-effect" ]
    "let f () = Unix.gettimeofday ()";
  check_rules "Sys.time outside prelude" [ "ambient-effect" ]
    "let f () = Sys.time ()";
  Alcotest.(check (list string))
    "waived under lib/prelude" []
    (rules_of (lint ~file:"lib/prelude/clock.ml" "let f () = Unix.gettimeofday ()"));
  check_rules "environment read in a library" [ "ambient-effect" ]
    "let budget () = Sys.getenv_opt \"BUDGET\"";
  Alcotest.(check (list string))
    "environment read allowed under bin/" []
    (rules_of (lint ~file:"bin/main.ml" "let budget () = Sys.getenv_opt \"BUDGET\""))

let test_exit_scope () =
  check_rules "exit in a library" [ "exit" ] "let f () = exit 1";
  Alcotest.(check (list string))
    "exit allowed under bin/" []
    (rules_of (lint ~file:"bin/main.ml" "let () = exit 1"))

let test_domain_spawn () =
  check_rules "Domain.spawn outside prelude" [ "domain-spawn" ]
    "let f g = Domain.spawn g";
  check_rules "Domain.join outside prelude" [ "domain-spawn" ]
    "let f d = Domain.join d";
  check_rules "Mutex.create outside prelude" [ "domain-spawn" ]
    "let m = Mutex.create ()";
  (* Taskpool's own implementation is the one sanctioned home. *)
  Alcotest.(check (list string))
    "waived under lib/prelude" []
    (rules_of
       (lint ~file:"lib/prelude/pool.ml"
          "let f g = Domain.join (Domain.spawn g)\nlet m = Mutex.create ()"));
  check_rules "suppressible with a justification" []
    "let f g =\n\
    \  (Domain.spawn g)\n\
    \  [@tqec.allow \"domain-spawn: fixture exercising the escape hatch\"]";
  (* Mutex locking against an existing mutex is fine anywhere — only the
     creation of new synchronization roots is fenced in. *)
  check_rules "Mutex.lock ok" [] "let f m = Mutex.lock m; Mutex.unlock m"

(* ------------------------------------------------------------------ *)
(* fs-write: persistent state is the artifact store's business          *)
(* ------------------------------------------------------------------ *)

let test_fs_write () =
  check_rules "open_out in a library" [ "fs-write" ]
    "let f path = open_out path";
  check_rules "open_out_bin in a library" [ "fs-write" ]
    "let f path = open_out_bin path";
  check_rules "Out_channel.with_open_text in a library" [ "fs-write" ]
    "let f path = Out_channel.with_open_text path (fun _ -> ())";
  check_rules "Sys.rename in a library" [ "fs-write" ]
    "let f a b = Sys.rename a b";
  check_rules "Sys.mkdir in a library" [ "fs-write" ]
    "let f d = Sys.mkdir d 0o755";
  (* Reading is never the rule's business. *)
  check_rules "open_in ok" [] "let f path = open_in path";
  Alcotest.(check (list string))
    "waived in the store module" []
    (rules_of
       (lint ~file:"lib/artifact/store.ml"
          "let f a b = Sys.rename a b\nlet g p = open_out_bin p"));
  Alcotest.(check (list string))
    "waived under bin/" []
    (rules_of (lint ~file:"bin/tqec_compress.ml" "let f p = open_out p"));
  Alcotest.(check (list string))
    "waived under bench/" []
    (rules_of (lint ~file:"bench/main.ml" "let f p = open_out p"));
  check_rules "suppressible with a justification" []
    "let f p =\n\
    \  (open_out p)\n\
    \  [@tqec.allow \"fs-write: fixture exercising the escape hatch\"]"

(* ------------------------------------------------------------------ *)
(* catch-all / list-nth                                                *)
(* ------------------------------------------------------------------ *)

let test_catch_all () =
  check_rules "with _ ->" [ "catch-all" ] "let f g = try g () with _ -> 0";
  check_rules "exception _ match case" [ "catch-all" ]
    "let f g = match g () with exception _ -> 0 | v -> v";
  check_rules "named exception ok" []
    "let f g = try g () with Failure _ | Invalid_argument _ -> 0";
  check_rules "wildcard in a plain match ok" []
    "let f x = match x with 0 -> 1 | _ -> 2"

let test_list_nth () =
  check_rules "List.nth" [ "list-nth" ] "let f l = List.nth l 3";
  check_rules "List.nth_opt" [ "list-nth" ] "let f l = List.nth_opt l 3";
  check_rules "List.hd ok" [] "let f l = List.hd l"

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let test_suppression_expression_level () =
  let r =
    lint
      "let f tbl =\n\
      \  (Hashtbl.iter (fun _ _ -> ()) tbl)\n\
      \  [@tqec.allow \"hashtbl-unsorted: per-key effects commute\"]"
  in
  Alcotest.(check (list string)) "no findings" [] (rules_of r);
  (match r.Lint.suppressed with
   | [ s ] ->
       Alcotest.(check string) "rule recorded" "hashtbl-unsorted"
         s.Lint.s_finding.Lint.rule;
       Alcotest.(check string) "justification kept" "per-key effects commute"
         s.Lint.s_justification
   | l -> Alcotest.failf "expected 1 suppression, got %d" (List.length l))

let test_suppression_binding_level_and_count () =
  let r =
    lint
      "let[@tqec.allow \"list-nth: fixture lists have two elements\"] f l =\n\
      \  List.nth l 0 + List.nth l 1"
  in
  Alcotest.(check (list string)) "no findings" [] (rules_of r);
  Alcotest.(check int) "both violations counted as suppressed" 2
    (List.length r.Lint.suppressed)

let test_suppression_is_rule_scoped () =
  let r =
    lint
      "let[@tqec.allow \"list-nth: wrong rule for this site\"] f () = exit 1"
  in
  (* The allow names list-nth, so the exit finding survives and the unused
     allow is itself reported (column order: the attribute precedes exit). *)
  Alcotest.(check (list string)) "exit survives, allow reported unused"
    [ "unused-allow"; "exit" ] (rules_of r)

let test_unused_allow () =
  check_rules "unused allow flagged" [ "unused-allow" ]
    "let[@tqec.allow \"list-nth: nothing here uses it\"] f x = x"

let test_bad_allow () =
  check_rules "missing justification separator" [ "bad-allow" ]
    "let[@tqec.allow \"list-nth\"] f l = List.hd l";
  check_rules "unknown rule name" [ "bad-allow" ]
    "let[@tqec.allow \"no-such-rule: because\"] f x = x";
  check_rules "empty justification" [ "bad-allow" ]
    "let[@tqec.allow \"list-nth:   \"] f x = x";
  check_rules "non-string payload" [ "bad-allow" ]
    "let[@tqec.allow 42] f x = x"

(* ------------------------------------------------------------------ *)
(* Harness behaviour                                                   *)
(* ------------------------------------------------------------------ *)

let test_parse_error () =
  check_rules "syntax error reported, not raised" [ "parse-error" ] "let = ("

let test_locations () =
  let r =
    lint "let a = 1\n\nlet f l = List.nth l 2\n"
  in
  match r.Lint.findings with
  | [ f ] ->
      Alcotest.(check string) "file" "lib/fixture/snippet.ml" f.Lint.file;
      Alcotest.(check int) "line" 3 f.Lint.line;
      Alcotest.(check string) "rule" "list-nth" f.Lint.rule
  | l -> Alcotest.failf "expected 1 finding, got %d" (List.length l)

let test_merge_and_json () =
  let r1 = lint ~file:"lib/a.ml" "let f l = List.nth l 0" in
  let r2 =
    lint ~file:"lib/b.ml"
      "let f tbl = (Hashtbl.iter (fun _ _ -> ()) tbl)\n\
      \  [@tqec.allow \"hashtbl-unsorted: commutative\"]"
  in
  let m = Lint.merge [ r1; r2 ] in
  Alcotest.(check int) "files merged" 2 m.Lint.files_scanned;
  let j = Lint.to_json m in
  Alcotest.(check bool) "files in json" true
    (Json.path [ "files" ] j = Some (Json.Int 2));
  (match Json.path [ "findings" ] j with
   | Some (Json.List [ Json.Obj _ ]) -> ()
   | _ -> Alcotest.fail "expected exactly one finding object");
  (match Json.path [ "by_rule"; "list-nth"; "findings" ] j with
   | Some (Json.Int 1) -> ()
   | _ -> Alcotest.fail "by_rule counter missing");
  (match Json.path [ "by_rule"; "hashtbl-unsorted"; "suppressed" ] j with
   | Some (Json.Int 1) -> ()
   | _ -> Alcotest.fail "suppressed counter missing");
  (match Json.of_string (Json.to_string ~pretty:true j) with
   | Ok parsed ->
       Alcotest.(check bool) "report json round-trips" true (Json.equal j parsed)
   | Error msg -> Alcotest.fail msg);
  let text = Lint.to_text m in
  Alcotest.(check bool) "text has file:line:col prefix" true
    (let prefix = "lib/a.ml:1:" in
     String.length text >= String.length prefix
     && String.equal (String.sub text 0 (String.length prefix)) prefix)

let test_suppression_module_binding_level () =
  let r =
    lint
      "module[@tqec.allow \"list-nth: fixture module is two elements deep\"] \
       M = struct\n\
      \  let f l = List.nth l 0\n\
       end"
  in
  Alcotest.(check (list string)) "no findings" [] (rules_of r);
  Alcotest.(check int) "suppressed inside the module" 1
    (List.length r.Lint.suppressed)

let test_suppression_floating () =
  (* A floating [@@@tqec.allow] covers the rest of the structure — the
     violation before it still stands. *)
  let r =
    lint
      "let f l = List.nth l 0\n\
       [@@@tqec.allow \"list-nth: everything below is fixture code\"]\n\
       let g l = List.nth l 1\n\
       let h l = List.nth l 2"
  in
  Alcotest.(check (list string)) "only the pre-attribute site survives"
    [ "list-nth" ] (rules_of r);
  (match r.Lint.findings with
   | [ f ] -> Alcotest.(check int) "surviving finding is line 1" 1 f.Lint.line
   | _ -> Alcotest.fail "expected exactly one finding");
  Alcotest.(check int) "both later sites suppressed" 2
    (List.length r.Lint.suppressed)

let test_rule_registry () =
  Alcotest.(check int) "twelve real rules" 12 (List.length Lint.rules);
  List.iter
    (fun (name, _, doc) ->
      Alcotest.(check bool) ("doc for " ^ name) true (String.length doc > 0);
      Alcotest.(check bool) ("known " ^ name) true (Lint.known_rule name))
    Lint.rules;
  let typed =
    List.filter (fun (_, t, _) -> t = Lint.Typed) Lint.rules |> List.map (fun (n, _, _) -> n)
  in
  Alcotest.(check (list string)) "typed tier rules"
    [ "task-capture-race"; "cache-ambient-read"; "hot-path-alloc" ] typed;
  Alcotest.(check bool) "pseudo-rules are not suppressible targets" false
    (Lint.known_rule "parse-error")

(* ------------------------------------------------------------------ *)
(* Typed tier: fixture library under test/lint_fixtures                *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs this binary from _build/default/test, where the
   fixture sources and their .cmt artifacts both live under
   lint_fixtures/; a manual run from the repo root finds the sources in
   test/lint_fixtures and the cmts under _build. *)
let fixture_src name =
  let candidates = [ "lint_fixtures"; "test/lint_fixtures" ] in
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d name))
      candidates
  with
  | Some d -> Filename.concat d name
  | None -> Alcotest.failf "fixture %s not found (cwd %s)" name (Sys.getcwd ())

let fixture_cmt_root () =
  let src_dir = Filename.dirname (fixture_src "race_bad.ml") in
  if Sys.file_exists (Filename.concat src_dir ".tqec_lint_fixtures.objs")
  then src_dir
  else "_build/default/test/lint_fixtures"

let typed_lint ?keep names =
  Lint_typed.lint_files ?keep ~cmt_root:(fixture_cmt_root ())
    (List.map fixture_src names)

let findings_for r file rule =
  List.filter
    (fun f ->
      Filename.basename f.Lint.file = file && String.equal f.Lint.rule rule)
    r.Lint.findings

let message_has sub (f : Lint.finding) =
  let msg = f.Lint.message in
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length msg
    && (String.equal (String.sub msg i n) sub || scan (i + 1))
  in
  scan 0

let suppressed_for r file rule =
  List.filter
    (fun s ->
      Filename.basename s.Lint.s_finding.Lint.file = file
      && String.equal s.Lint.s_finding.Lint.rule rule)
    r.Lint.suppressed

let test_typed_race_fixtures () =
  let r = typed_lint [ "race_bad.ml"; "race_ok.ml" ] in
  let bad = findings_for r "race_bad.ml" "task-capture-race" in
  (* One per seeded bug: module-ref via :=, local ref via incr, named step
     function via Array.set. *)
  Alcotest.(check int) "three seeded races" 3 (List.length bad);
  List.iter
    (fun f -> Alcotest.(check bool) "typed tier" true (f.Lint.tier = Lint.Typed))
    bad;
  Alcotest.(check (list string)) "clean variants silent" []
    (List.map
       (fun f -> f.Lint.rule)
       (findings_for r "race_ok.ml" "task-capture-race"));
  (* The disjoint-slot write is flagged but rides the reviewed allow. *)
  Alcotest.(check int) "allowed slot write recorded as suppressed" 1
    (List.length (suppressed_for r "race_ok.ml" "task-capture-race"))

let test_typed_cache_fixtures () =
  let r = typed_lint [ "cache_bad.ml"; "cache_ok.ml" ] in
  let bad = findings_for r "cache_bad.ml" "cache-ambient-read" in
  (* env read, file read, module-level mutable global. *)
  Alcotest.(check int) "three seeded stale-key stages" 3 (List.length bad);
  let mentions sub = List.exists (message_has sub) bad in
  Alcotest.(check bool) "env fact surfaced" true (mentions "FIXTURE_BUDGET");
  Alcotest.(check bool) "file fact surfaced" true (mentions "In_channel");
  Alcotest.(check bool) "global fact surfaced" true
    (mentions "module-level mutable");
  Alcotest.(check bool) "call chain in message" true (mentions "run ->");
  Alcotest.(check (list string)) "keyed + pure stages silent" []
    (List.map
       (fun f -> f.Lint.rule)
       (findings_for r "cache_ok.ml" "cache-ambient-read"))

let test_typed_hot_fixtures () =
  let r = typed_lint [ "hot_bad.ml"; "hot_ok.ml" ] in
  let bad = findings_for r "hot_bad.ml" "hot-path-alloc" in
  (* midpoints: List.map + closure; via_helper: transitive ref in callee;
     relax_popped / relax_each: a hot step rebuilt in a while / for body. *)
  Alcotest.(check int) "five seeded hot allocations" 5 (List.length bad);
  Alcotest.(check bool) "transitive finding names the chain" true
    (List.exists
       (fun f ->
         f.Lint.line = 7
         (* the ref inside make_cell, reached from via_helper *))
       bad);
  Alcotest.(check (list int)) "per-iteration closures at their binding sites"
    [ 20; 30 ]
    (List.filter_map
       (fun f ->
         if message_has "every iteration" f then Some f.Lint.line else None)
       bad);
  Alcotest.(check (list string)) "pure-int kernels silent" []
    (List.map
       (fun f -> f.Lint.rule)
       (findings_for r "hot_ok.ml" "hot-path-alloc"));
  Alcotest.(check int) "allowed scratch alloc recorded as suppressed" 1
    (List.length (suppressed_for r "hot_ok.ml" "hot-path-alloc"))

let test_typed_keep_filter () =
  (* Dropping a typed rule skips its analysis entirely and exempts its
     allows from unused-allow. *)
  let r =
    typed_lint
      ~keep:(fun rule -> not (String.equal rule "hot-path-alloc"))
      [ "hot_bad.ml"; "hot_ok.ml" ]
  in
  Alcotest.(check (list string)) "no findings at all" [] (rules_of r)

let test_typed_cmt_missing () =
  let tmp = Filename.temp_file "tqec_lint_nocmt" ".ml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc "let answer = 42\n");
      let r =
        Lint_typed.lint_files ~cmt_root:(fixture_cmt_root ()) [ tmp ]
      in
      match r.Lint.findings with
      | [ f ] ->
          Alcotest.(check string) "rule" "cmt-missing" f.Lint.rule;
          Alcotest.(check bool) "typed tier" true (f.Lint.tier = Lint.Typed);
          Alcotest.(check bool) "message says how to build" true
            (message_has "dune build" f)
      | l ->
          Alcotest.failf "expected exactly the cmt-missing finding, got %d"
            (List.length l))

let test_typed_cmt_stale () =
  (* Same basename as a compiled fixture, different bytes: the typed tier
     must refuse to pair them and say the cmt is stale. *)
  let dir = Filename.temp_file "tqec_lint_stale" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let tmp = Filename.concat dir "race_bad.ml" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove tmp with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc "let edited_since_build = true\n");
      let r =
        Lint_typed.lint_files ~cmt_root:(fixture_cmt_root ()) [ tmp ]
      in
      Alcotest.(check (list string)) "stale reported" [ "cmt-stale" ]
        (rules_of r))

(* ------------------------------------------------------------------ *)
(* Report JSON: schema and round-trip property                         *)
(* ------------------------------------------------------------------ *)

let test_json_schema_v2 () =
  let r = typed_lint [ "hot_bad.ml" ] in
  let j = Lint.to_json r in
  (match Json.path [ "schema_version" ] j with
   | Some (Json.Int v) ->
       Alcotest.(check int) "schema version" Lint.schema_version v;
       Alcotest.(check int) "v2" 2 v
   | _ -> Alcotest.fail "schema_version missing");
  (match Json.path [ "findings" ] j with
   | Some (Json.List fs) ->
       Alcotest.(check bool) "at least one finding" true (fs <> []);
       List.iter
         (fun f ->
           match f with
           | Json.Obj kvs ->
               let tier = List.assoc_opt "tier" kvs in
               Alcotest.(check bool) "tier tag present and typed" true
                 (tier = Some (Json.String "typed"))
           | _ -> Alcotest.fail "finding is not an object")
         fs
   | _ -> Alcotest.fail "findings missing");
  match Json.path [ "wall_s" ] j with
  | Some (Json.Float _) -> ()
  | _ -> Alcotest.fail "wall_s missing"

let test_report_json_round_trip_property () =
  let module Gen = Tqec_proptest.Gen in
  let module Property = Tqec_proptest.Property in
  let ident = Gen.string ~max_len:12 (Gen.char_range 'a' 'z') in
  let text = Gen.string ~max_len:30 (Gen.char_range ' ' '~') in
  let tier = Gen.oneofl [ Lint.Syntactic; Lint.Typed ] in
  let finding =
    Gen.map2
      (fun (rule, file, message) (line, col, tier) ->
        { Lint.rule; file; line; col; message; tier })
      (Gen.triple ident ident text)
      (Gen.triple (Gen.int_range 1 9999) (Gen.int_range 0 400) tier)
  in
  let report =
    Gen.map2
      (fun (findings, suppressed) (files_scanned, wall_s) ->
        { Lint.findings;
          suppressed =
            List.map
              (fun (f, j) -> { Lint.s_finding = f; s_justification = j })
              suppressed;
          files_scanned;
          wall_s })
      (Gen.pair
         (Gen.list ~max_len:6 finding)
         (Gen.list ~max_len:4 (Gen.pair finding text)))
      (Gen.pair (Gen.int_range 0 200) (Gen.float_range 0.0 60.0))
  in
  let arb =
    Property.make
      ~print:(fun r -> Json.to_string ~pretty:false (Lint.to_json r))
      report
  in
  let outcome =
    Property.run ~count:150 ~seed:23 ~name:"lint-report-json-round-trip" arb
      (fun r ->
        let j = Lint.to_json r in
        List.for_all
          (fun pretty ->
            match Json.of_string (Json.to_string ~pretty j) with
            | Ok parsed -> Json.equal j parsed
            | Error _ -> false)
          [ false; true ])
  in
  match Property.check outcome with Ok () -> () | Error e -> Alcotest.fail e

let test_github_output () =
  let r = lint ~file:"lib/a.ml" "let f l = List.nth l 0" in
  let gh = Lint.to_github r in
  let prefix = "::error file=lib/a.ml,line=1," in
  Alcotest.(check bool) "workflow command emitted" true
    (String.length gh >= String.length prefix
     && String.equal (String.sub gh 0 (String.length prefix)) prefix);
  let clean = lint "let f x = x + 1" in
  Alcotest.(check string) "clean report emits nothing" ""
    (Lint.to_github clean)

let suites =
  [ ( "lint",
      [ Alcotest.test_case "hashtbl flagged" `Quick test_hashtbl_flagged;
        Alcotest.test_case "hashtbl sorted allowance" `Quick
          test_hashtbl_sorted_allowance;
        Alcotest.test_case "poly compare" `Quick test_poly_compare;
        Alcotest.test_case "float literal equality" `Quick test_float_lit_eq;
        Alcotest.test_case "ambient effects" `Quick test_ambient_effect;
        Alcotest.test_case "exit scope" `Quick test_exit_scope;
        Alcotest.test_case "domain spawn" `Quick test_domain_spawn;
        Alcotest.test_case "fs-write" `Quick test_fs_write;
        Alcotest.test_case "catch-all" `Quick test_catch_all;
        Alcotest.test_case "list-nth" `Quick test_list_nth;
        Alcotest.test_case "suppression: expression level" `Quick
          test_suppression_expression_level;
        Alcotest.test_case "suppression: binding level + count" `Quick
          test_suppression_binding_level_and_count;
        Alcotest.test_case "suppression: rule scoped" `Quick
          test_suppression_is_rule_scoped;
        Alcotest.test_case "suppression: module binding" `Quick
          test_suppression_module_binding_level;
        Alcotest.test_case "suppression: floating" `Quick
          test_suppression_floating;
        Alcotest.test_case "unused allow" `Quick test_unused_allow;
        Alcotest.test_case "bad allow" `Quick test_bad_allow;
        Alcotest.test_case "parse error" `Quick test_parse_error;
        Alcotest.test_case "locations" `Quick test_locations;
        Alcotest.test_case "merge + json + text" `Quick test_merge_and_json;
        Alcotest.test_case "rule registry" `Quick test_rule_registry;
        Alcotest.test_case "github output" `Quick test_github_output ] );
    ( "lint-typed",
      [ Alcotest.test_case "race fixtures" `Quick test_typed_race_fixtures;
        Alcotest.test_case "cache fixtures" `Quick test_typed_cache_fixtures;
        Alcotest.test_case "hot fixtures" `Quick test_typed_hot_fixtures;
        Alcotest.test_case "keep filter" `Quick test_typed_keep_filter;
        Alcotest.test_case "cmt missing" `Quick test_typed_cmt_missing;
        Alcotest.test_case "cmt stale" `Quick test_typed_cmt_stale;
        Alcotest.test_case "json schema v2" `Quick test_json_schema_v2;
        Alcotest.test_case "report json round-trip" `Quick
          test_report_json_round_trip_property ] ) ]
