(* Checks BENCHMARK.json against the benchmark's own tables, and compare's
   verdicts and run checks on synthetic samples. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let spec =
  match Spec.load "../BENCHMARK.json" with
  | Ok spec -> spec
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let () =
  let names =
    spec.Spec.workloads
    @ List.map (fun (m : Spec.metric) -> m.Spec.name) (spec.Spec.end_to_end @ spec.Spec.per_layer)
  in
  List.iter (fun n -> check ("name " ^ n) (valid_name n)) names;
  check "names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  check "paths" (spec.Spec.paths = [ "benchmark/" ]);
  let e2e = List.map (fun (m : Spec.metric) -> m.Spec.name) spec.Spec.end_to_end in
  let layer = List.map (fun (m : Spec.metric) -> m.Spec.name) spec.Spec.per_layer in
  check "every per-layer metric has a prediction"
    (List.sort compare layer = List.sort compare (List.map fst (Spec.moves spec)));
  List.iter
    (fun (metric, predicted) ->
      List.iter
        (fun (target, workloads) ->
          check (metric ^ " moves " ^ target) (List.mem target e2e);
          List.iter
            (fun w -> check (metric ^ " on " ^ w) (List.mem w spec.Spec.workloads))
            workloads)
        predicted)
    (Spec.moves spec);
  List.iter (fun n -> check ("exact metric " ^ n) (List.mem n names)) Spec.exact;
  List.iter
    (fun (m : Spec.metric) ->
      check ("bound of " ^ m.Spec.name)
        (match m.Spec.bound with Some b -> b >= 0.0 && b <= 0.25 | None -> false))
    spec.Spec.end_to_end

(* compare's verdicts on synthetic runs, paired by position. *)
let () =
  let judge parent change =
    let v, _, _ = Verdict.judge ~better:Spec.Lower ~bound:0.10 (List.combine parent change) in
    v
  in
  let steady = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00 ] in
  let scale k = List.map (fun x -> k *. x) steady in
  check "quartiles match Python's statistics.quantiles"
    (let s = Verdict.summarize [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
     s.Verdict.q1 = 2.75 && s.Verdict.median = 5.5 && s.Verdict.q3 = 8.25);
  check "same" (judge steady (scale 1.03) = Verdict.Same);
  check "worse" (judge steady (scale 1.2) = Verdict.Worse);
  check "better" (judge steady (scale 0.9) = Verdict.Better);
  let noisy = [ 0.7; 1.3; 0.8; 1.2; 1.0; 0.6; 1.4; 0.9; 1.1; 1.0 ] in
  check "unresolved" (judge noisy (List.rev noisy) = Verdict.Unresolved);
  check "higher is better"
    (let v, _, _ =
       Verdict.judge ~better:Spec.Higher ~bound:0.10 (List.combine steady (scale 0.8))
     in
     v = Verdict.Worse)

(* compare's checks on whole runs: parsing a result file, then a missing
   change run, a wrong output and a higher failed share. *)
let () =
  let run ?(correct = true) ?(failed = 0) workload seed =
    Tqec_obs.Json.(
      Obj
        [ ("workload", String workload);
          ("seed", Int seed);
          ("trace", Bool false);
          ( "result",
            Obj
              [ ("correct", Bool correct);
                ("attempted", Int 100);
                ("failed", Int failed);
                ("metrics", Obj [ ("wall_s", Obj [ ("value", Float 1.5); ("unit", String "s") ]) ])
              ] ) ])
    |> Runs.of_json |> Result.get_ok
  in
  let parent = [ run "a" 1; run "a" 2; run "b" 1 ] in
  check "parsed" ((List.hd parent).Runs.values = [ ("wall_s", 1.5) ]);
  let problems change = List.length (Runs.problems ~parent ~change) in
  check "same runs pass" (problems parent = 0);
  check "missing run" (problems [ run "a" 1; run "b" 1 ] = 1);
  check "empty change set" (problems [] = 3);
  check "wrong output" (problems [ run "a" 1; run ~correct:false "a" 2; run "b" 1 ] = 1);
  check "higher failed share" (problems [ run "a" 1; run "a" 2; run ~failed:1 "b" 1 ] = 1)

let () =
  if !failures > 0 then exit 1;
  print_endline "benchmark: BENCHMARK.json, compare verdicts and run checks ok"
