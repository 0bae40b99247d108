(* Compare two sets of tqec_bench result files (written with --out), parent
   against change, one row per (workload, metric) of BENCHMARK.json:

     compare PARENT_DIR CHANGE_DIR

   Run from the repository root. Runs are paired by seed. Exit 1 when any
   end-to-end metric is worse than its bound, or on any of Runs.problems (a
   missing or wrong change run, a higher share of failed jobs); 2 on bad
   input. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare: " ^ msg); exit 2) fmt

let read_set dir =
  match Sys.readdir dir with
  | exception Sys_error e -> die "%s" e
  | files ->
      Array.sort compare files;
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             match
               Result.bind
                 (Tqec_obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all))
                 Runs.of_json
             with
             | Ok run -> run
             | Error e -> die "%s: %s" path e)

let () =
  let dirs = ref [] in
  Arg.parse [] (fun d -> dirs := !dirs @ [ d ]) "compare PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir =
    match !dirs with [ p; c ] -> (p, c) | _ -> die "expected PARENT_DIR and CHANGE_DIR"
  in
  let spec = match Spec.load "BENCHMARK.json" with Ok s -> s | Error e -> die "BENCHMARK.json: %s" e in
  let parent = read_set parent_dir and change = read_set change_dir in
  if parent = [] then die "%s holds no result files" parent_dir;
  let regressed = ref false and won = ref 0 and paired = ref 0 and differs = ref [] in
  Printf.printf "%-16s %-14s %-34s %-34s %8s %6s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "bound" "wins" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let ps = Runs.pairs ~parent ~change ~workload ~metric:m.Spec.name in
          if List.mem m.Spec.name Spec.exact then
            List.iter
              (fun (seed, (p, c)) ->
                if p <> c then differs := Printf.sprintf "%s %s seed %d: %g -> %g" workload m.Spec.name seed p c :: !differs)
              ps;
          match (m.Spec.bound, ps) with
          | None, _ | _, [] -> ()
          | Some bound, _ ->
              let ps = List.map snd ps in
              let v, p, c = Verdict.judge ~better:m.Spec.better ~bound ps in
              let wins = Verdict.wins ~better:m.Spec.better ps in
              won := !won + wins;
              paired := !paired + List.length ps;
              if v = Verdict.Worse then regressed := true;
              let show (s : Verdict.summary) = Printf.sprintf "%.6g [%.6g, %.6g]" s.Verdict.median s.Verdict.q1 s.Verdict.q3 in
              Printf.printf "%-16s %-14s %-34s %-34s %+7.1f%% %5.0f%% %3d/%-2d  %s\n" workload m.Spec.name
                (show p) (show c)
                (100.0 *. Verdict.worsening ~better:m.Spec.better ~parent:p.Verdict.median c.Verdict.median)
                (100.0 *. bound) wins (List.length ps) (Verdict.verdict_name v))
        (spec.Spec.end_to_end @ spec.Spec.per_layer))
    spec.Spec.workloads;
  Printf.printf "change wins %d of %d paired runs (%.0f%%; ties count for neither)\n" !won !paired
    (100.0 *. float_of_int !won /. float_of_int (max 1 !paired));
  (match List.rev !differs with
   | [] -> print_endline "deterministic metrics: identical"
   | ds ->
       Printf.printf "deterministic metrics: %d differ\n" (List.length ds);
       List.iter (fun d -> print_endline ("  " ^ d)) ds);
  let problems = Runs.problems ~parent ~change in
  List.iter (fun p -> print_endline ("FAILED " ^ p)) problems;
  if !regressed || problems <> [] then exit 1
