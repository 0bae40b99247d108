(* Result files of tqec_bench (written with --out) and the checks compare
   makes on a change's set of them before it looks at any timing. *)

module Json = Tqec_obs.Json

type t = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let of_json json =
  let get keys =
    match Json.path keys json with
    | Some v -> Ok v
    | None -> Error ("no " ^ String.concat "." keys)
  in
  let ( let* ) = Result.bind in
  let number keys =
    let* v = get keys in
    match v with
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> Error (String.concat "." keys ^ " is not a number")
  in
  let int keys = Result.map int_of_float (number keys) in
  let bool keys =
    let* v = get keys in
    match v with Json.Bool b -> Ok b | _ -> Error (String.concat "." keys ^ " is not a boolean")
  in
  let* workload =
    let* v = get [ "workload" ] in
    match v with Json.String s -> Ok s | _ -> Error "workload is not a string"
  in
  let* seed = int [ "seed" ] in
  let* traced = bool [ "trace" ] in
  let* correct = bool [ "result"; "correct" ] in
  let* attempted = int [ "result"; "attempted" ] in
  let* failed = int [ "result"; "failed" ] in
  let* metrics =
    let* v = get [ "result"; "metrics" ] in
    match v with Json.Obj fields -> Ok fields | _ -> Error "result.metrics is not an object"
  in
  let* values =
    List.fold_right
      (fun (name, _) acc ->
        let* acc = acc in
        let* v = number [ "result"; "metrics"; name; "value" ] in
        Ok ((name, v) :: acc))
      metrics (Ok [])
  in
  Ok { workload; seed; traced; correct; attempted; failed; values }

(* (parent, change) values of one metric on one workload, paired by seed. *)
let pairs ~parent ~change ~workload ~metric =
  let value set seed =
    List.find_map
      (fun r -> if r.workload = workload && r.seed = seed then List.assoc_opt metric r.values else None)
      set
  in
  List.sort_uniq compare (List.map (fun r -> r.seed) parent)
  |> List.filter_map (fun seed ->
         match (value parent seed, value change seed) with
         | Some p, Some c -> Some (seed, (p, c))
         | _ -> None)

let fail_share runs workload =
  let runs = List.filter (fun r -> r.workload = workload) runs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  float_of_int (sum (fun r -> r.failed)) /. float_of_int (max 1 (sum (fun r -> r.attempted)))

let describe r = Printf.sprintf "%s seed %d trace %d" r.workload r.seed (Bool.to_int r.traced)

(* Each reason the change set fails whatever its timings say: a run the
   parent set has and the change set lacks, a change run with a wrong
   output, or a workload on which a larger share of the change's jobs
   failed. *)
let problems ~parent ~change =
  let key r = (r.workload, r.seed, r.traced) in
  let missing =
    List.filter_map
      (fun p ->
        if List.exists (fun c -> key c = key p) change then None
        else Some (describe p ^ ": no change run"))
      parent
  in
  let wrong =
    List.filter_map
      (fun c -> if c.correct then None else Some (describe c ^ ": an output is wrong"))
      change
  in
  let more_failed =
    List.sort_uniq compare (List.map (fun r -> r.workload) parent)
    |> List.filter_map (fun w ->
           let p = fail_share parent w and c = fail_share change w in
           if c > p then Some (Printf.sprintf "%s: failed share %.4f -> %.4f" w p c) else None)
  in
  missing @ wrong @ more_failed
