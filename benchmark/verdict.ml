type summary = { n : int; median : float; q1 : float; q3 : float }

(* Python's [statistics.quantiles values ~n:4] (the default "exclusive"
   method), so the spreads printed here are the ones the acceptance rule is
   written in. *)
let summarize values =
  let data = Array.of_list values in
  Array.sort compare data;
  let n = Array.length data in
  if n = 0 then invalid_arg "Verdict.summarize: no values";
  if n = 1 then { n; median = data.(0); q1 = data.(0); q3 = data.(0) }
  else begin
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta)) /. 4.0
    in
    { n; q1 = cut 1; median = cut 2; q3 = cut 3 }
  end

(* Interquartile distance as a share of the median. *)
let spread s =
  if s.median = 0.0 then (if s.q3 = s.q1 then 0.0 else infinity)
  else (s.q3 -. s.q1) /. Float.abs s.median

(* How much worse [change] is than [parent], as a share of [parent];
   negative when it is better. *)
let worsening ~better ~parent change =
  let d = match better with Spec.Lower -> change -. parent | Spec.Higher -> parent -. change in
  if parent = 0.0 then (if d = 0.0 then 0.0 else Float.copy_sign infinity d)
  else d /. Float.abs parent

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* Runs paired by seed; a tie counts for neither side. *)
let wins ~better pairs =
  List.length
    (List.filter (fun (parent, change) -> worsening ~better ~parent change < 0.0) pairs)

(* [pairs] are (parent, change) runs of one (metric, workload), paired by
   seed. Worse: the change's median is worse than the parent's by more than
   [bound]. Better: the change wins at least nine tenths of the pairs and the
   medians differ, its way, by more than the parent's interquartile
   distance. Unresolved: neither, while either side's run-to-run spread is
   wider than [bound] and some change run does not beat every parent run. *)
let judge ~better ~bound pairs =
  let parent = summarize (List.map fst pairs) and change = summarize (List.map snd pairs) in
  let beats_all c = List.for_all (fun (p, _) -> worsening ~better ~parent:p c < 0.0) pairs in
  let v =
    if worsening ~better ~parent:parent.median change.median > bound then Worse
    else if
      10 * wins ~better pairs >= 9 * List.length pairs
      && worsening ~better ~parent:parent.median change.median < 0.0
      && Float.abs (change.median -. parent.median) > parent.q3 -. parent.q1
    then Better
    else if
      (spread parent > bound || spread change > bound)
      && not (List.for_all (fun (_, c) -> beats_all c) pairs)
    then Unresolved
    else Same
  in
  (v, parent, change)
