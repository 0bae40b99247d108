type t = {
  tracks : int;
  wires : int;
  assignment : int array;
  max_live : int;
}

(* A wire is live from its creating event to its consuming event, measured
   on the CNOT timeline. Data-qubit inputs are live from the start; wires
   still carrying data at the end (outputs) are live to the end. *)
let lifetimes icm =
  let n = Icm.num_wires icm in
  let ncnots = Icm.num_cnots icm in
  let first = Array.make n max_int and last = Array.make n min_int in
  Array.iter
    (fun (c : Icm.cnot) ->
      let touch w =
        if c.Icm.cnot_id < first.(w) then first.(w) <- c.Icm.cnot_id;
        if c.Icm.cnot_id > last.(w) then last.(w) <- c.Icm.cnot_id
      in
      touch c.Icm.control;
      touch c.Icm.target)
    icm.Icm.cnots;
  let is_output = Array.make n false in
  Array.iter (fun w -> is_output.(w) <- true) icm.Icm.output_wire;
  Array.mapi
    (fun w (wire : Icm.wire) ->
      ignore wire;
      let birth =
        if w < icm.Icm.num_data_qubits then 0 (* original inputs: time zero *)
        else if first.(w) = max_int then 0
        else first.(w)
      in
      let death =
        if is_output.(w) then ncnots (* alive to the end *)
        else if last.(w) = min_int then birth
        else last.(w)
      in
      (birth, death))
    icm.Icm.wires

let analyze icm =
  let n = Icm.num_wires icm in
  let life = lifetimes icm in
  (* Left-edge: wires sorted by birth; each takes the lowest-numbered track
     whose current occupant died strictly earlier. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let (ba, _) = life.(a) and (bb, _) = life.(b) in
      let c = Int.compare ba bb in
      if c <> 0 then c else Int.compare a b)
    order;
  let track_free_at = ref [||] in
  let track_count = ref 0 in
  let assignment = Array.make n (-1) in
  let grow () =
    let ncap = Int.max 8 (2 * Array.length !track_free_at) in
    let arr = Array.make ncap min_int in
    Array.blit !track_free_at 0 arr 0 !track_count;
    track_free_at := arr
  in
  Array.iter
    (fun w ->
      let birth, death = life.(w) in
      (* lowest track free before this wire is born *)
      let rec find t =
        if t >= !track_count then None
        else if !track_free_at.(t) < birth then Some t
        else find (t + 1)
      in
      let t =
        match find 0 with
        | Some t -> t
        | None ->
            if !track_count >= Array.length !track_free_at then grow ();
            let t = !track_count in
            incr track_count;
            t
      in
      !track_free_at.(t) <- death;
      assignment.(w) <- t)
    order;
  (* Peak liveness via a sweep. *)
  let events = ref [] in
  Array.iter
    (fun (b, d) ->
      events := (b, 1) :: (d + 1, -1) :: !events)
    life;
  let cmp (t1, d1) (t2, d2) =
    let c = Int.compare t1 t2 in
    if c <> 0 then c else Int.compare d1 d2
  in
  let sorted = List.sort cmp !events in
  let live = ref 0 and peak = ref 0 in
  List.iter
    (fun (_, delta) ->
      live := !live + delta;
      if !live > !peak then peak := !live)
    sorted;
  { tracks = !track_count; wires = n; assignment; max_live = !peak }

let saved_rows t = t.wires - t.tracks

let recycled_canonical_volume icm t =
  let d = Int.max 3 (3 * Icm.num_cnots icm) in
  t.tracks * 2 * d

let validate icm t =
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  let life = lifetimes icm in
  let n = Icm.num_wires icm in
  let overlap (b1, d1) (b2, d2) = b1 <= d2 && b2 <= d1 in
  let bad = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if t.assignment.(i) = t.assignment.(j) && overlap life.(i) life.(j) then
        bad := Some (i, j)
    done
  done;
  match !bad with
  | Some (i, j) -> err "wires %d and %d share a track while both live" i j
  | None ->
      if t.tracks <> t.max_live then
        err "left-edge used %d tracks but peak liveness is %d" t.tracks t.max_live
      else Ok ()
