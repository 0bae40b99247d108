module Icm = Tqec_icm.Icm
module Stats = Tqec_icm.Stats

type arrangement = One_d | Two_d

type result = {
  arrangement : arrangement;
  width : int;
  height : int;
  depth : int;
  volume : int;
  total_volume : int;
  slots : int;
}

let qubit_pitch = 1
let slot_pitch = 2
let row_pitch = 2
let rows_2d = 4

(* The routing-pattern footprint of a CNOT: in 1D the wire interval between
   its endpoints; in 2D the bounding box of the two grid positions. *)
type region_1d = { lo : int; hi : int }

type region_2d = { rlo : int; rhi : int; clo : int; chi : int }

let conflict_1d a b = a.lo <= b.hi && b.lo <= a.hi

let conflict_2d a b = a.rlo <= b.rhi && b.rlo <= a.rhi && a.clo <= b.chi && b.clo <= a.chi

(* Dependency-respecting ASAP schedule: a pattern goes into the earliest
   slot after every already-scheduled pattern it conflicts with (conflict
   subsumes data dependency: CNOTs sharing a wire overlap). *)
let schedule conflicts_with regions =
  let n = Array.length regions in
  let slot = Array.make n 0 in
  let max_slot = ref 0 in
  for i = 0 to n - 1 do
    let earliest = ref 0 in
    for j = 0 to i - 1 do
      if conflicts_with regions.(i) regions.(j) && slot.(j) >= !earliest then
        earliest := slot.(j) + 1
    done;
    slot.(i) <- !earliest;
    if !earliest > !max_slot then max_slot := !earliest
  done;
  !max_slot + 1

let box_volume icm =
  (Stats.y_box_volume * Icm.count_y icm) + (Stats.a_box_volume * Icm.count_a icm)

let run arrangement icm =
  let q = Icm.num_wires icm in
  match arrangement with
  | One_d ->
      let regions =
        Array.map
          (fun (c : Icm.cnot) ->
            { lo = Int.min c.Icm.control c.Icm.target;
              hi = Int.max c.Icm.control c.Icm.target })
          icm.Icm.cnots
      in
      let slots = schedule conflict_1d regions in
      let width = qubit_pitch * q in
      let height = 2 in
      let depth = slot_pitch * slots in
      let volume = width * height * depth in
      { arrangement; width; height; depth; volume;
        total_volume = volume + box_volume icm; slots }
  | Two_d ->
      let cols = (q + rows_2d - 1) / rows_2d in
      let pos wire = (wire mod rows_2d, wire / rows_2d) in
      let regions =
        Array.map
          (fun (c : Icm.cnot) ->
            let r1, c1 = pos c.Icm.control and r2, c2 = pos c.Icm.target in
            { rlo = Int.min r1 r2; rhi = Int.max r1 r2;
              clo = Int.min c1 c2; chi = Int.max c1 c2 })
          icm.Icm.cnots
      in
      let slots = schedule conflict_2d regions in
      let width = qubit_pitch * cols in
      let height = row_pitch * rows_2d in
      let depth = slot_pitch * slots in
      let volume = width * height * depth in
      { arrangement; width; height; depth; volume;
        total_volume = volume + box_volume icm; slots }

let of_circuit arrangement circuit =
  let icm = Icm.of_circuit (Tqec_circuit.Decompose.circuit circuit) in
  run arrangement icm
