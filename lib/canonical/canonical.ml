module Cuboid = Tqec_geom.Cuboid
module Point3 = Tqec_geom.Point3
module Icm = Tqec_icm.Icm

type defect = Primal | Dual

type element = { defect : defect; cuboid : Cuboid.t; label : string }

type t = {
  icm : Icm.t;
  width : int;
  height : int;
  depth : int;
  elements : element list;
}

(* Slot width of one CNOT along the time axis: the dual loop needs one unit,
   plus one unit of separation on each side (defects one unit apart). *)
let slot = 3

let of_icm icm =
  let w = Icm.num_wires icm in
  let d = Int.max slot (slot * Icm.num_cnots icm) in
  let rail wire_id z =
    { defect = Primal;
      cuboid = Cuboid.of_origin_size (Point3.make 0 wire_id z) ~w:1 ~h:1 ~d;
      label = Printf.sprintf "wire %d rail z=%d" wire_id z }
  in
  let rails =
    List.concat_map
      (fun wire -> [ rail wire.Icm.wire_id 0; rail wire.Icm.wire_id 1 ])
      (Array.to_list icm.Icm.wires)
  in
  let loop c =
    let x = (slot * c.Icm.cnot_id) + 1 in
    let y_lo = Int.min c.Icm.control c.Icm.target in
    let y_hi = Int.max c.Icm.control c.Icm.target in
    let span = y_hi - y_lo + 1 in
    let label s = Printf.sprintf "cnot %d loop %s" c.Icm.cnot_id s in
    (* A rectangular dual ring in the y–z plane at time x, enclosing the
       control rail and passing between the target's rails. *)
    [ { defect = Dual;
        cuboid = Cuboid.of_origin_size (Point3.make x y_lo 0) ~w:span ~h:1 ~d:1;
        label = label "bottom" };
      { defect = Dual;
        cuboid = Cuboid.of_origin_size (Point3.make x y_lo 1) ~w:span ~h:1 ~d:1;
        label = label "top" };
      { defect = Dual;
        cuboid = Cuboid.of_origin_size (Point3.make x y_lo 0) ~w:1 ~h:2 ~d:1;
        label = label "left" };
      { defect = Dual;
        cuboid = Cuboid.of_origin_size (Point3.make x y_hi 0) ~w:1 ~h:2 ~d:1;
        label = label "right" } ]
  in
  let loops = List.concat_map loop (Array.to_list icm.Icm.cnots) in
  { icm; width = w; height = 2; depth = d; elements = rails @ loops }

let volume t = t.width * t.height * t.depth

let total_volume t =
  let n_y = Icm.count_y t.icm and n_a = Icm.count_a t.icm in
  volume t + (Tqec_icm.Stats.y_box_volume * n_y) + (Tqec_icm.Stats.a_box_volume * n_a)

let dims t = (t.width, t.height, t.depth)
