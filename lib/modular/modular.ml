module Point3 = Tqec_geom.Point3
module Icm = Tqec_icm.Icm

type kind =
  | Wire_module of { wire : int; init : Icm.wire_init }
  | Cross_module of { cnot : int }
  | Y_box of { gadget : int }
  | A_box of { gadget : int }

type pin = { pin_id : int; owner : int; offset : Point3.t; loop : int }

type module_ = {
  module_id : int;
  kind : kind;
  dims : int * int * int;
  pin_ids : int list;
}

type penetration = { pmodule : int; pin_a : int; pin_b : int }

type loop = { loop_id : int; penetrations : penetration list }

type t = {
  icm : Icm.t;
  modules : module_ array;
  pins : pin array;
  loops : loop array;
  wire_module : int array;
  cross_module : int array;
}

(* A wire module is the wire's primal loop. Its time extent grows with the
   number of dual segments threading it (one lattice unit per segment plus a
   unit of clearance); width 2 and height 2 are the footprint of a minimal
   primal loop pair. *)
let wire_dims ~segments = (Int.max 2 (segments + 1), 2, 2)

let cross_dims = (2, 2, 2)
let y_box_dims = (3, 3, 2)   (* volume 18 *)
let a_box_dims = (16, 6, 2)  (* volume 192, long along the time axis *)

let module_volume m =
  let d, w, h = m.dims in
  d * w * h

let is_box m = match m.kind with Y_box _ | A_box _ -> true | Wire_module _ | Cross_module _ -> false

let of_icm icm =
  let nw = Icm.num_wires icm and nc = Icm.num_cnots icm in
  (* Count dual segments through each wire: one per CNOT endpoint. *)
  let wire_degree = Array.make nw 0 in
  Array.iter
    (fun c ->
      wire_degree.(c.Icm.control) <- wire_degree.(c.Icm.control) + 1;
      wire_degree.(c.Icm.target) <- wire_degree.(c.Icm.target) + 1)
    icm.Icm.cnots;
  let modules = ref [] and module_count = ref 0 in
  let pins = ref [] and pin_count = ref 0 in
  let new_pin ~owner ~offset ~loop =
    let id = !pin_count in
    incr pin_count;
    pins := { pin_id = id; owner; offset; loop } :: !pins;
    id
  in
  let new_module kind dims pin_ids =
    let id = !module_count in
    incr module_count;
    modules := { module_id = id; kind; dims; pin_ids } :: !modules;
    id
  in
  (* Wire modules first (ids 0..nw-1, same as wire ids). Pins are created
     lazily per penetrating loop below, so build the modules in two passes:
     reserve ids now, attach pins after walking the CNOTs. *)
  let wire_module = Array.init nw (fun _ -> -1) in
  let wire_pins = Array.make nw [] in
  let wire_next_slot = Array.make nw 0 in
  Array.iter
    (fun (w : Icm.wire) -> wire_module.(w.Icm.wire_id) <- w.Icm.wire_id)
    icm.Icm.wires;
  (* Each wire's penetrating segments occupy successive time slots inside the
     module; the two pins of a segment sit on the module's two width faces. *)
  let wire_pin ~wire ~loop =
    let slot = wire_next_slot.(wire) in
    wire_next_slot.(wire) <- slot + 1;
    let _, w, _ = wire_dims ~segments:wire_degree.(wire) in
    let a = new_pin ~owner:wire ~offset:(Point3.make slot 0 0) ~loop in
    let b = new_pin ~owner:wire ~offset:(Point3.make slot (w - 1) 0) ~loop in
    wire_pins.(wire) <- wire_pins.(wire) @ [ a; b ];
    (a, b)
  in
  (* Crossing modules and loops. *)
  let cross_module = Array.make nc (-1) in
  let cross_pin_pairs = Array.make nc (-1, -1) in
  let loops =
    Array.map
      (fun (c : Icm.cnot) ->
        let loop = c.Icm.cnot_id in
        let pa_c, pb_c = wire_pin ~wire:c.Icm.control ~loop in
        (* Crossing module id is allocated after all wire modules:
           nw + cnot_id. The pins live on its width faces. *)
        let cross_id = nw + c.Icm.cnot_id in
        cross_module.(c.Icm.cnot_id) <- cross_id;
        let _, w, _ = cross_dims in
        let pa_x = new_pin ~owner:cross_id ~offset:(Point3.make 1 0 0) ~loop in
        let pb_x = new_pin ~owner:cross_id ~offset:(Point3.make 1 (w - 1) 0) ~loop in
        cross_pin_pairs.(c.Icm.cnot_id) <- (pa_x, pb_x);
        let pa_t, pb_t = wire_pin ~wire:c.Icm.target ~loop in
        { loop_id = loop;
          penetrations =
            [ { pmodule = c.Icm.control; pin_a = pa_c; pin_b = pb_c };
              { pmodule = cross_id; pin_a = pa_x; pin_b = pb_x };
              { pmodule = c.Icm.target; pin_a = pa_t; pin_b = pb_t } ] })
      icm.Icm.cnots
  in
  (* Materialize modules in id order: wires, crossings, boxes. *)
  Array.iter
    (fun (w : Icm.wire) ->
      let id =
        new_module
          (Wire_module { wire = w.Icm.wire_id; init = w.Icm.init })
          (wire_dims ~segments:wire_degree.(w.Icm.wire_id))
          wire_pins.(w.Icm.wire_id)
      in
      assert (id = w.Icm.wire_id))
    icm.Icm.wires;
  Array.iter
    (fun (c : Icm.cnot) ->
      let pa, pb = cross_pin_pairs.(c.Icm.cnot_id) in
      let id = new_module (Cross_module { cnot = c.Icm.cnot_id }) cross_dims [ pa; pb ] in
      assert (id = nw + c.Icm.cnot_id))
    icm.Icm.cnots;
  Array.iter
    (fun (g : Icm.gadget) ->
      ignore (new_module (A_box { gadget = g.Icm.gadget_id }) a_box_dims []);
      ignore (new_module (Y_box { gadget = g.Icm.gadget_id }) y_box_dims []);
      ignore (new_module (Y_box { gadget = g.Icm.gadget_id }) y_box_dims []))
    icm.Icm.gadgets;
  { icm;
    modules = Array.of_list (List.rev !modules);
    pins = Array.of_list (List.rev !pins);
    loops;
    wire_module;
    cross_module }

let num_modules t = Array.length t.modules

let dims_of_kind t = function
  | Wire_module { wire; _ } -> t.modules.(t.wire_module.(wire)).dims
  | Cross_module _ -> cross_dims
  | Y_box _ -> y_box_dims
  | A_box _ -> a_box_dims

let modules_of_loop t loop_id =
  List.map (fun p -> p.pmodule) t.loops.(loop_id).penetrations

let common_modules t l1 l2 =
  let m1 = modules_of_loop t l1 and m2 = modules_of_loop t l2 in
  List.filter (fun m -> List.mem m m2) m1 |> List.sort_uniq Int.compare

let relative_loops t loop_id =
  (* Loops sharing a wire module: walk penetrations of all loops once. *)
  let mine = modules_of_loop t loop_id in
  let related = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      if l.loop_id <> loop_id then
        if List.exists (fun p -> List.mem p.pmodule mine) l.penetrations then
          Hashtbl.replace related l.loop_id ())
    t.loops;
  Hashtbl.fold (fun k () acc -> k :: acc) related [] |> List.sort Int.compare

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nw = Icm.num_wires t.icm and nc = Icm.num_cnots t.icm in
  let n_boxes = Icm.count_y t.icm + Icm.count_a t.icm in
  if num_modules t <> nw + nc + n_boxes then
    err "module count %d <> wires %d + cnots %d + boxes %d" (num_modules t) nw nc n_boxes
  else begin
    let bad_pin = ref None in
    Array.iter
      (fun p ->
        let m = t.modules.(p.owner) in
        let d, w, h = m.dims in
        let { Point3.x; y; z } = p.offset in
        if x < 0 || x >= d || y < 0 || y >= w || z < 0 || z >= h then
          bad_pin := Some p.pin_id)
      t.pins;
    match !bad_pin with
    | Some id -> err "pin %d offset outside its module" id
    | None ->
        let bad_loop = ref None in
        Array.iter
          (fun l ->
            if l.penetrations = [] then bad_loop := Some l.loop_id;
            List.iter
              (fun p ->
                let pa = t.pins.(p.pin_a) and pb = t.pins.(p.pin_b) in
                if pa.owner <> p.pmodule || pb.owner <> p.pmodule then
                  bad_loop := Some l.loop_id)
              l.penetrations)
          t.loops;
        (match !bad_loop with
         | Some id -> err "loop %d has inconsistent penetrations" id
         | None -> Ok ())
  end
