module Point3 = Tqec_geom.Point3
module Modular = Tqec_modular.Modular
module Flow = Tqec_core.Flow
module Place25d = Tqec_place.Place25d
module Router = Tqec_route.Router

let glyph_of_kind = function
  | Modular.Wire_module _ -> '#'
  | Modular.Cross_module _ -> 'X'
  | Modular.Y_box _ -> 'Y'
  | Modular.A_box _ -> 'A'

(* The routed layout can extend a little outside the placement origin box
   (halo detours), so compute the rendering window from the actual content. *)
let window flow =
  let lo = ref (Point3.make 0 0 0) and hi = ref (Point3.make 1 1 1) in
  let extend p =
    lo :=
      Point3.make (Int.min !lo.Point3.x p.Point3.x) (Int.min !lo.Point3.y p.Point3.y)
        (Int.min !lo.Point3.z p.Point3.z);
    hi :=
      Point3.make
        (Int.max !hi.Point3.x (p.Point3.x + 1))
        (Int.max !hi.Point3.y (p.Point3.y + 1))
        (Int.max !hi.Point3.z (p.Point3.z + 1))
  in
  Array.iter
    (fun (md : Modular.module_) ->
      let box = Place25d.module_box flow.Flow.placement md.Modular.module_id in
      extend box.Tqec_geom.Cuboid.lo;
      extend (Point3.sub box.Tqec_geom.Cuboid.hi (Point3.make 1 1 1)))
    flow.Flow.modular.Modular.modules;
  List.iter
    (fun rn -> List.iter extend rn.Router.path)
    flow.Flow.routing.Router.routed;
  (!lo, !hi)

let render_slice flow ~z =
  let lo, hi = window flow in
  let nx = hi.Point3.x - lo.Point3.x and ny = hi.Point3.y - lo.Point3.y in
  let canvas = Array.make_matrix ny nx '.' in
  let paint p c =
    if p.Point3.z = z then begin
      let x = p.Point3.x - lo.Point3.x and y = p.Point3.y - lo.Point3.y in
      if x >= 0 && x < nx && y >= 0 && y < ny then canvas.(y).(x) <- c
    end
  in
  Array.iter
    (fun (md : Modular.module_) ->
      let box = Place25d.module_box flow.Flow.placement md.Modular.module_id in
      let g = glyph_of_kind md.Modular.kind in
      let blo = box.Tqec_geom.Cuboid.lo and bhi = box.Tqec_geom.Cuboid.hi in
      if z >= blo.Point3.z && z < bhi.Point3.z then
        for y = blo.Point3.y to bhi.Point3.y - 1 do
          for x = blo.Point3.x to bhi.Point3.x - 1 do
            paint (Point3.make x y z) g
          done
        done)
    flow.Flow.modular.Modular.modules;
  List.iter
    (fun rn -> List.iter (fun p -> paint p '*') rn.Router.path)
    flow.Flow.routing.Router.routed;
  let buf = Buffer.create (ny * (nx + 1)) in
  Buffer.add_string buf (Printf.sprintf "-- z = %d --\n" z);
  for y = ny - 1 downto 0 do
    Buffer.add_string buf (String.init nx (fun x -> canvas.(y).(x)));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let render ?(max_slices = 4) flow =
  let lo, hi = window flow in
  let nz = hi.Point3.z - lo.Point3.z in
  let zs =
    if nz <= max_slices then List.init nz (fun i -> lo.Point3.z + i)
    else begin
      let spread =
        List.init max_slices (fun i -> lo.Point3.z + (i * (nz - 1) / (max_slices - 1)))
      in
      (* Always show the bottom module layer (z = 0): the halo below it and
         the sky above contain only routes. *)
      if List.mem 0 spread then spread
      else 0 :: List.filteri (fun i _ -> i > 0) spread
    end
    |> List.sort_uniq Int.compare
  in
  String.concat "\n" (List.map (fun z -> render_slice flow ~z) zs)
