module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid

type t = {
  lo : Point3.t;
  hi : Point3.t;
  nx : int;
  ny : int;
  nz : int;
  cells : Bytes.t;
}

let create ~lo ~hi =
  let nx = hi.Point3.x - lo.Point3.x in
  let ny = hi.Point3.y - lo.Point3.y in
  let nz = hi.Point3.z - lo.Point3.z in
  if nx <= 0 || ny <= 0 || nz <= 0 then invalid_arg "Grid.create: empty grid";
  { lo; hi; nx; ny; nz; cells = Bytes.make (nx * ny * nz) '\000' }

let in_bounds t p =
  Point3.(
    p.x >= t.lo.x && p.x < t.hi.x && p.y >= t.lo.y && p.y < t.hi.y && p.z >= t.lo.z
    && p.z < t.hi.z)

let index t p =
  let x = p.Point3.x - t.lo.Point3.x in
  let y = p.Point3.y - t.lo.Point3.y in
  let z = p.Point3.z - t.lo.Point3.z in
  (((z * t.ny) + y) * t.nx) + x

let block t p =
  if in_bounds t p then Bytes.set t.cells (index t p) '\001'

let unblock t p =
  if in_bounds t p then Bytes.set t.cells (index t p) '\000'

let block_box t box =
  let lo = box.Cuboid.lo and hi = box.Cuboid.hi in
  for z = Int.max lo.Point3.z t.lo.Point3.z to Int.min hi.Point3.z t.hi.Point3.z - 1 do
    for y = Int.max lo.Point3.y t.lo.Point3.y to Int.min hi.Point3.y t.hi.Point3.y - 1 do
      for x = Int.max lo.Point3.x t.lo.Point3.x to Int.min hi.Point3.x t.hi.Point3.x - 1 do
        Bytes.set t.cells (index t (Point3.make x y z)) '\001'
      done
    done
  done

let blocked t p = (not (in_bounds t p)) || Bytes.get t.cells (index t p) = '\001'

let bounds t = (t.lo, t.hi)

let box t = Cuboid.make t.lo t.hi

let extents t = (t.nx, t.ny, t.nz)

let origin t = t.lo

let blocked_c t c = Bytes.get t.cells c = '\001'

let size t = t.nx * t.ny * t.nz

let encode = index

let decode t i =
  let x = i mod t.nx in
  let rest = i / t.nx in
  let y = rest mod t.ny in
  let z = rest / t.ny in
  Point3.make (x + t.lo.Point3.x) (y + t.lo.Point3.y) (z + t.lo.Point3.z)
