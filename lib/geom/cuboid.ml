type t = { lo : Point3.t; hi : Point3.t }

let make lo hi =
  assert (lo.Point3.x <= hi.Point3.x && lo.Point3.y <= hi.Point3.y && lo.Point3.z <= hi.Point3.z);
  { lo; hi }

let of_origin_size origin ~w ~h ~d =
  make origin (Point3.add origin (Point3.make d w h))

let dims { lo; hi } = Point3.(hi.x - lo.x, hi.y - lo.y, hi.z - lo.z)

let volume c =
  let d, w, h = dims c in
  d * w * h

let is_empty c = volume c = 0

let contains_point { lo; hi } p =
  Point3.(p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y && p.z >= lo.z && p.z < hi.z)

let overlaps a b =
  Point3.(
    a.lo.x < b.hi.x && b.lo.x < a.hi.x
    && a.lo.y < b.hi.y && b.lo.y < a.hi.y
    && a.lo.z < b.hi.z && b.lo.z < a.hi.z)

let contains outer inner =
  Point3.(
    outer.lo.x <= inner.lo.x && inner.hi.x <= outer.hi.x
    && outer.lo.y <= inner.lo.y && inner.hi.y <= outer.hi.y
    && outer.lo.z <= inner.lo.z && inner.hi.z <= outer.hi.z)

let union a b =
  let lo =
    Point3.make (Int.min a.lo.Point3.x b.lo.Point3.x) (Int.min a.lo.Point3.y b.lo.Point3.y)
      (Int.min a.lo.Point3.z b.lo.Point3.z)
  in
  let hi =
    Point3.make (Int.max a.hi.Point3.x b.hi.Point3.x) (Int.max a.hi.Point3.y b.hi.Point3.y)
      (Int.max a.hi.Point3.z b.hi.Point3.z)
  in
  { lo; hi }

let inflate c n =
  let d = Point3.make n n n in
  { lo = Point3.sub c.lo d; hi = Point3.add c.hi d }

let intersect a b =
  let lo =
    Point3.make (Int.max a.lo.Point3.x b.lo.Point3.x) (Int.max a.lo.Point3.y b.lo.Point3.y)
      (Int.max a.lo.Point3.z b.lo.Point3.z)
  in
  let hi =
    Point3.make (Int.min a.hi.Point3.x b.hi.Point3.x) (Int.min a.hi.Point3.y b.hi.Point3.y)
      (Int.min a.hi.Point3.z b.hi.Point3.z)
  in
  if lo.Point3.x < hi.Point3.x && lo.Point3.y < hi.Point3.y && lo.Point3.z < hi.Point3.z then
    Some { lo; hi }
  else None

let translate c delta = { lo = Point3.add c.lo delta; hi = Point3.add c.hi delta }

let bounding = function
  | [] -> None
  | c :: rest -> Some (List.fold_left union c rest)

let equal a b = Point3.equal a.lo b.lo && Point3.equal a.hi b.hi

let to_string c = Printf.sprintf "[%s..%s]" (Point3.to_string c.lo) (Point3.to_string c.hi)

let pp fmt c = Format.pp_print_string fmt (to_string c)
