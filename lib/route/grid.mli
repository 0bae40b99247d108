(** Dense 3D occupancy grid for the routing stage.

    Tracks which lattice cells are covered by defect structures (module
    bodies, distillation boxes, committed net routes). The grid covers the
    placement bounding box plus a halo on every side and open "sky" layers
    above the top tier, so a detour always exists; the final space-time
    volume is taken from the bounding box of what is actually used. *)

type t

val create : lo:Tqec_geom.Point3.t -> hi:Tqec_geom.Point3.t -> t
(** Grid spanning the half-open box [\[lo, hi)]. *)

val in_bounds : t -> Tqec_geom.Point3.t -> bool

val block : t -> Tqec_geom.Point3.t -> unit

val unblock : t -> Tqec_geom.Point3.t -> unit

val block_box : t -> Tqec_geom.Cuboid.t -> unit

val blocked : t -> Tqec_geom.Point3.t -> bool
(** Out-of-bounds points count as blocked. *)

val bounds : t -> Tqec_geom.Point3.t * Tqec_geom.Point3.t

val box : t -> Tqec_geom.Cuboid.t
(** The grid's half-open bounding cuboid [\[lo, hi)] — the universe every
    search region is clipped against. *)

val size : t -> int
(** Total number of cells. *)

val encode : t -> Tqec_geom.Point3.t -> int
(** Dense cell index in [\[0, size)]. The point must be in bounds. *)

val decode : t -> int -> Tqec_geom.Point3.t

val extents : t -> int * int * int
(** (nx, ny, nz) cell counts along each axis. *)

val origin : t -> Tqec_geom.Point3.t
(** The [lo] corner. *)

val blocked_c : t -> int -> bool
(** Like {!blocked} on an encoded in-bounds cell index. *)
