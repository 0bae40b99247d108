(** B*-tree floorplan representation (Chang et al. [30]).

    Packs rectangular blocks in a 2D plane without overlap. In this library
    the plane is one tier of the 2.5D placement: the x axis is time and the
    y axis is width. The left child of a node is the lowest block placed
    immediately to the right of its parent (x-adjacent); the right child sits
    at the same x, above. Packing uses a contour, so one full evaluation is
    linear in total block width.

    Perturbations are the classic node swap and node move; rotation is
    deliberately absent because rotating a module would break the internal
    time ordering of super-modules (§III-C2). *)

type t

val create : (int * int) array -> t
(** [create dims] builds an initial (heap-shaped) tree over blocks
    [0 .. n-1]; [dims.(b) = (dx, dy)] is block [b]'s footprint. At least one
    block is required. *)

val num_blocks : t -> int

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] makes [dst] the same tree as [src] (dims, shape and
    cached packing) without allocating; [dst] keeps its own {!repack}
    scratch. Both must hold the same number of blocks, else
    [Invalid_argument]. Lets the annealer checkpoint a tier into a spare
    tree before mutating it. *)

val equal : t -> t -> bool
(** Same block dims and same tree shape; the cached packing and scratch are
    not compared. *)

val block_dims : t -> int -> int * int

val set_block_dims : t -> int -> int * int -> unit
(** Resize a block (used to equalize time-dependent super-modules in a TSL
    before annealing). *)

type packing = {
  xs : int array;      (** block id -> x origin *)
  ys : int array;      (** block id -> y origin *)
  span_x : int;        (** bounding-box extent along x *)
  span_y : int;        (** bounding-box extent along y *)
}

val pack : ?spacing:int -> t -> packing
(** Evaluate the tree into coordinates. [spacing] (default 1) inflates every
    block on its +x/+y sides, preserving the one-unit defect separation and
    routing room around modules. Reported origins are the true block origins;
    the bounding box includes the spacing of interior blocks but strips the
    trailing margin.

    The result is cached inside the tree (dirty-bit invalidated by
    {!swap_blocks}, {!move_block} and {!set_block_dims}), so repeated
    evaluations of an unchanged tree are O(1). {!copy} shares the cache:
    packings are immutable once built. *)

val repack : ?spacing:int -> t -> packing
(** Like {!pack} but always re-evaluates from scratch, bypassing (and not
    refreshing) the cache. Reference implementation for the cache-coherence
    property tests and the [TQEC_SA_CHECK] debug assertion. Only the
    returned [xs]/[ys] are allocated: the contour and DFS stack are scratch
    kept inside the tree. *)

val swap_blocks : t -> int -> int -> unit
(** Exchange the tree positions of two blocks (inter- or intra-tree swap at
    the tier level is built on this). *)

val move_block : rng:Tqec_prelude.Rng.t -> t -> int -> unit
(** Detach the given block's node and re-insert it at a random position. *)

val random_block : Tqec_prelude.Rng.t -> t -> int

val check : t -> (unit, string) Stdlib.result
(** Structural invariants: one root, parent/child pointers consistent, all
    nodes reachable exactly once. *)
