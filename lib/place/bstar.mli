(** B*-tree floorplan representation (Chang et al. [30]).

    Packs rectangular blocks in a 2D plane without overlap. In this library
    the plane is one tier of the 2.5D placement: the x axis is time and the
    y axis is width. The left child of a node is the lowest block placed
    immediately to the right of its parent (x-adjacent); the right child sits
    at the same x, above. Packing uses a contour, so one full evaluation is
    linear in total block width.

    Perturbations are the classic node swap and node move; rotation is
    deliberately absent because rotating a module would break the internal
    time ordering of super-modules (§III-C2).

    {b Storage.} A tree over [n] blocks is nine flat [int array]s of length
    [n] — block footprints [dx]/[dy], the node<->block maps, parent/left/right
    links and the packing buffer's [xs]/[ys] — plus a few int fields and its
    evaluation scratch. Every element is an immediate int, so {!blit} is one
    loop of loads and stores: no boxed values, no write barrier, no
    allocation.

    {b Packing buffers.} Each tree owns one {!packing} for its whole life.
    {!pack} evaluates into it in place when a mutation has made it stale and
    returns it, so a packing read through {!pack} is valid until the tree is
    next mutated {e and} packed (or packed at another spacing); a caller
    that must keep it longer copies the tree ({!copy}, {!blit}) or calls
    {!repack}. No two trees share a buffer: {!copy} and {!blit} copy the
    packing's contents, so mutating and re-packing one tree never changes
    what another tree's {!pack} returns. *)

type t

val create : (int * int) array -> t
(** [create dims] builds an initial (heap-shaped) tree over blocks
    [0 .. n-1]; [dims.(b) = (dx, dy)] is block [b]'s footprint. At least one
    block is required. *)

val num_blocks : t -> int

val copy : t -> t
(** A tree of its own: fresh arrays, its packing buffer holding the
    source's current packing (still valid if the source's was). *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] makes [dst] the same tree as [src] (dims, shape and
    packing, with its validity) without allocating: [O(n)] int copies into
    [dst]'s own arrays and buffer; [dst] keeps its own scratch. Both must
    hold the same number of blocks, else [Invalid_argument]. The annealer
    checkpoints a tier into a spare tree with it before mutating the tier,
    so the spare keeps the pre-move packing for an undo. *)

val equal : t -> t -> bool
(** Same block dims and same tree shape; the packing buffer and scratch
    are not compared. *)

val block_dims : t -> int -> int * int

val set_block_dims : t -> int -> int -> int -> unit
(** [set_block_dims t b dx dy] resizes block [b] to [dx] by [dy] (used by
    inter-tier swaps; two ints rather than a pair, so a move allocates no
    tuple). Resizing to the current footprint keeps the packing valid. *)

type packing = private {
  xs : int array;              (** block id -> x origin *)
  ys : int array;              (** block id -> y origin *)
  mutable span_x : int;        (** bounding-box extent along x *)
  mutable span_y : int;        (** bounding-box extent along y *)
}
(** Read-only outside this module; see the ownership contract above. *)

val pack : ?spacing:int -> t -> packing
(** Evaluate the tree into coordinates. [spacing] (default 1) inflates every
    block on its +x/+y sides, preserving the one-unit defect separation and
    routing room around modules. Reported origins are the true block origins;
    the bounding box includes the spacing of interior blocks but strips the
    trailing margin.

    The result is the tree's own buffer, re-evaluated in place only when
    {!swap_blocks}, {!move_block} or a resizing {!set_block_dims} made it
    stale, or when [spacing] differs from its last evaluation; repeated
    evaluations of an unchanged tree are O(1) and allocate nothing. A swap
    of two equal-footprint blocks exchanges their coordinates in the buffer
    instead of making it stale. *)

val pack_spaced : spacing:int -> t -> packing
(** {!pack} with a required [spacing]. The annealer's move calls this one:
    passing an optional argument builds a [Some] cell at each call. *)

val repack : ?spacing:int -> t -> packing
(** Like {!pack} but always re-evaluates from scratch into a freshly
    allocated packing, neither reading nor refreshing the tree's buffer.
    Reference implementation for the cache-coherence property tests and
    [Place25d.check_incremental_cost]. *)

val swap_blocks : t -> int -> int -> unit
(** Exchange the tree positions of two blocks (inter- or intra-tree swap at
    the tier level is built on this). *)

val move_block : rng:Tqec_prelude.Rng.t -> t -> int -> unit
(** Detach the given block's node and re-insert it at a random position. *)

val random_block : Tqec_prelude.Rng.t -> t -> int

val check : t -> (unit, string) Stdlib.result
(** Structural invariants: one root, parent/child pointers consistent, all
    nodes reachable exactly once. *)
