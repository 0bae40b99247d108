(** Dual-defect net routing (§III-D).

    Iterative maze routing: nets are sorted by Manhattan length and routed by
    A* search within a restricted search region (initially the bounding box
    of the two pins plus a margin). Failed nets have their region expanded on
    the next iteration; a negotiation-based rip-up-and-reroute scheme
    (PathFinder [31]) maintains a history cost on congested cells and evicts
    the committed nets that block a failing one.

    Friend-net awareness (§III-D2): once a net is routed, any unrouted net
    sharing a pin with it may terminate on {e any} cell of the routed path
    instead of the shared pin — a topological deformation that preserves the
    braiding relationship and saves routing resource.

    Negotiation follows PathFinder faithfully: paths may temporarily overlap
    at a present-sharing penalty that doubles every pass; conflicted nets
    (two interiors on one cell) are ripped up and re-routed, with pin-mouth
    cells pre-charged and arbitration keeping the net whose own mouth the
    contested cell is. A dense occupancy grid answers the per-cell queries.

    Pass 1 searches two-terminal nets bidirectionally
    ({!Search.run_bidir}); later passes re-route every ripped or failed net
    with a full regional search. A net ripped on a streak widens its region
    around the bounding box of the cells it last lost on, per-net expansion
    budgets tighten for search-failed nets as the present penalty
    saturates, and region growth scales with each net's rip streak instead
    of doubling blindly. Tie-breaks (direct arbitration victims first, then
    largest region growth, then shortest net, then the pinned
    conflicted-nets order) are part of the determinism contract the volume
    baselines pin. *)

type config = {
  max_iterations : int;   (** routing passes, >= 1 *)
  region_margin : int;    (** initial slack around each net's pin bbox, >= 0 *)
  friend_aware : bool;
}

val default_config : config

type routed_net = { net : Tqec_bridge.Bridge.net; path : Tqec_geom.Point3.t list }

type result = {
  routed : routed_net list;
  failed : Tqec_bridge.Bridge.net list;
  dims : int * int * int;     (** (d, w, h) of the final layout bounding box *)
  volume : int;
  iterations_used : int;
  routed_first_iteration : int;
      (** nets that succeeded in pass 1 — the 85–95% figure of §IV-C3 *)
}

type kernel = Dial | Reference
(** Search-kernel choice. [Dial] is the canonical production kernel: a
    bucketed Dial queue over flat region-strided scratch. [Reference] is the
    slow, structurally independent Binheap kernel kept as a differential
    referee. Both realize the same documented open-list order — f ascending,
    push order within equal f — over the same cost model, so they return
    byte-identical paths on every input. The kernel is picked by argument
    ({!route}, {!astar_bench}, {!Search.run}), never by the environment, and
    is not part of {!config}, so it never reaches a stage cache key. *)

val route :
  ?trace:Tqec_obs.Trace.span ->
  ?pool:Tqec_prelude.Pool.t ->
  ?restrict_regions:bool ->
  ?kernel:kernel ->
  config ->
  Tqec_place.Place25d.placement ->
  Tqec_bridge.Bridge.net list ->
  result
(** [trace] (default noop) receives one child span per negotiation pass with
    attempted/routed/unrouted/ripped counters, plus A* expansion, heap-push
    and rip-up totals on [trace] itself. Recording never affects routing.

    [pool] is accepted and ignored: routing is one sequential negotiation
    loop on the calling domain, so the routed layout and every counter are
    the same for every pool size. The argument remains only for callers
    that still pass it.

    [restrict_regions] (default [true]) is a test hook: [false] searches the
    whole grid for every net instead of the restricted per-net regions of
    §III-D. The fuzz property [route-restricted-region] pins both modes to
    the same committed segments and volume; production callers (the Flow
    stage) always use the default, so the flag is not part of the routing
    config fed to stage cache keys.

    [kernel] (default [Dial]) picks the search kernel. The routed layout is
    the same for both. [Reference] also checks, at the end of every pass,
    each cell of the step-cost field the production kernels read (kept
    current by commits, rip-ups and history bumps) against a fresh
    derivation from history, occupancy and the grid, and raises on the
    first mismatch. *)

val astar_bench :
  ?kernel:kernel ->
  config ->
  Tqec_place.Place25d.placement ->
  Tqec_bridge.Bridge.net list ->
  (unit -> unit) * (unit -> int)
(** [astar_bench config placement nets] builds the routing grid once and
    returns [(search, expansions)]: [search ()] runs one A* search for the
    longest net over an empty occupancy grid (identical work every call —
    the unit the repository benchmark times as [route.search_ns]);
    [expansions ()] reads the cumulative node-expansion counter. *)

val routed_segments : result -> (int * Tqec_geom.Point3.t list) list
(** [(net_id, path)] for every routed net, ordered by net id — the raw
    geometry view consumed by the independent layout oracle
    ([tqec_verify]). Paths are shared, not copied; treat them as
    read-only. *)

module Search : sig
  (** Standalone search arena over a fresh grid — the surface the
      differential kernel tests drive: pinned grids, explicit history /
      occupancy, both kernels, exact-admissible heuristic mode, and an
      exhaustive Dijkstra ground truth. Not used by {!route}. *)

  type nonrec kernel = kernel = Dial | Reference

  type t

  val make : lo:Tqec_geom.Point3.t -> hi:Tqec_geom.Point3.t -> t
  (** Empty arena on the half-open box [\[lo, hi)]: nothing blocked, zero
      history, zero occupancy. *)

  (** The setters below change the cost inputs, so each one invalidates the
      arena's step-cost field: the next [Dial] or bidirectional search
      rebuilds it, even at an unchanged present penalty. *)

  val block : t -> Tqec_geom.Point3.t -> unit

  val set_history : t -> Tqec_geom.Point3.t -> float -> unit
  (** Raises [Invalid_argument] on a negative or NaN history. *)

  val set_occ : t -> Tqec_geom.Point3.t -> int -> unit
  (** Raises [Invalid_argument] on a negative occupancy. *)

  val run :
    ?kernel:kernel ->
    ?exact:bool ->
    ?max_expansions:int ->
    ?present_penalty:float ->
    t ->
    region:Tqec_geom.Cuboid.t ->
    starts:Tqec_geom.Point3.t list ->
    goals:Tqec_geom.Point3.t list ->
    target:Tqec_geom.Point3.t ->
    Tqec_geom.Point3.t list option
  (** One search. [exact] (default [false]) selects the exact-admissible
      heuristic [(quantum + minc) * distance] instead of the 1.5x-weighted
      production term; [minc] is the history-derived per-step floor in both
      modes. Starts and goals outside [region] (clipped to the grid) are
      ignored. The search aborts after exactly [max_expansions] node
      expansions (stale and terminal pops are not counted). *)

  val run_bidir :
    ?exact:bool ->
    ?max_expansions:int ->
    ?present_penalty:float ->
    t ->
    region:Tqec_geom.Cuboid.t ->
    start:Tqec_geom.Point3.t ->
    goal:Tqec_geom.Point3.t ->
    Tqec_geom.Point3.t list option
  (** Bidirectional meet-in-the-middle search between a single [start] and a
      single [goal], both frontiers running the Dial kernel's cost model and
      history-aware heuristic aimed at the opposite terminal. Alternation
      advances the frontier with the smaller minimum f; the frontiers close
      on the first cell both have stamped, and the glued walk is loop-erased,
      so the result is always a simple axis-connected path from [start] to
      [goal] (ends exact, middle near-optimal). [None] when either terminal
      lies outside [region] or the expansion budget runs dry. {!route} uses
      it for pass-1 searches of nets with two lone terminals. *)

  val expansions : t -> int
  (** Cumulative nodes expanded across every [run] on this arena. *)

  val pushes : t -> int
  (** Cumulative open-list pushes across every [run] on this arena. *)

  val bidir_searches : t -> int
  (** Number of [run_bidir] calls on this arena. *)

  val heuristic :
    ?exact:bool ->
    t ->
    region:Tqec_geom.Cuboid.t ->
    target:Tqec_geom.Point3.t ->
    Tqec_geom.Point3.t ->
    int
  (** The h-value the kernels would assign to a cell — [u * manhattan
      target] with the history floor folded into [u]. *)

  val true_costs :
    ?present_penalty:float ->
    t ->
    region:Tqec_geom.Cuboid.t ->
    target:Tqec_geom.Point3.t ->
    Tqec_geom.Point3.t ->
    int option
  (** [true_costs t ~region ~target] computes, by exhaustive backward
      Dijkstra inside [region], the exact cheapest cost of walking from a
      cell to [target] under the kernels' cost model ([None] when
      unreachable or outside the region). The admissibility referee: the
      [exact] heuristic must never exceed it. *)
end

val validate :
  Tqec_place.Place25d.placement -> result -> (unit, string) Stdlib.result
(** Checked invariants: every path is axis-connected; endpoints are the
    net's pins or (friend case) cells of a path routed for a net sharing a
    pin; paths do not cross module interiors (other than pin cells) or each
    other (other than shared friend cells). *)
