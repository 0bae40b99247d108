(** The end-to-end TQEC circuit compression flow (Fig. 11), as an explicit
    staged pipeline.

    Preprocess (gate decomposition → ICM → canonical description →
    modularization) → iterative bridging → module clustering +
    time-ordering-aware 2.5D placement → dual-defect net routing. Each stage
    is its own module implementing the uniform {!Tqec_artifact.Stage.S}
    signature — a typed [input]/[output], a
    [run : trace:span -> input -> output] entry point, a canonical content
    key over input and configuration, and a codec for its output artifact —
    so callers can run the stages independently, checkpoint intermediate
    artifacts, cache them content-addressed ({!run}'s [cache]), or swap a
    stage out; {!run} is the canonical composition. Ablation switches
    reproduce the paper's comparison points: [bridging:false] is the Table V
    baseline, [primal_groups:false] is the conference version [36] of
    Table III, and [friend_aware:false] isolates the routing contribution.

    Observability: every stage records counters, gauges and distributions
    onto the {!Tqec_obs.Trace} span it is given (SA move acceptance, A*
    expansions, rip-up passes, bridge merges, …). The per-stage runtime
    breakdown of Table VI is derived from the trace. Instrumentation never
    affects results: a flow run with a noop trace is bit-identical to a
    traced one. *)

type options = {
  bridging : bool;
  primal_groups : bool;
  friend_aware : bool;
  max_group_size : int;
  place : Tqec_place.Place25d.config;
  route : Tqec_route.Router.config;
}

val default_options : options

val scale_options : ?sa_iterations:int -> ?route_iterations:int -> options -> options
(** Convenience for per-benchmark effort budgets. *)

val check_options : options -> (unit, string) result
(** [Error] naming the first out-of-range setting: [max_group_size],
    [tiers] or [route_iterations] (the router's [max_iterations]) below 1,
    or [region_margin] below 0. The front ends call it before any stage runs. *)

(** Stage 1: gate decomposition, ICM conversion, canonical description,
    modularization and Table-I statistics. {!run} never caches it; its key
    and codec serve callers that store the artifact themselves (the
    benchmark's traced pass). The bridging, placement and routing keys name
    [modular] by its ICM and this stage's [version], so a change to
    [Modular.of_icm]'s output for a fixed ICM must bump [version]. *)
module Preprocess : sig
  type input = Tqec_circuit.Circuit.t

  type output = {
    decomposed : Tqec_circuit.Circuit.t;
    icm : Tqec_icm.Icm.t;
    stats : Tqec_icm.Stats.t;
    canonical : Tqec_canonical.Canonical.t;
    modular : Tqec_modular.Modular.t;
  }

  include
    Tqec_artifact.Stage.S with type input := input and type output := output
end

(** Stage 2: iterative bridging (or naive per-loop nets when disabled). *)
module Bridging : sig
  type input = { bridging : bool; modular : Tqec_modular.Modular.t }

  type output = {
    bridge : Tqec_bridge.Bridge.result option;  (** [None] when bridging is off *)
    nets : Tqec_bridge.Bridge.net list;
  }

  include
    Tqec_artifact.Stage.S with type input := input and type output := output
end

(** Stage 3: module clustering and 2.5D simulated-annealing placement. *)
module Placement : sig
  type input = {
    primal_groups : bool;
    max_group_size : int;
    config : Tqec_place.Place25d.config;
    modular : Tqec_modular.Modular.t;
    nets : Tqec_bridge.Bridge.net list;
    pool : Tqec_prelude.Pool.t option;
        (** ignored: placement is sequential. Kept so that existing callers
            that set it still compile; not part of the stage key. *)
  }

  type output = {
    cluster : Tqec_place.Cluster.t;
    placement : Tqec_place.Place25d.placement;
  }

  include
    Tqec_artifact.Stage.S with type input := input and type output := output
end

(** Stage 4: negotiation-based dual-defect net routing. The caller resolves
    [config.friend_aware] (friend nets only exist after bridging). *)
module Routing : sig
  type input = {
    config : Tqec_route.Router.config;
    placement : Tqec_place.Place25d.placement;
    nets : Tqec_bridge.Bridge.net list;
    pool : Tqec_prelude.Pool.t option;
        (** ignored: routing is sequential. Kept so that existing callers
            that set it still compile; not part of the stage key. *)
  }

  type output = Tqec_route.Router.result

  include
    Tqec_artifact.Stage.S with type input := input and type output := output
end

type breakdown = {
  t_preprocess : float;
  t_bridging : float;
  t_placement : float;
  t_routing : float;
  t_total : float;
}

type t = {
  name : string;
  stats : Tqec_icm.Stats.t;
  canonical : Tqec_canonical.Canonical.t;
  modular : Tqec_modular.Modular.t;
  bridge : Tqec_bridge.Bridge.result option;  (** [None] when bridging is off *)
  nets : Tqec_bridge.Bridge.net list;
  cluster : Tqec_place.Cluster.t;
  placement : Tqec_place.Place25d.placement;
  routing : Tqec_route.Router.result;
  dims : int * int * int;   (** (w, h, d) of the compressed circuit *)
  volume : int;             (** compressed space-time volume, boxes included *)
  total_volume : int;       (** volume (boxes are already placed inside) *)
  breakdown : breakdown;    (** per-stage runtimes, derived from [trace] *)
  trace : Tqec_obs.Trace.span;
      (** the flow's span: one child per stage, holding that stage's
          counters, gauges and distributions *)
}

val stage_names : string list
(** [["preprocess"; "bridging"; "placement"; "routing"]] — the child spans of
    [trace], in pipeline order. *)

val run :
  ?options:options ->
  ?trace:Tqec_obs.Trace.span ->
  ?pool:Tqec_prelude.Pool.t ->
  ?cache:Tqec_artifact.Store.t ->
  Tqec_circuit.Circuit.t ->
  t
(** Compress a circuit. The input may contain arbitrary supported gates;
    decomposition happens inside. Deterministic for fixed options. When
    [trace] is given, the flow span is created under it (pass
    {!Tqec_obs.Trace.noop} to disable instrumentation entirely — the
    breakdown then reads all-zero); otherwise the flow records under a
    fresh live root so the breakdown is always available.

    [pool] is accepted and ignored: every stage runs sequentially on the
    calling domain, so the result is the same for every pool size. The
    argument remains only for callers that still pass it.

    [cache] consults the artifact store before the bridging, placement and
    routing stages: on a hit the stored artifact is decoded instead of
    recomputed (bit-identical by the codec round-trip law — a warm run
    produces exactly the cold run's volumes and routings), on a miss the
    stage runs and its artifact is stored. A corrupt entry is evicted and
    recomputed. Preprocess always runs and is never looked up or stored:
    recomputing it is cheaper than reading its artifact back. Per-stage
    [cache_hit] / [cache_miss] / [cache_store] counters are recorded on the
    stage spans; see {!cache_stats}. *)

val num_nodes : t -> int
(** #Nodes of Table I: top-level clusters in the 2.5D B*-tree. *)

val num_nets : t -> int

val stage_span : t -> string -> Tqec_obs.Trace.span option
(** The recorded span of a stage, by name from {!stage_names}. *)

val stage_counter : t -> string -> string -> int
(** [stage_counter t stage counter]; 0 when absent. *)

val cache_stats : t -> int * int * int
(** [(hits, misses, stores)] summed over the stage spans; at most 3 each,
    since preprocess is never cached. All zero when the flow ran without a
    cache (or with a noop trace). *)

val metrics_json : t -> Tqec_obs.Json.t
(** Machine-readable metrics (the [--metrics-json] payload, schema
    version 2): schema_version, circuit, volume, dims, net/node counts,
    routed/unrouted, the [cache] block (hits/misses/stores/hit_rate),
    per-stage durations, flattened counters, and the full span tree. *)

val validate : t -> (unit, string) Stdlib.result
(** End-to-end invariants: placement overlap-free and time-ordered, routing
    valid, every net routed. Errors are prefixed with the name of the
    failing validator stage ([placement: ...] / [routing: ...]). *)
