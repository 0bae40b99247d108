(** The differential properties checked by the fuzzing harness.

    Three end-to-end properties over random circuits:
    - [decomposition-semantics]: gate decomposition preserves the circuit's
      function up to a global phase, checked on all basis states with the
      state-vector simulator (qubit count capped at 8);
    - [volume-vs-lin]: the bridge-compressed space-time volume never exceeds
      the [Lin] 1-D baseline's. Circuits whose decomposition has fewer than
      {!volume_t_threshold} T gates are vacuously accepted: the flow places
      real distillation boxes while [Lin] only adds a volume lower bound, so
      below that regime the comparison measures fixed overhead, not
      compression;
    - [oracle-agreement]: the pipeline's own [Flow.validate] and the
      independent [Tqec_verify] oracle agree on every emitted layout — both
      accept a fully routed result, and when the router exhausts its budget
      and leaves nets unrouted, both reject (the oracle rediscovering the
      failure from raw geometry alone).

    Pipeline properties pair the circuit with a placement-seed salt so the
    annealer explores a different trajectory per case. *)

type prop =
  | Prop :
      string * 'a Tqec_proptest.Property.arbitrary * ('a -> bool)
      -> prop
      (** A named property: generator + predicate, existentially packed so
          heterogeneous properties run from one driver loop. *)

val name : prop -> string

val fast_options : Tqec_core.Flow.options
(** Reduced SA / rerouting budgets sized for many small circuits per run. *)

val options_with_seed : int -> Tqec_core.Flow.options
(** [fast_options] with the placement seed replaced. *)

val verify_input_of_flow : Tqec_core.Flow.t -> Tqec_verify.Verify.input

val volume_t_threshold : int
(** Minimum decomposed T count for a non-vacuous [volume-vs-lin] case. *)

val semantics : max_qubits:int -> max_gates:int -> prop
val volume : max_qubits:int -> max_gates:int -> prop
val oracle : max_qubits:int -> max_gates:int -> prop

val pack_cache : prop
(** [bstar-pack-cache]: after an arbitrary sequence of B*-tree mutations
    (swaps, moves, resizes, copies), the dirty-bit-cached {!Tqec_place.Bstar.pack}
    equals a from-scratch {!Tqec_place.Bstar.repack}, and trees that shared a
    cache with a since-mutated copy still answer from their own valid
    snapshot. *)

val incremental_cost : max_qubits:int -> max_gates:int -> prop
(** [sa-incremental-cost]: over a random perturbation walk on a real
    clustered circuit, the incrementally maintained SA cost (cached packings
    + delta wirelength) agrees with a from-scratch re-evaluation at every
    step (1e-9 relative). *)

val artifact_roundtrip : max_qubits:int -> max_gates:int -> prop
(** [artifact-roundtrip]: for every pipeline stage on a real run, the
    canonical bytes of [encode out] parse and render back to themselves
    ([Json.to_string (Json.of_string s) = s]), decoding the parsed tree and
    encoding it again reproduces them (and their FNV-64 content hash), and
    {!Tqec_artifact.Stage.cache_key} is stable. *)

val cache_warm_identity : max_qubits:int -> max_gates:int -> prop
(** [cache-warm-bit-identity]: a cold cached run followed by a warm run from
    the same store yields bit-identical placement and routing artifacts
    (canonical-bytes equality), with counters (0 hits, 4 misses) then
    (4 hits, 0 misses). *)

val restricted_region : max_qubits:int -> max_gates:int -> prop
(** [route-restricted-region]: the paper's SIII-D restricted per-net
    search regions never corrupt a layout — routing a real placement with
    regions on and with every region widened to the full grid both produce
    geometry that passes the full validator, with volumes covering the
    placement and within a 1.3x envelope of each other. Byte-identity is
    deliberately not claimed: widening a region changes the weighted-A*
    frontier, so segments, the rip-up schedule, and occasionally the final
    volume (a few percent, either direction) drift between the modes. *)

val all : max_qubits:int -> max_gates:int -> prop list
(** The eight properties, in the order above. *)

val run_prop :
  ?count:int -> ?seed:int -> prop -> Tqec_proptest.Property.outcome
