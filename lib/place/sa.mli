(** Generic simulated-annealing engine.

    Drives the 2.5D placement (§III-C2): a better neighbouring solution is
    always accepted, a worse one with probability exp(-Δ/T), and the
    temperature decays geometrically. The engine is solution-representation
    agnostic: the caller supplies copy / blit / cost / perturb / undo. *)

type params = {
  iterations : int;       (** total perturbation attempts *)
  start_temp : float;
  end_temp : float;
}

val default_params : params

type 'a stats = {
  best : 'a;
  best_cost : float;
  accepted : int;
  rejected : int;
  improved : int;         (** accepted moves that lowered the cost *)
}

val run :
  ?trace:Tqec_obs.Trace.span ->
  rng:Tqec_prelude.Rng.t ->
  init:'a ->
  copy:('a -> 'a) ->
  blit:(src:'a -> dst:'a -> unit) ->
  cost:('a -> float) ->
  perturb:(Tqec_prelude.Rng.t -> 'a -> unit) ->
  undo:('a -> unit) ->
  params ->
  'a stats
(** Anneal [init] in place. Each move calls [perturb], which mutates the
    one live solution; when the move is rejected the engine calls [undo],
    which must restore exactly the solution [perturb] was given — it is
    only ever called right after the [perturb] (and [cost]) it reverts.
    The best solution seen lives in one buffer made once by [copy] (of
    [init], before the first move) and refreshed by [blit ~src ~dst] on each
    new best; no other copy is made. The returned [best] is that buffer.
    Deterministic given the RNG: per move, the RNG is drawn by [perturb]
    and then at most once by the acceptance test. [trace] (default
    {!Tqec_obs.Trace.noop}) receives move-acceptance counters without
    influencing the anneal. *)
