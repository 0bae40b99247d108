(** Per-benchmark effort budgets.

    The paper runs 2000–3000 SA iterations per benchmark on a 3.4 GHz Xeon
    with a C++ engine; regenerating every table on commodity hardware in one
    sitting needs explicit budgets. Budgets scale down as problems grow so
    the full harness finishes in minutes. [Full] gives generous budgets,
    [Normal] the bench harness's default, and [Fast] smoke-test budgets (the
    perf and cache gates); the harness takes the level from its [--effort]
    flag. EXPERIMENTS.md records which level produced the recorded numbers. *)

type level = Fast | Normal | Full

val options_for : level:level -> gates:int -> Tqec_core.Flow.options
(** Flow options with SA and routing budgets chosen from the decomposed
    problem size ([gates] = #CNOTs after decomposition is a good proxy). *)
