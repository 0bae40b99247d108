.PHONY: all build test check lint fuzz bench perf cache clean

all: build

build:
	dune build

test:
	dune runtest

# Full gate, staged: build -> tests (both search kernels, the reference one
# with its step-cost-field audit, run inside the tier-1 suite; plus a CLI smoke
# run that must produce a parseable metrics file, and one with
# TQEC_SA_CHECK=1, which audits the annealer's incremental cost against a
# full recompute on every move) -> the same tier-1 suite again under a
# multi-domain pool (TQEC_DOMAINS=2; results must be identical by the
# Taskpool determinism contract) -> determinism/hot-path lint -> fixed-seed
# differential fuzzing -> validity/perf/volume/expansion regression gate ->
# stage-cache contract (cold/warm/reroute, valid layouts).
check:
	@echo "==== check [1/7] build ============================================"
	dune build
	@echo "==== check [2/7] tests ============================================"
	dune runtest
	dune exec bin/tqec_compress.exe -- --benchmark 4gt10-v1_81 \
	  --trace --metrics-json _build/metrics_smoke.json
	dune exec bin/tqec_gate.exe -- metrics _build/metrics_smoke.json
	TQEC_SA_CHECK=1 dune exec bin/tqec_compress.exe -- -b 4gt10-v1_81
	@echo "==== check [3/7] tests (TQEC_DOMAINS=2) ==========================="
	TQEC_DOMAINS=2 dune runtest --force
	@echo "==== check [4/7] lint ============================================="
	$(MAKE) lint
	@echo "==== check [5/7] fuzz ============================================="
	$(MAKE) fuzz
	@echo "==== check [6/7] perf ============================================="
	$(MAKE) perf
	@echo "==== check [7/7] cache ============================================"
	$(MAKE) cache
	@echo "==== check: all stages passed ====================================="

# Two-tier static analysis (lib/lint) over every .ml under lib/, bin/ and
# bench/: the syntactic determinism rules plus the typed cross-module rules
# (task-capture-race, cache-ambient-read, hot-path-alloc) run over .cmt
# trees. Exits non-zero on any unsuppressed finding; see
# `dune exec bin/tqec_lint.exe -- --list-rules` for the rule catalogue and
# DESIGN.md for the suppression policy.
#
# Library .cmt files fall out of `dune build`, but executables compile
# natively and their byte-annotation trees are separate targets — demand
# them explicitly or the typed tier would report cmt-missing for bin/ and
# bench/.
lint: build
	@targets=""; for f in bin/*.ml bench/*.ml; do \
	  d=$$(dirname $$f); b=$$(basename $$f .ml); \
	  M="$$(echo $$b | cut -c1 | tr a-z A-Z)$$(echo $$b | cut -c2-)"; \
	  targets="$$targets $$d/.$$b.eobjs/byte/dune__exe__$$M.cmt"; \
	done; dune build $$targets
	dune exec bin/tqec_lint.exe -- --typed lib bin bench

# Deterministic property-based fuzzing: random circuits through the whole
# pipeline, checked by the independent layout oracle (lib/verify). A failure
# prints the seed that replays it and exits non-zero.
fuzz: build
	dune exec bin/tqec_fuzz.exe -- --seed 1 --count 100

bench:
	dune exec bench/main.exe

# Perf regression gate: rerun the fast benchmark subset in --json mode at
# TQEC_DOMAINS=1 and TQEC_DOMAINS=4 and fail if any layout (the baseline's
# included) leaves a net unrouted or is rejected by Flow.validate or the
# Verify oracle, if any space-time volume drifts
# from the committed BENCH_pr23.json — which also pins the two runs
# bit-identical to each other, the parallel pipeline's determinism contract —
# or if either run expands more A* nodes, rips up more nets or takes more
# negotiation passes than the baseline (routing is sequential, so these
# counts do not depend on the domain count; times and rates are
# machine-dependent, reported informationally).
PERF_SUBSET = 4gt10-v1_81,4gt4-v0_73
perf: build
	TQEC_EFFORT=fast TQEC_BENCH_ONLY=$(PERF_SUBSET) TQEC_DOMAINS=1 \
	  dune exec bench/main.exe -- --json > _build/bench_perf_d1.json
	TQEC_EFFORT=fast TQEC_BENCH_ONLY=$(PERF_SUBSET) TQEC_DOMAINS=4 \
	  dune exec bench/main.exe -- --json > _build/bench_perf_d4.json
	dune exec bin/tqec_gate.exe -- perf BENCH_pr23.json \
	  _build/bench_perf_d1.json _build/bench_perf_d4.json

# Stage-cache contract gate: run the perf subset with a fresh on-disk cache
# (cold + warm + routing-config-only reruns inside bench --json) and check
# that warm runs hit all four stages with bit-identical volumes, that a
# routing-only change reuses exactly the first three stage artifacts, and
# that the uncached, cold and warm layouts are all valid.
cache: build
	rm -rf _build/tqec_gate_cache
	TQEC_EFFORT=fast TQEC_BENCH_ONLY=$(PERF_SUBSET) \
	  TQEC_CACHE_DIR=_build/tqec_gate_cache \
	  dune exec bench/main.exe -- --json > _build/bench_cache.json
	dune exec bin/tqec_gate.exe -- cache _build/bench_cache.json

clean:
	dune clean
