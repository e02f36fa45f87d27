PYTHON ?= python
export PYTHONPATH := src

# Subsystem smokes: `make <name>-smoke` runs scripts/<name>_smoke.py.
SMOKES := monitor chaos fleet observatory queue
SMOKE_TARGETS := $(SMOKES:%=%-smoke)
BENCH_TARGETS := bench-perf bench-fleet bench-obs bench-queue
BENCH_SMOKE_TARGETS := $(BENCH_TARGETS:%=%-smoke)

.PHONY: test lint analyze verify verify-smoke smoke $(SMOKE_TARGETS) bench \
	bench-figures $(BENCH_TARGETS) $(BENCH_SMOKE_TARGETS) validate-bench \
	twall-names twall-smoke loc check

test:
	$(PYTHON) -m pytest -x -q tests/

lint:
	sh scripts/lint.sh

analyze:
	$(PYTHON) -m repro.analysis src tests examples benchmarks scripts

# Bounded protocol verification: exhaustive state-space exploration at
# both pipeline depths, the seeded-mutation regression, and live
# conformance replay of one sampled trace per fault kind.
verify:
	$(PYTHON) -m repro.verify

# Shortened CI bound: 2 steps, 1 fault per schedule.
verify-smoke:
	$(PYTHON) -m repro.verify --smoke

smoke:
	$(PYTHON) scripts/smoke.py

$(SMOKE_TARGETS): %-smoke:
	$(PYTHON) scripts/$*_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Every figure/table bench once, untimed: the "Measured shape" assertions
# of EXPERIMENTS.md (F1-F11, T-FT, T-RT, T-CHK, ...) as a gate.
bench-figures:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# Committed comparison documents, name -> script.  `make bench-<name>`
# regenerates the repo-root BENCH_*.json (perf: sequential vs pipelined
# vs ensemble; fleet: 100 experiments over 8 shared sites; obs: overhead,
# rollup fidelity, determinism, black box; queue: 60 submissions
# surviving 3 scheduler kills); `make bench-<name>-smoke` is the
# shortened CI gate with the same shape, writing benchmarks/out/ only.
BENCH_perf := bench_tperf_ntcp.py
BENCH_fleet := bench_tfleet.py
BENCH_obs := bench_tobs_observatory.py
BENCH_queue := bench_tqueue.py

$(BENCH_TARGETS): bench-%:
	$(PYTHON) benchmarks/$(BENCH_$*)

$(BENCH_SMOKE_TARGETS): bench-%-smoke:
	$(PYTHON) benchmarks/$(BENCH_$*) --smoke

validate-bench:
	$(PYTHON) scripts/validate_bench.py

# BENCHMARK.json and the T-WALL runner must name the same workloads
# and metrics.
twall-names:
	$(PYTHON) benchmarks/twall/run.py --check-names

# One short repetition of the control-plane workload through the real
# runner (~10 s): a rename of anything T-WALL reads fails here, before
# merge.  Passes only if the result line says the oracles held.
twall-smoke:
	$(PYTHON) benchmarks/twall/run.py --workload most_bare --seconds 1 \
		--trace 0 | tail -n 1 | grep '"correct": true'

# Code lines by tokenizer (no blank, comment or docstring lines) per
# directory — the figure CHANGES.md size reports quote.  With
# AGAINST=<git-rev> (e.g. `make loc AGAINST=HEAD~1`): the per-file and
# per-directory delta versus that revision.
loc:
	$(PYTHON) scripts/loc.py $(if $(AGAINST),--against $(AGAINST))

check: lint analyze verify test smoke $(SMOKE_TARGETS) bench-figures \
	$(BENCH_SMOKE_TARGETS) validate-bench twall-names twall-smoke
