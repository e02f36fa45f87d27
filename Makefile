PYTHON ?= python
export PYTHONPATH := src

# Subsystem smokes: `make <name>-smoke` runs scripts/<name>_smoke.py.
SMOKES := monitor chaos fleet observatory queue
SMOKE_TARGETS := $(SMOKES:%=%-smoke)

.PHONY: test lint analyze verify verify-smoke smoke $(SMOKE_TARGETS) bench \
	bench-perf bench-perf-smoke bench-fleet bench-fleet-smoke bench-obs \
	bench-obs-smoke bench-queue bench-queue-smoke validate-bench \
	twall-names check

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

# Full stepping-mode comparison; regenerates the committed repo-root
# BENCH_tperf_ntcp.json (sequential vs pipelined vs ensemble).
bench-perf:
	$(PYTHON) benchmarks/bench_tperf_ntcp.py

# Shortened CI gate: same comparison, writes benchmarks/out/ only.
bench-perf-smoke:
	$(PYTHON) benchmarks/bench_tperf_ntcp.py --smoke

# Full multi-tenant fleet campaign; regenerates the committed repo-root
# BENCH_tfleet.json (100 experiments over 8 shared sites).
bench-fleet:
	$(PYTHON) benchmarks/bench_tfleet.py

# Shortened CI gate: same campaign shape, writes benchmarks/out/ only.
bench-fleet-smoke:
	$(PYTHON) benchmarks/bench_tfleet.py --smoke

# Full observatory measurement; regenerates the committed repo-root
# BENCH_tobs.json (overhead, rollup fidelity, determinism, black box).
bench-obs:
	$(PYTHON) benchmarks/bench_tobs_observatory.py

# Shortened CI gate: same measurement, writes benchmarks/out/ only.
bench-obs-smoke:
	$(PYTHON) benchmarks/bench_tobs_observatory.py --smoke

# Full durable-queue crash campaign; regenerates the committed repo-root
# BENCH_tqueue.json (60 submissions surviving 3 scheduler kills).
bench-queue:
	$(PYTHON) benchmarks/bench_tqueue.py

# Shortened CI gate: same campaign shape, writes benchmarks/out/ only.
bench-queue-smoke:
	$(PYTHON) benchmarks/bench_tqueue.py --smoke

validate-bench:
	$(PYTHON) scripts/validate_bench.py

# BENCHMARK.json and the T-WALL runner must name the same workloads
# and metrics.
twall-names:
	$(PYTHON) benchmarks/twall/run.py --check-names

check: lint analyze verify test smoke $(SMOKE_TARGETS) bench-perf-smoke \
	bench-fleet-smoke bench-obs-smoke bench-queue-smoke validate-bench \
	twall-names
