PYTHON ?= python
export PYTHONPATH := src

BENCH_TARGETS := bench-perf bench-fleet bench-obs bench-queue

.PHONY: test lint verify bench-figures examples \
	$(BENCH_TARGETS) validate-bench twall-names twall-smoke twall pairs loc \
	check

test:
	$(PYTHON) -m pytest -x -q tests/

# ruff (byte-compile fallback); the RPR rules are tier-1 pins in `test`.
lint:
	sh scripts/lint.sh

# Bounded protocol verification, one pass with no options: every bounded
# fault schedule at both pipeline depths replayed on the live stack and
# judged by the invariants of repro.invariants, then each seeded mutant
# of the real coordinator and server swept (each must be caught).  Not
# part of `check`: tests/test_verify.py and
# tests/test_verify_conformance.py assert each of its verdicts.
verify:
	$(PYTHON) -m repro.verify

# Every figure/table bench once: the "Measured shape" assertions of
# EXPERIMENTS.md (F1-F11, T-FT, T-RT, T-CHK, ...) as a gate, each report
# written to benchmarks/out/.  Nothing here reads a clock: host time is
# `make twall`.  This is also the short mode of the four committed
# documents below: each `bench_*` function builds a small document and
# holds it to its `BENCHES` floors; `bench_stepping_modes` re-measures
# the full T-PERF document and compares it with the committed file.
bench-figures:
	$(PYTHON) -m pytest benchmarks/ -q

# Every script in examples/ runs to completion, each in a fresh
# interpreter with a two-minute timeout (all ten take about 10 s): the
# tier-1 tests only check that they exist, and they call the public API.
examples:
	@for example in examples/*.py; do \
		echo "examples: $$example"; \
		timeout 120 $(PYTHON) $$example > /dev/null || exit 1; \
	done

# Committed comparison documents, name -> script.  `make bench-<name>`
# regenerates the repo-root BENCH_*.json (perf: sequential vs pipelined
# vs ensemble; fleet: 100 experiments over 8 shared sites; obs: rollup
# fidelity, determinism, black box; queue: 60 submissions surviving 3
# scheduler kills).
BENCH_perf := bench_tperf_ntcp.py
BENCH_fleet := bench_tfleet.py
BENCH_obs := bench_tobs_observatory.py
BENCH_queue := bench_tqueue.py

$(BENCH_TARGETS): bench-%:
	$(PYTHON) benchmarks/$(BENCH_$*)

validate-bench:
	$(PYTHON) scripts/validate_bench.py

# BENCHMARK.json and the T-WALL runner must name the same workloads
# and metrics.
twall-names:
	$(PYTHON) benchmarks/twall/run.py --check-names

# One short run each of the control-plane workload, the data-plane
# workload (most_full: DAQ, NSDS to 8 viewers, CHEF), the observed
# workload (the one with its own oracle: history digest == most_full's)
# and the durable campaign (queue/, fleet/, gsi/, repository/) through the
# real runner (about 50 s): a rename of anything T-WALL reads fails here,
# before merge.  Passes only if each result line says the oracles held.
twall-smoke:
	$(PYTHON) benchmarks/twall/run.py --workload most_bare --seconds 1 \
		--trace 0 | tail -n 1 | grep '"correct": true'
	$(PYTHON) benchmarks/twall/run.py --workload most_full --seconds 1 \
		--trace 0 | tail -n 1 | grep '"correct": true'
	$(PYTHON) benchmarks/twall/run.py --workload most_observed --seconds 1 \
		--trace 0 | tail -n 1 | grep '"correct": true'
	$(PYTHON) benchmarks/twall/run.py --workload campaign_durable --seconds 1 \
		--trace 0 | tail -n 1 | grep '"correct": true'

# The host-time benchmark itself: all four workloads, untraced, each in a
# fresh process, each printing its end-to-end table (~2 min); the merged
# document is benchmarks/twall/out/twall.json.  A host-time claim is this
# on the parent and on the change, alternating, then
# `benchmarks/twall/run.py --compare A/twall.json B/twall.json`.  Not part
# of `check`: host time on a shared box is evidence for a PR, not a gate.
twall:
	$(PYTHON) benchmarks/twall/run.py --trace 0

# The comparison a host-time claim owes: N (default 10) alternating
# pairs of one workload, the committed files of AGAINST=<rev> against
# this tree, with per-metric medians, quartiles, pairs won and a verdict
# (`make pairs AGAINST=HEAD~1 WORKLOAD=most_observed`; ARGS goes to the
# runner, e.g. ARGS="--seed 1971").  About 8 minutes per workload.
pairs:
	$(PYTHON) scripts/pairs.py --against $(AGAINST) --workload $(WORKLOAD) \
		$(if $(N),-n $(N)) $(ARGS)

# Code lines by tokenizer (no blank, comment or docstring lines) per
# directory — the figure CHANGES.md size reports quote.  With
# AGAINST=<git-rev> (e.g. `make loc AGAINST=HEAD~1`): the per-file and
# per-directory delta versus that revision.
loc:
	$(PYTHON) scripts/loc.py $(if $(AGAINST),--against $(AGAINST))

# The gate, and all CI runs: each guarantee is stated once (a tier-1
# test or a `BENCHES` floor) and reached from here once.
check: lint test bench-figures examples validate-bench twall-names \
	twall-smoke
