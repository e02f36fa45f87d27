#!/usr/bin/env python3
"""T-WALL — host-time benchmark for the MOST run and the durable campaign.

    python benchmarks/twall/run.py [--seed N] [--workload NAME]
                                   [--seconds S] [--trace 0|1]
    python benchmarks/twall/run.py --compare A.json B.json
    python benchmarks/twall/run.py --check-names

With ``--workload`` the workload runs in this (fresh) process: set-up,
then repetitions in a closed loop with one client — the next starts when
the previous returns — for ``--seconds`` (at least ``MIN_REPETITIONS``),
then with ``--trace 1`` one more repetition under cProfile and the
direct-call probes.  Every metric is printed by name with its unit, the
document goes to ``out/<workload>.json``, and the last line of standard
output is the one-object result the benchmark contract reads
(end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
Without ``--workload`` each of the four runs in its own subprocess and
the documents are merged into ``out/twall.json``.

Two clocks, never mixed: "host" is this process's ``perf_counter`` /
``process_time``; "sim" is ``kernel.now``.  See names.py and README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

# Set-up is timed from here: the interpreter's own start and the standard
# library imports above (tens of milliseconds) are not in ``setup_s``.
PROCESS_START = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

import names  # noqa: E402  (sibling modules; neither imports repro)
from yardstick import Yardstick  # noqa: E402

#: a run measures for ``--seconds`` but never fewer repetitions than this
#: (the contract's time cap does not leave room for more of the 9-second
#: ``most_observed`` repetition; the other workloads fit 4 to 7 in 15 s)
MIN_REPETITIONS = 3
DEFAULT_SECONDS = 15


def timing(values: list[float], unit: str) -> dict:
    """Median over the timed repetitions, with quartiles and count."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, list | None]:
    """Set up, repeat, (trace,) check; returns the workload's document and,
    when traced, the top functions by self time."""
    yardstick = Yardstick()
    yardstick.start()
    # Imported here so set-up time includes loading the program.
    import workloads

    workload = workloads.make_workload(name, seed, yardstick)
    workload.set_up()
    gc.collect()
    raw_setup_s = time.perf_counter() - PROCESS_START
    slice_s, setup_speed = yardstick.since(0)
    setup_s = (raw_setup_s - slice_s) * setup_speed

    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPETITIONS or time.perf_counter() < deadline:
        reps.append(workload.repeat())
        gc.collect()  # between repetitions, outside both clocks' intervals
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    yardstick.stop()
    workload.yardstick = None

    per_layer = None
    top_functions = None
    timed = list(reps)
    if trace:
        import layers
        import probes

        profile = cProfile.Profile()
        profile.enable()
        traced = workload.repeat()
        profile.disable()
        reps.append(traced)
        folded, top_functions = layers.fold(profile)
        probed = probes.run_all()

    first = reps[0]
    failures = [f"repetition {index}: {text}"
                for index, rep in enumerate(reps) for text in rep.failures]
    failed = sum(rep.failed for rep in reps)
    attempted = sum(rep.operations for rep in reps)
    # Deterministic by construction: any movement between repetitions of
    # one process is a bug in the program (or in the benchmark).
    for index, rep in enumerate(reps[1:], start=1):
        moved = [key for key in first.counts
                 if rep.counts[key] != first.counts[key]]
        if rep.digest != first.digest:
            moved.append("history digest")
        if rep.sim_s != first.sim_s or rep.steps != first.steps:
            moved.append("sim_s_per_step")
        if moved:
            failures.append(f"repetition {index}: not deterministic: "
                            + ", ".join(moved))
            failed = attempted
    if seed == workloads.PAPER_SEED:
        misses = workloads.check_against_reference(name, first.shape)
        if misses:
            failures.extend(f"reference.json: {text}" for text in misses)
            failed = attempted

    host_s = [rep.host_s for rep in timed]
    raw_host_s = [rep.raw_host_s for rep in timed]
    units = names.END_TO_END
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": units["setup_s"][0]},
        "host_steps_per_s": timing(
            [rep.steps / rep.host_s for rep in timed],
            units["host_steps_per_s"][0]),
        "cpu_s_per_kstep": timing(
            [rep.cpu_s / rep.steps * 1000 for rep in timed],
            units["cpu_s_per_kstep"][0]),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": units["peak_rss_mb"][0]},
        "sim_s_per_step": {"value": first.sim_s / first.steps,
                           "unit": units["sim_s_per_step"][0]},
    }
    median_host_s = statistics.median(host_s)
    if trace:
        values = {f"{layer}.{suffix}": entry[suffix]
                  for layer, entry in folded.items()
                  for suffix in names.TRACE_SUFFIXES}
        values["trace_overhead_ratio"] = (
            traced.raw_host_s / statistics.median(raw_host_s))
        values.update(first.counts)
        values["sim.host_us_per_event"] = (
            median_host_s / first.counts["sim.events"] * 1e6)
        values.update(probed)
        per_layer = {key: {"value": values[key], "unit": unit}
                     for key, unit in names.per_layer_units().items()}

    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "inputs": workload.inputs(),
        "repetitions": len(timed), "host_s_per_repetition": host_s,
        "raw_host_s_per_repetition": raw_host_s,
        "machine_speed_per_repetition": [rep.speed for rep in timed],
        "raw_setup_s": raw_setup_s, "machine_speed_in_setup": setup_speed,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "failures": failures,
        "history_sha256": first.digest, "shape": first.shape,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }, top_functions


def print_document(doc: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"== {doc['workload']}  seed {doc['seed']}  "
          f"{doc['repetitions']} timed repetitions ==")
    for name, metric in doc["end_to_end"].items():
        spread = (f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                  f"n {metric['n']}]" if "n" in metric else "")
        print(f"  {name:<34} {metric['value']:>14.6g} "
              f"{metric['unit']}{spread}")
    print(f"  {'failed_share':<34} {doc['failed_share']:>14.6g} "
          f"share  [{doc['failed']} of {doc['attempted']} operations]")
    for name, metric in (doc["per_layer"] or {}).items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for text in doc["failures"]:
        print(f"  FAILED {text}")


def main_workload(args) -> int:
    doc, top_functions = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    if top_functions is not None:
        (OUT_DIR / f"trace_{args.workload}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "top_functions": top_functions}, indent=2) + "\n")
    (OUT_DIR / f"{args.workload}.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    print_document(doc)
    reported = doc["per_layer"] if args.trace else doc["end_to_end"]
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in reported.items()}}))
    return 0 if doc["correct"] else 1


# ---------------------------------------------------------------------------
# All four workloads, one fresh subprocess each
# ---------------------------------------------------------------------------

def main_suite(args) -> int:
    documents = {}
    status = 0
    for name in names.WORKLOADS:
        path = OUT_DIR / f"{name}.json"
        path.unlink(missing_ok=True)  # never merge a stale document
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or done.returncode
        if path.exists():
            documents[name] = json.loads(path.read_text())
    (OUT_DIR / "twall.json").write_text(json.dumps(
        {"schema": "repro.twall/v1", "seed": args.seed,
         "workloads": documents}, indent=2) + "\n")
    print(f"wrote {OUT_DIR / 'twall.json'}")
    return status


# ---------------------------------------------------------------------------
# --compare and --check-names
# ---------------------------------------------------------------------------

def declared_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def main_compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): did B regress against A?"""
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    declared = {metric["name"]: metric
                for metric in declared_benchmark()["end_to_end"]}
    regressed = 0
    print(f"{'workload':<17} {'metric':<17} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in names.WORKLOADS:
        if workload not in a or workload not in b:
            print(f"{workload:<17} missing from one document")
            regressed += 1
            continue
        for name, spec in declared.items():
            ma = a[workload]["end_to_end"][name]
            mb = b[workload]["end_to_end"][name]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (mb["value"] - ma["value"]) / ma["value"]
            spread = max((m["q3"] - m["q1"]) / m["value"] if "n" in m else 0.0
                         for m in (ma, mb))
            if name == "sim_s_per_step":
                # Same seed, same commit: the sim clock must not move at all.
                verdict = "ok" if ma["value"] == mb["value"] else "regressed"
            elif worse > spec["bound"]:
                verdict = "regressed"
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            regressed += verdict == "regressed"
            print(f"{workload:<17} {name:<17} {ma['value']:>12.6g} "
                  f"{mb['value']:>12.6g} {worse:>+9.2%} {spread:>7.2%} "
                  f"{spec['bound']:>6.0%}  {verdict}")
        moved = sorted(
            key for key in names.COUNTS
            if key != "sim.host_us_per_event"
            and (a[workload]["per_layer"] or {}).get(key)
            != (b[workload]["per_layer"] or {}).get(key))
        if a[workload]["history_sha256"] != b[workload]["history_sha256"]:
            moved.append("history_sha256")
        verdict = "regressed: " + ", ".join(moved) if moved else "identical"
        regressed += bool(moved)
        print(f"{workload:<17} deterministic counts and history: {verdict}")
    return 1 if regressed else 0


def main_check_names() -> int:
    """BENCHMARK.json and the runner must name exactly the same things."""
    declared = declared_benchmark()
    problems = []

    def same(kind, declared_items, ours):
        theirs = {item["name"]: item for item in declared_items}
        for name in sorted(set(theirs) ^ set(ours)):
            where = "BENCHMARK.json" if name in theirs else "names.py"
            problems.append(f"{kind} {name!r} only in {where}")
        for name in theirs:
            if not names.NAME_RE.fullmatch(name):
                problems.append(f"{kind} name {name!r} is not "
                                f"{names.NAME_RE.pattern}")
        return theirs

    same("workload", declared["workloads"], names.WORKLOADS)
    end_to_end = same("end_to_end", declared["end_to_end"], names.END_TO_END)
    per_layer = same("per_layer", declared["per_layer"],
                     names.per_layer_units())
    ours = {**{name: unit for name, (unit, _) in names.END_TO_END.items()},
            **names.per_layer_units()}
    for name, item in {**end_to_end, **per_layer}.items():
        if not names.UNIT_RE.fullmatch(item["unit"]):
            problems.append(f"{name!r}: unit {item['unit']!r} is not "
                            f"{names.UNIT_RE.pattern}")
        if name in ours and item["unit"] != ours[name]:
            problems.append(f"{name!r}: unit {item['unit']!r} in "
                            f"BENCHMARK.json, {ours[name]!r} in names.py")
    for name, item in end_to_end.items():
        if name in names.END_TO_END \
                and item["better"] != names.END_TO_END[name][1]:
            problems.append(f"{name!r}: direction differs from names.py")
    for text in problems:
        print(f"check-names: {text}")
    if not problems:
        print(f"check-names: {len(declared['workloads'])} workloads, "
              f"{len(declared['end_to_end'])} end-to-end and "
              f"{len(declared['per_layer'])} per-layer metrics agree")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(names.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check-names", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if args.check_names:
        return main_check_names()
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"twall: no program to measure: {REPO_ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload:
        return main_workload(args)
    return main_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
