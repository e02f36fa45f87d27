#!/usr/bin/env python
"""Alternating parent/change pairs of one T-WALL workload.

The comparison a host-time claim owes (``choosing-metrics`` section 8):
the committed files of ``--against REV`` are unpacked into a temporary
directory (``git archive``: local, and nothing is left in ``.git``), then
``benchmarks/twall/run.py --workload W --trace 0`` runs on that tree and
on this one alternately — ``-n`` pairs, alternating which side goes
first, each run a fresh process whose final JSON line is all that is
read; each pair's line shows both sides' throughput and peak RSS as it
lands.  Each side byte-compiles into its own ``PYTHONPYCACHEPREFIX`` in
the temporary directory, so neither reads a ``__pycache__`` the working
tree happens to hold: both start cold and warm up alike.  Prints, per
end-to-end metric, each side's median and quartiles, the pairs the
change won and lost (ties count for neither), and a verdict: ``gain`` /
``worse`` when one side took at least nine tenths of the pairs *and*
the medians lie further apart than the parent's own inter-quartile
distance; ``-`` otherwise, which is "not resolved", not "unchanged".
Arguments it does not know go to the runner unchanged.

Run:  python scripts/pairs.py --against REV --workload NAME [-n 10]
                              [--seed 1971] [--seconds 10]
      (or ``make pairs AGAINST=REV WORKLOAD=NAME [N=10] [ARGS=...]``)
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def measure(tree: pathlib.Path, arguments: list[str],
            cache: pathlib.Path) -> dict[str, float]:
    """One fresh-process run, its bytecode under ``cache``; the end-to-end
    metrics of its last line."""
    out = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "twall" / "run.py"),
         "--trace", "0", *arguments],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: the run's oracles did not hold: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("-n", type=int, default=10, help="pairs (>= 2)")
    args, passed_on = parser.parse_known_args()
    arguments = ["--workload", args.workload, *passed_on]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        parent = pathlib.Path(scratch) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.against],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        trees = {"parent": parent, "change": ROOT}
        for pair in range(args.n):
            for side in sorted(trees, reverse=bool(pair % 2)):
                runs[side].append(measure(
                    trees[side], arguments,
                    pathlib.Path(scratch) / f"pycache-{side}"))
            print(f"pair {pair + 1}/{args.n}: " + "  ".join(
                f"{side} {runs[side][-1]['host_steps_per_s']:.1f} "
                f"steps/host_s {runs[side][-1]['peak_rss_mb']:.1f} MiB"
                for side in runs), flush=True)
    print(f"\n{args.workload} vs {args.against}, {args.n} pairs "
          f"({' '.join(passed_on) or 'default arguments'})")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old, new = ([run[name] for run in runs[side]] for side in runs)
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        lost = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (q1, median, q3), after = (statistics.quantiles(side, n=4)
                                   for side in (old, new))
        apart = abs(after[1] - median) > q3 - q1
        verdict = ("gain" if won >= 0.9 * args.n and apart
                   else "worse" if lost >= 0.9 * args.n and apart else "-")
        print(f"  {name:<17} parent {median:.6g} [{q1:.6g}, {q3:.6g}]  "
              f"change {after[1]:.6g} [{after[0]:.6g}, {after[2]:.6g}]  "
              f"x{after[1] / median if median else 0:.3f}  "
              f"won {won} lost {lost}  {verdict}")


if __name__ == "__main__":
    main()
