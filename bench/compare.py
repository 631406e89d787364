"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

Usage::

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--claim M:W ...]

Each file holds runs appended by ``bench/run.py --out FILE``.  For every
end-to-end metric and workload it prints both medians and spreads (the
distance between the first and third quartile over the median) and a
verdict:

* ``ok``         -- the change's median is no worse than the parent's by
  more than the metric's bound;
* ``regressed``  -- it is worse by more than the bound;
* ``unresolved`` -- either side's spread exceeds the bound, so the data
  cannot show "no worse", unless every change run beats every parent
  run.

The same verdicts are given for the raw (uncalibrated) times in each
run's ``raw`` entry, so that a change the calibration kernel misreads
still shows.  A raw ``regressed`` fails the comparison; a raw
``unresolved`` does not, since raw times on a shared host often spread
wider than the bounds.

``--claim`` applies the rule for claiming a gain: at least ten
parent/change pairs run alternately (the side that ran first flips from
one pair to the next), the change wins at least nine tenths of the
pairs (ties count for neither), and the medians differ by more than the
parent's interquartile range.

Traced runs at the same workload, seed and op count must agree exactly
on the digest and on every per-layer count (:func:`is_count`).

Exits 0 when every calibrated verdict is ``ok``, no raw verdict is
``regressed``, every claim holds, every run was correct and every
traced count agrees; otherwise 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _better(a: float, b: float, better: str) -> bool:
    """True when ``b`` reads strictly better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    base = statistics.median(parent)
    moved = (statistics.median(change) - base) / abs(base)
    worse = moved if better == "lower" else -moved
    if max(spread(parent), spread(change)) > bound:
        if all(_better(a, b, better) for a in parent for b in change):
            return "ok", worse
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def claim(parent_runs: List[Dict], change_runs: List[Dict], metric: str,
          better: str) -> Tuple[bool, str]:
    """The gain rule over runs paired in start order."""
    pairs = list(zip(sorted(parent_runs, key=lambda r: r["started"]),
                     sorted(change_runs, key=lambda r: r["started"])))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs < {MIN_PAIRS}"
    firsts = [a["started"] < b["started"] for a, b in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        return False, "pairs do not alternate which side runs first"
    value = lambda run: run["metrics"][metric]["value"]  # noqa: E731
    wins = sum(_better(value(a), value(b), better) for a, b in pairs)
    parent = [value(a) for a, _ in pairs]
    change = [value(b) for _, b in pairs]
    q1, _, q3 = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    gained = -gap if better == "lower" else gap
    detail = (f"wins {wins}/{len(pairs)}, median gap {gained:+.6g} vs "
              f"parent IQR {q3 - q1:.6g}")
    return wins >= WIN_SHARE * len(pairs) and gained > q3 - q1, detail


def is_count(metric: Dict) -> bool:
    """True for a per-layer metric the program counts rather than times;
    counts repeat exactly for the same seed and op count."""
    return (metric["unit"] in ("count/op", "B/op")
            or metric["name"].endswith("hit_ratio"))


def count_mismatches(parent_runs: List[Dict], change_runs: List[Dict],
                     counts: List[str]) -> List[str]:
    """Traced runs with equal (workload, seed, ops) that disagree on the
    digest or on one of the ``counts``."""
    def key(run):
        return run["workload"], run["host"]["seed"], run["ops"]

    by_key = {key(run): run for run in parent_runs if run["trace"]}
    problems = []
    for run in change_runs:
        other = by_key.get(key(run)) if run["trace"] else None
        if other is None:
            continue
        if run["digest"] != other["digest"]:
            problems.append(f"{key(run)}: digest {other['digest']} -> "
                            f"{run['digest']}")
        for name in counts:
            before = other["metrics"][name]["value"]
            after = run["metrics"][name]["value"]
            if after != before:
                problems.append(f"{key(run)}: {name} {before} -> {after}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    parent_runs, change_runs = load(args.parent), load(args.change)
    healthy = True

    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for run in runs:
            if not run["correct"]:
                print(f"{side}: incorrect run {run['workload']} seed "
                      f"{run['host']['seed']}: {run.get('errors')}")
                healthy = False

    print(f"{'workload':<15} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'spread':>15} {'worse':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        timed = [[r for r in runs if r["workload"] == workload
                  and not r["trace"]] for runs in (parent_runs, change_runs)]
        if not all(timed):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows = [(name, [[r["metrics"][name]["value"] for r in side]
                            for side in timed])]
            if all(name in r["raw"] for side in timed for r in side):
                rows.append((f"raw {name}", [[r["raw"][name] for r in side]
                                             for side in timed]))
            for label, (parent, change) in rows:
                result, worse = verdict(parent, change, metric["better"],
                                        metric["bound"])
                if label == name:
                    healthy &= result == "ok"
                else:
                    healthy &= result != "regressed"
                print(f"{workload:<15} {label:<16} "
                      f"{statistics.median(parent):>12.6g} "
                      f"{statistics.median(change):>12.6g} "
                      f"{spread(parent):>7.3f}/{spread(change):<7.3f} "
                      f"{worse:>+8.3f} {metric['bound']:>6.2f}  {result}")

    betters = {m["name"]: m["better"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    for text in args.claim:
        metric, _, workload = text.partition(":")
        runs = [[r for r in side if r["workload"] == workload
                 and metric in r["metrics"]]
                for side in (parent_runs, change_runs)]
        held, detail = claim(runs[0], runs[1], metric, betters[metric])
        healthy &= held
        print(f"claim {metric} on {workload}: "
              f"{'met' if held else 'not met'} ({detail})")

    counts = [m["name"] for m in spec["per_layer"] if is_count(m)]
    for problem in count_mismatches(parent_runs, change_runs, counts):
        print(f"traced counts differ: {problem}")
        healthy = False
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
