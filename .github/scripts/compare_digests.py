"""Compare workload digests and CLI fingerprints with a base checkout.

For each workload, runs ``bench/run.py --seed 7 --seconds 32 --trace 1
--ops N`` in the base tree and in this tree, prints every per-layer count
that differs, and fails if any run fails or any ``digest`` differs.  A
fixed op count makes the check deterministic and independent of the
host's speed.  Then runs ``python -m repro synthesize --fingerprint`` and
``python -m repro table1 --jobs 1 --fingerprint`` in both trees (memo
on, no disk cache) and fails on any differing ``fingerprint`` line.

Exit status: 0 when every digest and fingerprint matches, 1 on any
digest or fingerprint mismatch, 2 when a run fails (in either tree) or
the arguments are wrong.

Usage::

    python3 .github/scripts/compare_digests.py BASE_DIR
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parents[2]
SEED = 7
#: (workload, ops) — each a whole number of the workload's op cycle.
WORKLOADS = (("respin", 6), ("layout_signoff", 24), ("yield_mc", 15))
#: CLI runs whose ``fingerprint`` lines must match the base tree's.
FINGERPRINTS = (
    ("synthesize", "--fingerprint"),
    ("table1", "--jobs", "1", "--fingerprint"),
)


def failed(stderr: str, message: str) -> None:
    """Report a run that did not complete and exit 2."""
    sys.stderr.write(stderr)
    print(message, file=sys.stderr)
    raise SystemExit(2)


def run(tree: pathlib.Path, workload: str, ops: int):
    """``(detail, per-layer metrics)`` of one traced fixed-op run."""
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "32", "--trace", "1",
         "--ops", str(ops)],
        cwd=tree, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        failed(completed.stderr, f"{workload} failed in {tree}")
    detail, result = completed.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)["metrics"]


def fingerprints(tree: pathlib.Path, args) -> list:
    """The ``fingerprint`` lines of one ``python -m repro`` run in ``tree``.

    ``REPRO_*`` variables are dropped, so neither tree can be served
    from a shared artifact cache or run under an injected fault.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        failed(completed.stderr, f"repro {' '.join(args)} failed in {tree}")
    return [line for line in completed.stdout.splitlines()
            if line.startswith("fingerprint")]


def counts(metrics) -> dict:
    """The per-layer metrics that count work rather than time it."""
    return {
        name: entry["value"] for name, entry in metrics.items()
        if entry["unit"] in ("count/op", "B/op") or name.endswith("hit_ratio")
    }


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = pathlib.Path(argv[0]).resolve()
    mismatched = []
    for workload, ops in WORKLOADS:
        base_detail, base_metrics = run(base, workload, ops)
        head_detail, head_metrics = run(HERE, workload, ops)
        same = base_detail["digest"] == head_detail["digest"]
        print(f"{workload} --ops {ops}: digest base {base_detail['digest']} "
              f"head {head_detail['digest']} "
              f"{'equal' if same else 'DIFFERENT'}")
        base_counts, head_counts = counts(base_metrics), counts(head_metrics)
        for name in sorted(set(base_counts) | set(head_counts)):
            old, new = base_counts.get(name), head_counts.get(name)
            if old != new:
                print(f"  {name}: {old} -> {new}")
        if not same:
            mismatched.append(workload)
    for args in FINGERPRINTS:
        command = " ".join(args)
        base_lines, head_lines = fingerprints(base, args), fingerprints(HERE, args)
        same = bool(head_lines) and base_lines == head_lines
        print(f"repro {command}: {'equal' if same else 'DIFFERENT'}")
        if not same:
            for side, lines in (("base", base_lines), ("head", head_lines)):
                for line in lines:
                    print(f"  {side} {line}")
            mismatched.append(f"repro {command}")
    if mismatched:
        print(f"mismatch on {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
