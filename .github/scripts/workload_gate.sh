#!/usr/bin/env bash
# Workload benchmark of a base checkout against this tree.
#
# For each workload, runs pairs of timed runs (bench/run.py --seed 7
# --seconds 8 --trace 0), one in the base tree and one here, flipping
# which side runs first from one pair to the next.  One seed for every
# run, so both sides repeat the same cycle of ops.  respin takes 9
# pairs, the others 5: its setup_s (about 0.13 s) spreads widest, and
# with fewer runs, or fixed-op runs (setup_s from one cold launch), its
# spread between runs of one tree passed the 15% bound, so the
# comparison could not say "no worse".  The runs are appended to
# base.jsonl and head.jsonl in the current directory (both are emptied
# first), and bench/compare.py judges them against the BENCHMARK.json
# bounds: its exit status is the script's.
#
# Usage, from the root of this checkout:
#
#     .github/scripts/workload_gate.sh BASE_DIR
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BASE_DIR" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(pwd)
: > "$head/base.jsonl"
: > "$head/head.jsonl"

for entry in respin:9 layout_signoff:5 yield_mc:5; do
  workload=${entry%:*}
  for pair in $(seq "${entry#*:}"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
      if [ "$side" = base ]; then tree=$base; else tree=$head; fi
      echo "$workload pair $pair: $side" >&2
      (cd "$tree" && python3 bench/run.py --workload "$workload" --seed 7 \
        --seconds 8 --trace 0 --out "$head/$side.jsonl" > /dev/null)
    done
  done
done
python3 bench/compare.py base.jsonl head.jsonl
