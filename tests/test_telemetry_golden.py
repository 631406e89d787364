"""Golden outputs of trace replay and the profiler.

One deterministic trace (injected clock, binary-exact durations) covers
every shape the replay pass has to rebuild: nested spans with counters,
gauges and events, a pool worker's subtree grafted under the parent
span, a unit recovered in-process under a fallback span, and a span that
never closed (a crash mid-run).  The exact text of the tree, the JSON
summary, the profile table and the collapsed stacks is pinned, so a
change to how replay or profiling walks the tree cannot move a byte of
what ``python -m repro trace`` and ``python -m repro profile`` print.
"""

from __future__ import annotations

from repro import telemetry
from repro.__main__ import main
from repro.telemetry import Tracer, summarize
from repro.telemetry.profile import collapsed_stacks, format_collapsed


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _golden_records():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.activate():
        with tracer.span("cli.table1"):
            telemetry.gauge("pool.workers", 2)
            with tracer.span("batch.run", tasks=3, jobs=2):
                telemetry.count("batch.tasks", 3)
                # A unit run in this process.
                with tracer.span("batch.task", index=0, label="case.full"):
                    telemetry.count("solver.solves", 4)
                    clock.advance(0.5)
                    with tracer.span("synthesis.round", round=1):
                        telemetry.count("solver.solves", 2)
                        telemetry.count("synthesis.rounds")
                        clock.advance(0.25)
                    telemetry.event("synthesis.round.complete", distance=0.125)
                # A unit a pool worker ran on its own clock and shipped
                # home: it burned 1.5 s while the parent waited 1.0 s.
                worker_clock = FakeClock(100.0)
                worker = Tracer(clock=worker_clock)
                with worker.activate():
                    with worker.span("batch.task", index=1, label="case.none"):
                        telemetry.count("solver.solves", 3)
                        worker_clock.advance(1.5)
                tracer.absorb(worker.trace_payload(), t_offset=0.75)
                clock.advance(1.0)
                # A unit whose worker died, recovered in-process.
                telemetry.count("batch.retries")
                with tracer.span(
                    "batch.task_fallback", index=2, label="case.layout"
                ):
                    with tracer.span(
                        "batch.task", index=2, label="case.layout"
                    ):
                        telemetry.count("solver.solves", 1)
                        clock.advance(0.5)
                    telemetry.count("batch.in_process")
                clock.advance(0.125)
            # A span that never closes: its children outlive it.
            crashed = tracer.span("mc.run", runs=8)
            crashed.__enter__()
            telemetry.count("mc.samples", 8)
            with tracer.span("mc.shard", index=0, lo=0, hi=8):
                telemetry.count("mc.samples_measured", 8)
                clock.advance(0.5)
            clock.advance(0.25)
    return list(tracer.records)


GOLDEN_TREE = """\
cli.table1  3.125 s  [batch.in_process=1, batch.retries=1, batch.tasks=3, solver.solves=10, synthesis.rounds=1]
└─ batch.run (jobs=2, tasks=3)  2.375 s  [batch.in_process=1, batch.retries=1, batch.tasks=3, solver.solves=10, synthesis.rounds=1]
   ├─ batch.task (index=0, label=case.full)  0.750 s  [solver.solves=6, synthesis.rounds=1]
   │  └─ synthesis.round (round=1)  0.250 s  [solver.solves=2, synthesis.rounds=1]
   ├─ batch.task (index=1, label=case.none)  1.500 s  [solver.solves=3]
   └─ batch.task_fallback (index=2, label=case.layout)  0.500 s  [batch.in_process=1, solver.solves=1]
      └─ batch.task (index=2, label=case.layout)  0.500 s  [solver.solves=1]
mc.shard (hi=8, index=0, lo=0)  0.500 s  [mc.samples_measured=8]
counters:
  batch.in_process     1
  batch.retries        1
  batch.tasks          3
  mc.samples           8
  mc.samples_measured  8
  solver.solves        10
  synthesis.rounds     1
gauges:
  pool.workers  2"""

GOLDEN_JSON = """\
{
  "counters": {
    "batch.in_process": 1.0,
    "batch.retries": 1.0,
    "batch.tasks": 3.0,
    "mc.samples": 8.0,
    "mc.samples_measured": 8.0,
    "solver.solves": 10.0,
    "synthesis.rounds": 1.0
  },
  "gauges": {
    "pool.workers": 2.0
  },
  "schema": "repro-trace-summary-v1",
  "spans": {
    "batch.run": {
      "count": 1,
      "total_s": 2.375
    },
    "batch.task": {
      "count": 3,
      "total_s": 2.75
    },
    "batch.task_fallback": {
      "count": 1,
      "total_s": 0.5
    },
    "cli.table1": {
      "count": 1,
      "total_s": 3.125
    },
    "mc.shard": {
      "count": 1,
      "total_s": 0.5
    },
    "synthesis.round": {
      "count": 1,
      "total_s": 0.25
    }
  },
  "tree": [
    {
      "attrs": {},
      "children": [
        {
          "attrs": {
            "jobs": 2,
            "tasks": 3
          },
          "children": [
            {
              "attrs": {
                "index": 0,
                "label": "case.full"
              },
              "children": [
                {
                  "attrs": {
                    "round": 1
                  },
                  "children": [],
                  "counts": {
                    "solver.solves": 2.0,
                    "synthesis.rounds": 1.0
                  },
                  "dur": 0.25,
                  "error": null,
                  "events": [],
                  "name": "synthesis.round",
                  "status": "ok",
                  "t0": 0.5
                }
              ],
              "counts": {
                "solver.solves": 6.0,
                "synthesis.rounds": 1.0
              },
              "dur": 0.75,
              "error": null,
              "events": [
                {
                  "attrs": {
                    "distance": 0.125
                  },
                  "name": "synthesis.round.complete",
                  "t": 0.75
                }
              ],
              "name": "batch.task",
              "status": "ok",
              "t0": 0.0
            },
            {
              "attrs": {
                "index": 1,
                "label": "case.none"
              },
              "children": [],
              "counts": {
                "solver.solves": 3.0
              },
              "dur": 1.5,
              "error": null,
              "events": [],
              "name": "batch.task",
              "status": "ok",
              "t0": 0.75
            },
            {
              "attrs": {
                "index": 2,
                "label": "case.layout"
              },
              "children": [
                {
                  "attrs": {
                    "index": 2,
                    "label": "case.layout"
                  },
                  "children": [],
                  "counts": {
                    "solver.solves": 1.0
                  },
                  "dur": 0.5,
                  "error": null,
                  "events": [],
                  "name": "batch.task",
                  "status": "ok",
                  "t0": 1.75
                }
              ],
              "counts": {
                "batch.in_process": 1.0,
                "solver.solves": 1.0
              },
              "dur": 0.5,
              "error": null,
              "events": [],
              "name": "batch.task_fallback",
              "status": "ok",
              "t0": 1.75
            }
          ],
          "counts": {
            "batch.in_process": 1.0,
            "batch.retries": 1.0,
            "batch.tasks": 3.0,
            "solver.solves": 10.0,
            "synthesis.rounds": 1.0
          },
          "dur": 2.375,
          "error": null,
          "events": [],
          "name": "batch.run",
          "status": "ok",
          "t0": 0.0
        }
      ],
      "counts": {
        "batch.in_process": 1.0,
        "batch.retries": 1.0,
        "batch.tasks": 3.0,
        "solver.solves": 10.0,
        "synthesis.rounds": 1.0
      },
      "dur": 3.125,
      "error": null,
      "events": [],
      "name": "cli.table1",
      "status": "ok",
      "t0": 0.0
    },
    {
      "attrs": {
        "hi": 8,
        "index": 0,
        "lo": 0
      },
      "children": [],
      "counts": {
        "mc.samples_measured": 8.0
      },
      "dur": 0.5,
      "error": null,
      "events": [],
      "name": "mc.shard",
      "status": "ok",
      "t0": 2.375
    }
  ]
}"""

GOLDEN_PROFILE = """\
span                 calls  total (s)  self (s)   self%  p50 (ms)  p95 (ms)
-------------------  -----  ---------  --------  ------  --------  --------
batch.task               3      2.750     2.500   69.0%     750.0    1425.0
cli.table1               1      3.125     0.750   20.7%    3125.0    3125.0
mc.shard                 1      0.500     0.500   13.8%     500.0     500.0
synthesis.round          1      0.250     0.250    6.9%     250.0     250.0
batch.task_fallback      1      0.500     0.000    0.0%     500.0     500.0
batch.run                1      2.375    -0.375  -10.3%    2375.0    2375.0"""

GOLDEN_COLLAPSED = """\
cli.table1 750000
cli.table1;batch.run;batch.task 2000000
cli.table1;batch.run;batch.task;synthesis.round 250000
cli.table1;batch.run;batch.task_fallback;batch.task 500000
mc.shard 500000"""


def test_format_tree():
    assert summarize(_golden_records()).format_tree() == GOLDEN_TREE


def test_format_json():
    assert summarize(_golden_records()).format_json() == GOLDEN_JSON


def test_collapsed_stacks():
    roots = summarize(_golden_records()).roots
    assert format_collapsed(collapsed_stacks(roots)) == GOLDEN_COLLAPSED


def test_profile_cli(tmp_path, capsys):
    trace = str(tmp_path / "golden.jsonl")
    collapsed = str(tmp_path / "golden.folded")
    telemetry.write_jsonl(_golden_records(), trace, name="cli.table1")
    assert main(["profile", trace, "--collapsed", collapsed]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_PROFILE + "\n" + f"collapsed: {collapsed}\n"
    with open(collapsed, encoding="utf-8") as handle:
        assert handle.read() == GOLDEN_COLLAPSED + "\n"


def test_trace_cli(tmp_path, capsys):
    trace = str(tmp_path / "golden.jsonl")
    telemetry.write_jsonl(_golden_records(), trace, name="cli.table1")
    assert main(["trace", trace]) == 0
    assert capsys.readouterr().out == GOLDEN_TREE + "\n"
    assert main(["trace", trace, "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN_JSON + "\n"
