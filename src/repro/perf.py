"""Performance instrumentation for the analysis and layout paths.

Small, dependency-free timing helpers plus the canonical benchmark
fixtures (the paper's Table-1 specs and the hand-sized folded-cascode
testbench) shared by ``benchmarks/test_perf_*.py`` and the
``python -m repro bench`` subcommand.

The machine-readable output is ``BENCH_analysis.json`` at the repo root:

.. code-block:: json

    {
      "schema": "repro-bench-v2",
      "results": {
        "dc_solve": {"compiled_s": ..., "compiled_p50_s": ...,
                     "compiled_p95_s": ..., "repeat": ...},
        "synthesize_case4_incremental": {"legacy_s": ..., "compiled_s": ...,
                                         "speedup": ..., ...},
        ...
      }
    }

Every entry times one path: ``compiled_*`` is that path's best-of, p50
and p95 wall time, which is what the ``--against`` regression gate
(:func:`check_regressions`) compares.  An entry that measures a switch
the library still has (memo on/off, serial/pooled) or a cold against a
warm state (pool, artifact cache) also records the "before" side as
``legacy_*`` plus the ``speedup``.  The v2 schema adds p50/p95
percentiles next to best-of; :func:`load_bench` still reads v1 records
(which simply lack the percentile keys).
"""

from __future__ import annotations

import json
import time
import warnings
from typing import Any, Callable, Dict, List, Optional

BENCH_SCHEMA = "repro-bench-v2"
#: Older schemas :func:`load_bench` accepts (entries lack p50/p95 keys).
BENCH_COMPAT_SCHEMAS = ("repro-bench-v1",)
BENCH_FILENAME = "BENCH_analysis.json"
#: Schema tag on every line of a ``bench --history`` JSONL file.
BENCH_HISTORY_SCHEMA = "repro-bench-history-v1"


class BenchSkewWarning(UserWarning):
    """A regression comparison skipped entries the two records don't share
    (renamed or newly added benchmarks) — the gate covered less than the
    full suite."""


def _percentile(sorted_samples: list, q: float) -> float:
    """Linear-interpolation percentile of an already sorted sample list."""
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = q * (len(sorted_samples) - 1)
    lo = int(position)
    hi = min(lo + 1, len(sorted_samples) - 1)
    fraction = position - lo
    return sorted_samples[lo] * (1.0 - fraction) + sorted_samples[hi] * fraction


def time_call(
    fn: Callable[[], Any], repeat: int = 3, warmup: int = 1
) -> Dict[str, float]:
    """Best-of-``repeat`` wall-clock timing of ``fn()``.

    Returns ``{"best_s": ..., "mean_s": ..., "p50_s": ..., "p95_s": ...,
    "repeat": ...}``.  Best-of is the robust statistic for latency
    benchmarks — the minimum is the run least disturbed by the OS; the
    percentiles expose the tail the minimum hides.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    ordered = sorted(samples)
    return {
        "best_s": ordered[0],
        "mean_s": sum(samples) / len(samples),
        "p50_s": _percentile(ordered, 0.50),
        "p95_s": _percentile(ordered, 0.95),
        "repeat": float(repeat),
    }


def _timing_entry(timing: Dict[str, float]) -> Dict[str, float]:
    """A one-sided v2 record entry from one :func:`time_call` result.

    ``repeat`` is the number of timed samples behind the percentiles
    (records written before it was added lack the key, and every reader
    accepts them).
    """
    return {
        "compiled_s": timing["best_s"],
        "compiled_p50_s": timing["p50_s"],
        "compiled_p95_s": timing["p95_s"],
        "repeat": timing["repeat"],
    }


def _engine_entry(
    legacy: Dict[str, float], compiled: Dict[str, float]
) -> Dict[str, float]:
    """A before/after v2 record entry from two :func:`time_call` results.

    ``legacy`` is the "before" side (memo off, serial batch, cold pool,
    cold cache) and ``compiled`` the path the gate tracks; the
    keys stay the same so every entry renders through
    :func:`format_bench_table`.
    """
    entry = _timing_entry(compiled)
    entry.update(
        {
            "legacy_s": legacy["best_s"],
            "legacy_p50_s": legacy["p50_s"],
            "legacy_p95_s": legacy["p95_s"],
            "repeat": min(legacy["repeat"], compiled["repeat"]),
            "speedup": legacy["best_s"] / compiled["best_s"]
            if compiled["best_s"] > 0
            else float("inf"),
        }
    )
    return entry


def write_bench(results: Dict[str, Dict[str, float]], path: str) -> None:
    """Write the machine-readable benchmark record (atomically: the
    record doubles as a CI regression baseline, so a crash mid-write must
    never leave a truncated JSON file behind)."""
    from repro.ioutil import atomic_write

    payload = {"schema": BENCH_SCHEMA, "results": results}
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench(path: str) -> Dict[str, Dict[str, float]]:
    """Read a benchmark record written by :func:`write_bench`.

    Accepts the current schema and every entry of
    :data:`BENCH_COMPAT_SCHEMAS` — a v1 record loads fine, its entries
    just lack the percentile keys v2 added.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA and schema not in BENCH_COMPAT_SCHEMAS:
        raise ValueError(f"unrecognized bench schema in {path!r}")
    return payload["results"]


def check_regressions(
    fresh: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    threshold: float = 0.25,
    skipped: Optional[List[str]] = None,
    floor_s: float = 1e-3,
) -> Dict[str, Dict[str, float]]:
    """Compiled-path entries of ``fresh`` slower than ``baseline``.

    Compares ``compiled_p50_s`` (the representative latency; best-of is
    too flattering, p95 too noisy for a gate) per entry present in both
    records and returns ``{name: {"fresh_p50_s", "baseline_p50_s",
    "ratio"}}`` for every entry more than ``threshold`` slower — empty
    means the gate passes.  An entry present in only one of the two
    records (a renamed or newly added benchmark) is *skipped*, not
    compared: a :class:`BenchSkewWarning` names it, and when the caller
    passes a ``skipped`` list the names are appended there so the CLI
    can report exactly what the gate did not cover.  A baseline without
    percentile keys (v1 schema) falls back to best-of.

    Both p50s are clamped up to ``floor_s`` before the ratio: entries
    faster than the floor (cache-hit paths land in microseconds) sit at
    the timer's noise level, where a 25% ratio gate would flag pure
    jitter rather than a regression.
    """
    missing = sorted(set(fresh) ^ set(baseline))
    if missing:
        if skipped is not None:
            skipped.extend(missing)
        warnings.warn(
            f"bench comparison skipped {len(missing)} entr"
            f"{'y' if len(missing) == 1 else 'ies'} present in only one "
            f"record: {', '.join(missing)}",
            BenchSkewWarning,
            stacklevel=2,
        )
    regressions: Dict[str, Dict[str, float]] = {}
    for name, entry in sorted(fresh.items()):
        base = baseline.get(name)
        if base is None:
            continue
        fresh_p50 = entry.get("compiled_p50_s", entry.get("compiled_s"))
        base_p50 = base.get("compiled_p50_s", base.get("compiled_s"))
        if not fresh_p50 or not base_p50:
            continue
        ratio = max(fresh_p50, floor_s) / max(base_p50, floor_s)
        if ratio > 1.0 + threshold:
            regressions[name] = {
                "fresh_p50_s": fresh_p50,
                "baseline_p50_s": base_p50,
                "ratio": ratio,
            }
    return regressions


# -- Run-over-run history ----------------------------------------------------


def append_history(
    results: Dict[str, Dict[str, float]],
    path: str,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """Append one run's results to a JSONL bench history file.

    Each line is self-describing — ``{"schema", "timestamp",
    "results"}`` — so the file survives partial writes (a truncated tail
    line is skipped by :func:`load_history`, everything before it loads).
    Returns the appended entry.
    """
    entry: Dict[str, Any] = {
        "schema": BENCH_HISTORY_SCHEMA,
        "timestamp": time.time() if timestamp is None else timestamp,
        "results": results,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str) -> List[Dict[str, Any]]:
    """Every well-formed entry of a bench history file, oldest first.

    Lines that do not parse or carry a foreign schema raise ``ValueError``
    with the line number — except a truncated *final* line (a run killed
    mid-append), which is dropped silently: everything durably written
    before it is still a valid history.
    """
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            if line_no == len(lines):
                break  # torn tail from a killed append; keep the rest
            raise ValueError(
                f"{path}:{line_no}: malformed bench history line"
            ) from None
        if entry.get("schema") != BENCH_HISTORY_SCHEMA:
            raise ValueError(
                f"{path}:{line_no}: expected schema "
                f"{BENCH_HISTORY_SCHEMA!r}, got {entry.get('schema')!r}"
            )
        entries.append(entry)
    return entries


def check_history_regressions(
    results: Dict[str, Dict[str, float]],
    path: str,
    threshold: float = 0.25,
    skipped: Optional[List[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Run-over-run p50 check of ``results`` against the *latest* entry
    of the history at ``path`` (empty dict when there is no history yet
    or no entry regressed past ``threshold``)."""
    try:
        history = load_history(path)
    except FileNotFoundError:
        return {}
    if not history:
        return {}
    return check_regressions(
        results, history[-1]["results"], threshold=threshold, skipped=skipped
    )


def format_bench_table(results: Dict[str, Dict[str, float]]) -> str:
    """Human-readable table for the CLI; ``-`` marks an entry without a
    "before" side."""
    rows = [("benchmark", "before", "time", "speedup")]
    for name in sorted(results):
        entry = results[name]
        one_sided = "legacy_s" not in entry
        rows.append(
            (
                name,
                "-" if one_sided else f"{entry['legacy_s'] * 1e3:.1f} ms",
                f"{entry['compiled_s'] * 1e3:.1f} ms",
                "-" if one_sided else f"{entry['speedup']:.2f}x",
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        )
        if i == 0:
            lines.append("  ".join("-" * widths[col] for col in range(4)))
    return "\n".join(lines)


# -- Canonical benchmark fixtures -------------------------------------------------


def table1_specs():
    """The paper's Table-1 input specifications (case-4 synthesis input)."""
    from repro.sizing.specs import OtaSpecs
    from repro.units import PF

    return OtaSpecs(
        vdd=3.3,
        gbw=65e6,
        phase_margin=65.0,
        cload=3 * PF,
        input_cm_range=(0.55, 1.84),
        output_range=(0.51, 2.31),
    )


def default_testbench(technology=None):
    """The hand-sized folded-cascode testbench used across the benchmarks.

    Mirrors the ``hand_testbench`` fixture in ``tests/conftest.py`` so the
    bench exercises exactly the circuit the tier-1 suite measures.
    """
    from repro.circuit.topologies import (
        DeviceSize,
        FoldedCascodeDesign,
        build_folded_cascode,
    )
    from repro.mos import make_model, width_for_current
    from repro.technology import generic_060
    from repro.units import PF, UM

    tech = technology if technology is not None else generic_060()
    mn = make_model(tech.nmos, 1)
    mp = make_model(tech.pmos, 1)
    length = 1.0 * UM
    i_tail, i_sink = 200e-6, 200e-6
    i_casc = i_sink - i_tail / 2.0

    def w(model, current, veff):
        return width_for_current(model, current, length, veff)

    sizes = {
        "mp1": (w(mp, i_tail / 2, 0.2), length),
        "mp2": (w(mp, i_tail / 2, 0.2), length),
        "mp5": (w(mp, i_tail, 0.25), length),
        "mn5": (w(mn, i_sink, 0.25), length),
        "mn6": (w(mn, i_sink, 0.25), length),
        "mn1c": (w(mn, i_casc, 0.2), length),
        "mn2c": (w(mn, i_casc, 0.2), length),
        "mp3": (w(mp, i_casc, 0.25), length),
        "mp4": (w(mp, i_casc, 0.25), length),
        "mp3c": (w(mp, i_casc, 0.2), length),
        "mp4c": (w(mp, i_casc, 0.2), length),
    }
    vdd = 3.3
    veff_sink, veff_ncas, veff_mirror, veff_pcas = 0.25, 0.2, 0.25, 0.2
    veff_tail = 0.25
    fold = veff_sink + 0.15
    x_node = vdd - veff_mirror - 0.15
    biases = {
        "vbn": mn.threshold(0.0) + veff_sink,
        "vc1": fold + mn.threshold(fold) + veff_ncas,
        "vp1": vdd - (mp.threshold(0.0) + veff_tail),
        "vc3": x_node - (mp.threshold(vdd - x_node) + veff_pcas),
    }
    design = FoldedCascodeDesign(
        technology=tech,
        sizes={name: DeviceSize(w=w, l=l) for name, (w, l) in sizes.items()},
        biases=biases,
        vdd=vdd,
        vcm=1.2,
        cload=3 * PF,
    )
    return build_folded_cascode(design)


def hand_ota_layout(technology=None):
    """A generated (case-4 style) OTA layout for the layout benchmarks.

    Mirrors the ``ota_layout`` fixture in ``tests/conftest.py``: the same
    hand-sized folded-cascode design as :func:`default_testbench`, run
    through the layout generator in generate mode, so the layout
    benchmarks time exactly the cell the tier-1 suite extracts.
    """
    from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
    from repro.mos import make_model, width_for_current
    from repro.technology import generic_060
    from repro.units import UM

    tech = technology if technology is not None else generic_060()
    mn = make_model(tech.nmos, 1)
    mp = make_model(tech.pmos, 1)
    length = 1.0 * UM
    i_tail, i_sink = 200e-6, 200e-6
    i_casc = i_sink - i_tail / 2.0

    def w(model, current, veff):
        return width_for_current(model, current, length, veff)

    sizes = {
        "mp1": (w(mp, i_tail / 2, 0.2), length),
        "mp2": (w(mp, i_tail / 2, 0.2), length),
        "mp5": (w(mp, i_tail, 0.25), length),
        "mn5": (w(mn, i_sink, 0.25), length),
        "mn6": (w(mn, i_sink, 0.25), length),
        "mn1c": (w(mn, i_casc, 0.2), length),
        "mn2c": (w(mn, i_casc, 0.2), length),
        "mp3": (w(mp, i_casc, 0.25), length),
        "mp4": (w(mp, i_casc, 0.25), length),
        "mp3c": (w(mp, i_casc, 0.2), length),
        "mp4c": (w(mp, i_casc, 0.2), length),
    }
    currents = {
        "mp1": i_tail / 2, "mp2": i_tail / 2, "mp5": i_tail,
        "mn5": i_sink, "mn6": i_sink,
        "mn1c": i_casc, "mn2c": i_casc,
        "mp3": i_casc, "mp4": i_casc, "mp3c": i_casc, "mp4c": i_casc,
    }
    request = OtaLayoutRequest(
        technology=tech, sizes=sizes, currents=currents, aspect=1.0
    )
    return generate_ota_layout(request, mode="generate")


def two_stage_testbench(technology=None):
    """A hand-sized Miller two-stage OTA testbench.

    The second topology of the oracle-equivalence suite: it exercises the
    compiled engine on a different device count, a compensation network
    (Miller cap) and an NMOS-input stage.
    """
    from repro.circuit.topologies import (
        DeviceSize,
        TwoStageDesign,
        build_two_stage,
    )
    from repro.mos import make_model
    from repro.technology import generic_060
    from repro.units import PF, UM

    tech = technology if technology is not None else generic_060()
    mn = make_model(tech.nmos, 1)
    design = TwoStageDesign(
        technology=tech,
        sizes={
            "m1": DeviceSize(w=30 * UM, l=1 * UM),
            "m2": DeviceSize(w=30 * UM, l=1 * UM),
            "m3": DeviceSize(w=15 * UM, l=1 * UM),
            "m4": DeviceSize(w=15 * UM, l=1 * UM),
            "m5": DeviceSize(w=30 * UM, l=1 * UM),
            "m6": DeviceSize(w=120 * UM, l=0.8 * UM),
            "m7": DeviceSize(w=60 * UM, l=0.8 * UM),
        },
        vbn=mn.threshold(0.0) + 0.2,
        vdd=3.3,
        vcm=1.4,
        cload=3 * PF,
        cc=0.8 * PF,
    )
    return build_two_stage(design)


# -- The benchmark suite ----------------------------------------------------------


def run_benchmarks(
    repeat: int = 3,
    include_synthesis: bool = True,
    mc_runs: int = 50,
) -> Dict[str, Dict[str, float]]:
    """Time the canonical analysis workloads.

    Workloads: one feedback DC solve, a 200-point AC sweep, a
    ``mc_runs``-sample and a 200-sample Monte-Carlo offset analysis, the
    five-corner ensemble measurement and (unless disabled) the full
    Table-1 case-4 ``LayoutOrientedSynthesizer.run``, from scratch and
    with the memo warm.  Returns the :func:`write_bench`-ready mapping.
    """
    import numpy as np

    from repro.analysis.ac import ac_sweep
    from repro.analysis.dcop import solve_dc
    from repro.analysis.ensemble import measure_ota_ensemble
    from repro.analysis.montecarlo import run_monte_carlo
    from repro.sizing.plans.folded_cascode import FoldedCascodePlan
    from repro.technology import generic_060
    from repro.technology.corners import corner_set

    tb = default_testbench()
    feedback = tb.circuit.clone("bench_fb")
    feedback.remove(tb.source_neg)
    feedback.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    dc = solve_dc(feedback)
    frequencies = np.logspace(0.0, 9.0, 200)
    drive = {tb.source_pos: 0.5, "_fb": 0.0}

    tech = generic_060()
    specs = table1_specs()
    sizing = FoldedCascodePlan(tech).size(specs)
    benches = [
        FoldedCascodePlan(corner_tech).build_testbench(sizing, specs)
        for corner_tech in corner_set(tech).values()
    ]

    workloads = {
        "dc_solve": lambda: solve_dc(feedback),
        "ac_sweep_200": lambda: ac_sweep(feedback, dc, frequencies, drive),
        f"monte_carlo_{mc_runs}": lambda: run_monte_carlo(
            tb, runs=mc_runs, seed=1234
        ),
        "monte_carlo_200_ensemble": lambda: run_monte_carlo(
            tb, runs=200, seed=1234
        ),
        "corners_batch_ensemble": lambda: measure_ota_ensemble(benches),
    }
    results: Dict[str, Dict[str, float]] = {
        name: _timing_entry(time_call(fn, repeat=repeat))
        for name, fn in workloads.items()
    }
    if include_synthesis:
        from repro.core.synthesis import LayoutOrientedSynthesizer
        from repro.layout import incremental
        from repro.sizing.specs import ParasiticMode

        def synthesize():
            synthesizer = LayoutOrientedSynthesizer(
                tech, plan=FoldedCascodePlan(tech)
            )
            return synthesizer.run(
                specs, mode=ParasiticMode.FULL, generate=True
            )

        # ``synthesize_case4`` is the cold loop (memo off, so warm
        # repeats cannot skip the physics); ``_incremental`` pairs it
        # with the memo on.  The warmup call inside time_call fills the
        # stores, so the timed incremental repeats measure the warm loop
        # — the case the sizing<->layout iteration hits from round two
        # onward.
        synth_repeat = max(1, repeat - 1)
        incremental.clear()
        with incremental.using(False):
            scratch = time_call(synthesize, repeat=synth_repeat)
        incremental.clear()
        with incremental.using(True):
            differential = time_call(synthesize, repeat=synth_repeat)
        incremental.clear()
        results["synthesize_case4"] = _timing_entry(scratch)
        results["synthesize_case4_incremental"] = _engine_entry(
            scratch, differential
        )
    return results


def run_layout_benchmarks(
    repeat: int = 3, batch_jobs: int = 0
) -> Dict[str, Dict[str, float]]:
    """Time the layout-path workloads.

    ``layout_extract`` times geometric extraction (memo off) and
    ``layout_drc`` the design-rule check of the generated case-4 OTA
    cell; ``extraction_incremental`` pairs memo-off extraction with warm
    per-module memo hits.  With ``batch_jobs >= 2``,
    ``table1_batch_jobs{N}`` additionally compares a serial four-case
    Table-1 batch against the ``--jobs N`` process pool — only
    meaningful on a multi-core host (one core makes the pool pure
    overhead).
    """
    from repro.layout import incremental
    from repro.layout.drc import DrcChecker
    from repro.layout.extraction import extract_cell
    from repro.technology import generic_060

    tech = generic_060()
    cell = hand_ota_layout(tech).cell
    checker = DrcChecker(tech)

    results: Dict[str, Dict[str, float]] = {}
    incremental.clear()
    with incremental.using(False):
        scratch = time_call(lambda: extract_cell(cell, tech), repeat=repeat)
    results["layout_extract"] = _timing_entry(scratch)
    results["layout_drc"] = _timing_entry(
        time_call(lambda: checker.check(cell), repeat=repeat)
    )

    # Differential extraction: the same cell served per-module from the
    # content-keyed store (the warmup fills it).
    incremental.clear()
    with incremental.using(True):
        warm = time_call(lambda: extract_cell(cell, tech), repeat=repeat)
    incremental.clear()
    results["extraction_incremental"] = _engine_entry(scratch, warm)

    if batch_jobs >= 2:
        from repro.core.batch import BatchTask, run_batch
        from repro.sizing.specs import ParasiticMode

        specs = table1_specs()
        tasks = [
            BatchTask(kind="case", technology="0.6um", specs=specs,
                      mode=mode.name)
            for mode in ParasiticMode
        ]
        serial = time_call(
            lambda: run_batch(tasks, jobs=1), repeat=1, warmup=0
        )
        parallel = time_call(
            lambda: run_batch(tasks, jobs=batch_jobs), repeat=1, warmup=0
        )
        results[f"table1_batch_jobs{batch_jobs}"] = _engine_entry(
            serial, parallel
        )
    return results


def _sample_entry(samples: List[float]) -> Dict[str, float]:
    """A :func:`time_call`-shaped stats dict from raw second samples."""
    ordered = sorted(samples)
    return {
        "best_s": ordered[0],
        "mean_s": sum(samples) / len(samples),
        "p50_s": _percentile(ordered, 0.50),
        "p95_s": _percentile(ordered, 0.95),
        "repeat": float(len(samples)),
    }


def run_runtime_benchmarks(repeat: int = 3) -> Dict[str, Dict[str, float]]:
    """Time the persistent-runtime wins (the ``repro.runtime`` stack).

    ``mc_dispatch_overhead`` runs the same 4-worker Monte-Carlo dispatch
    against a cold pool (``runtime_pool.shutdown()`` before every timed
    call; ``legacy`` column) and against the warm persistent pool
    (``compiled`` column), so the speedup is pure pool start-up and
    payload shipping — the physics per shard is identical and results
    are bit-identical either way.

    ``table1_warm_vs_cold`` runs two cheap Table-1 cases against an
    empty cross-run artifact cache (``legacy``) and then re-runs them
    against the now-populated cache (``compiled``): the warm run is
    served from disk without re-synthesizing.
    """
    import tempfile

    from repro.analysis.montecarlo import run_monte_carlo
    from repro.runtime import artifacts
    from repro.runtime import pool as runtime_pool

    tb = default_testbench()

    def mc():
        return run_monte_carlo(tb, runs=64, seed=1234, workers=4)

    # Cold pool: every timed call pays four process spawns plus the
    # testbench payload and the compiled-state build in every worker;
    # the shutdown that makes it cold stays outside the timing.
    cold_pool: List[float] = []
    for _ in range(repeat):
        runtime_pool.shutdown()
        start = time.perf_counter()
        mc()
        cold_pool.append(time.perf_counter() - start)
    # Warm pool: the warmup call creates the pool and ships the
    # compiled-state payload once; the timed calls measure reuse.
    runtime_pool.shutdown()
    warm_pool = time_call(mc, repeat=repeat, warmup=1)
    results = {
        "mc_dispatch_overhead": _engine_entry(
            _sample_entry(cold_pool), warm_pool
        )
    }

    from repro.core.batch import BatchTask, run_batch

    specs = table1_specs()
    tasks = [
        BatchTask(kind="case", technology="0.6um", specs=specs, mode=mode)
        for mode in ("NONE", "SINGLE_FOLD")
    ]
    cold_samples: List[float] = []
    warm_samples: List[float] = []
    for _ in range(max(1, repeat - 1)):
        # A fresh cache root per iteration keeps every cold sample
        # genuinely cold; the warm sample re-runs the identical batch
        # against the cache the cold run just filled.
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
            with artifacts.using(root):
                start = time.perf_counter()
                run_batch(tasks, jobs=1)
                cold_samples.append(time.perf_counter() - start)
                start = time.perf_counter()
                run_batch(tasks, jobs=1)
                warm_samples.append(time.perf_counter() - start)
    results["table1_warm_vs_cold"] = _engine_entry(
        _sample_entry(cold_samples), _sample_entry(warm_samples)
    )
    return results
