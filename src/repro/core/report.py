"""Table-1-style reporting.

Formats case results as the paper does: one row per specification, one
column per case, each entry ``synthesized(extracted)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import OtaMetrics
from repro.core.cases import CaseResult

#: (label, attribute, scale, format) — the rows of Table 1.
TABLE1_ROWS: Tuple[Tuple[str, str, float, str], ...] = (
    ("DC gain (dB)", "dc_gain_db", 1.0, "{:.1f}"),
    ("GBW (MHz)", "gbw", 1e-6, "{:.1f}"),
    ("Phase margin (degrees)", "phase_margin_deg", 1.0, "{:.1f}"),
    ("Slew rate (V/us)", "slew_rate", 1e-6, "{:.1f}"),
    ("CMRR (dB)", "cmrr_db", 1.0, "{:.1f}"),
    ("Offset voltage (mV)", "offset_voltage", 1e3, "{:.2f}"),
    ("Output resistance (Mohm)", "output_resistance", 1e-6, "{:.2f}"),
    ("Input noise voltage (uV)", "input_noise_rms", 1e6, "{:.1f}"),
    ("Thermal noise density (nV/rtHz)", "thermal_noise_density", 1e9, "{:.2f}"),
    ("Flicker noise (uV/rtHz)", "flicker_noise_density", 1e6, "{:.2f}"),
    ("Power dissipation (mW)", "power", 1e3, "{:.2f}"),
)

#: Footnote under a table with a marked (``*``) sizing-time cell.
SERVED_FOOTNOTE = (
    "* some sizing rounds were served from the sizing memo, a journal or "
    "the disk cache; the time excludes them"
)


def metrics_rows(metrics: OtaMetrics) -> Dict[str, float]:
    """Scaled Table-1 row values for one measurement."""
    return {
        label: getattr(metrics, attribute) * scale
        for label, attribute, scale, _fmt in TABLE1_ROWS
    }


def format_table1(results: Sequence[CaseResult], title: str = "Table 1") -> str:
    """Render case results in the paper's layout.

    Every cell is ``synthesized(extracted)``, matching the paper's
    "values between brackets are obtained from layout generation,
    extraction and simulation".  A sizing time whose case had sizing
    rounds served rather than computed is marked ``*`` and footnoted.
    """
    header = [f"{title}"]
    label_width = max(len(row[0]) for row in TABLE1_ROWS) + 2
    column_width = 18

    head_cells = "".join(
        f"{result.label:>{column_width}}" for result in results
    )
    header.append(f"{'Specification':<{label_width}}{head_cells}")
    header.append("-" * (label_width + column_width * len(results)))

    lines: List[str] = []
    for label, attribute, scale, fmt in TABLE1_ROWS:
        cells = []
        for result in results:
            synthesized = getattr(result.synthesized, attribute) * scale
            extracted = getattr(result.extracted, attribute) * scale
            cells.append(
                f"{fmt.format(synthesized)}({fmt.format(extracted)})"
            )
        row_cells = "".join(f"{cell:>{column_width}}" for cell in cells)
        lines.append(f"{label:<{label_width}}{row_cells}")

    footer = [
        "-" * (label_width + column_width * len(results)),
        f"{'Layout tool calls':<{label_width}}"
        + "".join(
            f"{result.layout_calls:>{column_width}}" for result in results
        ),
        f"{'Sizing time (s)':<{label_width}}"
        + "".join(
            f"{_sizing_time(result):>{column_width}}" for result in results
        ),
    ]
    if any(result.sizing_served for result in results):
        footer.append(SERVED_FOOTNOTE)
    return "\n".join(header + lines + footer)


def _sizing_time(result: CaseResult) -> str:
    """Sizing-time cell, marked ``*`` when some round was not computed."""
    mark = "*" if result.sizing_served else ""
    return f"{result.elapsed:.1f}{mark}"
