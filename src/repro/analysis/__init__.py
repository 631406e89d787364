"""Circuit simulation: DC operating point, AC, noise, performance metrics.

A compact modified-nodal-analysis (MNA) simulator sized for analog cells:

* :mod:`repro.analysis.dcop` — nonlinear DC via damped Newton with gmin
  stepping and source stepping;
* :mod:`repro.analysis.ac` — small-signal frequency sweeps around a DC
  solution;
* :mod:`repro.analysis.noise` — device thermal + flicker noise, referred to
  the input;
* :mod:`repro.analysis.metrics` — OTA-level figures (gain, GBW, phase
  margin, CMRR, slew rate, output resistance, offset, power) matching the
  rows of the paper's Table 1;
* :mod:`repro.analysis.montecarlo` — Pelgrom-mismatch statistical analysis
  (the paper's "statistical analysis to check reliability").

It plays the role the commercial simulator plays in the paper: the
*independent* evaluation of extracted netlists.

One engine backs every analysis: the compiled-stamp engine
(:mod:`repro.analysis.stamps`), which compiles a circuit once into flat
index/value arrays, evaluates MOS devices in batches and solves AC and
noise for all frequencies in one stacked call; ensembles of parameter
vectors (Monte-Carlo samples, process corners) are solved as one stacked
Newton (:mod:`repro.analysis.ensemble`).  The per-element reference it
is tested against lives in ``tests/oracles/analysis.py``.
"""

from repro.analysis.stamps import LinearSystem, StampProgram
from repro.analysis.dcop import DcSolution, solve_dc
from repro.analysis.ac import AcSolution, ac_sweep, transfer_function
from repro.analysis.transfer import TransferFunction
from repro.analysis.noise import NoiseAnalysis, NoiseResult
from repro.analysis.metrics import OtaMetrics, measure_ota
from repro.analysis.montecarlo import MonteCarloResult, run_monte_carlo
from repro.analysis.transient import (
    TransientResult,
    measure_slew_rate,
    run_transient,
    step_waveform,
)

__all__ = [
    "AcSolution",
    "DcSolution",
    "LinearSystem",
    "MonteCarloResult",
    "NoiseAnalysis",
    "NoiseResult",
    "OtaMetrics",
    "StampProgram",
    "TransferFunction",
    "TransientResult",
    "ac_sweep",
    "measure_ota",
    "measure_slew_rate",
    "run_monte_carlo",
    "run_transient",
    "solve_dc",
    "step_waveform",
    "transfer_function",
]
