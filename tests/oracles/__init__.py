"""Reference implementations the equivalence tests compare against.

The library runs one engine per layer.  The straightforward per-element
and per-shape implementations it replaced live here, outside ``src/``,
as test oracles:

* :mod:`tests.oracles.analysis` — dense per-element MNA stamping: the
  gmin-ramp/source-stepping DC Newton, per-frequency AC sweeps, per-source
  noise and the Table-1 measurement built from them;
* :mod:`tests.oracles.layout` — per-shape extraction (wire capacitance,
  lateral coupling, diffusion strips), the all-pairs DRC scan and the
  OTA build that draws every fold variant before placement.

Nothing under ``src/`` imports from here.
"""
