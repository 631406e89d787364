"""Persistent executor runtime (DESIGN.md §10).

Two layers that amortize dispatch cost across runs in one process and
across processes on one machine:

- :mod:`repro.runtime.pool` — a process-wide persistent
  ``ProcessPoolExecutor`` plus the shared dispatch engine (pickle
  pre-validation, bounded resubmission, in-process fallback, journal
  drain) that ``core/batch.py`` and ``analysis/montecarlo.py`` are thin
  clients of.  Workers hold no state between units.
- :mod:`repro.runtime.artifacts` — a content-addressed on-disk cache
  for whole layout calls and case results, so a repeated
  ``table1`` run is served warm.

Results are bit-identical whether the pool is cold or warm and with or
without ``--cache-dir``.
"""

from repro.runtime import artifacts, pool

__all__ = ["artifacts", "pool"]
