"""Persistent executor runtime (DESIGN.md §10).

Three layers that amortize dispatch cost across runs in one process and
across processes on one machine:

- :mod:`repro.runtime.pool` — a process-wide persistent
  ``ProcessPoolExecutor`` plus the shared dispatch engine (pickle
  pre-validation, bounded resubmission, in-process fallback, journal
  drain) that ``core/batch.py`` and ``analysis/montecarlo.py`` are thin
  clients of, and the worker-resident content-keyed object cache.
- :mod:`repro.runtime.shm` — shared-memory transport for pre-drawn
  Monte-Carlo sample matrices with guaranteed unlink on success,
  failure, and signal-driven shutdown.
- :mod:`repro.runtime.artifacts` — a content-addressed on-disk cache
  for whole layout calls and case results, so a repeated
  ``table1`` run is served warm.

Every layer degrades cleanly to the previous per-run behavior when
disabled (``--no-persistent-pool``, ``REPRO_NO_SHM``, no
``--cache-dir``), and results are bit-identical either way.
"""

from repro.runtime import artifacts, pool, shm

__all__ = ["artifacts", "pool", "shm"]
