"""Executor runtime: persistent pool and artifact cache.

The contracts under test: the persistent executor is reused across
dispatches and discarded whenever it may be wedged; Monte-Carlo samples
are bit-identical for any worker count, for a cold or warm pool, and
across testbenches sharing one warm pool; and the cross-run artifact
cache serves bit-identical results (warm and cold fingerprints equal)
while self-healing corrupt entries.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.core.batch import BatchTask, run_batch
from repro.resilience.journal import RunJournal
from repro.runtime import artifacts
from repro.runtime import pool as runtime_pool
from repro.sizing.specs import ParasiticMode


def _case_tasks(specs, modes=(ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)):
    return [
        BatchTask(kind="case", technology="0.6um", specs=specs,
                  mode=mode.name)
        for mode in modes
    ]


# ---------------------------------------------------------------------------
# Persistent pool lifecycle
# ---------------------------------------------------------------------------


class TestPersistentPool:
    def test_release_keeps_pool_warm_across_acquires(self):
        """A clean round just drops its lease; the next acquire gets
        the same warm executor."""
        runtime_pool.shutdown()
        first = runtime_pool.acquire(2)
        generation = first.generation
        assert generation == runtime_pool.pool_generation() > 0
        second = runtime_pool.acquire(2)
        assert second.generation == generation
        assert second.executor is first.executor
        runtime_pool.shutdown()

    def test_bigger_request_replaces_pool(self):
        runtime_pool.shutdown()
        small = runtime_pool.acquire(1)
        grown = runtime_pool.acquire(3)
        assert grown.generation == small.generation + 1
        # A smaller follow-up request fits the grown pool.
        again = runtime_pool.acquire(2)
        assert again.generation == grown.generation
        runtime_pool.shutdown()

    def test_discard_forces_fresh_generation(self):
        runtime_pool.shutdown()
        lease = runtime_pool.acquire(1)
        lease.discard(wait=True)
        assert runtime_pool.pool_generation() == 0
        fresh = runtime_pool.acquire(1)
        assert fresh.generation == lease.generation + 1
        runtime_pool.shutdown()

    def test_worker_forked_under_shutdown_guard_dies_on_sigterm(
        self, tmp_path
    ):
        """The guard's SIGTERM handler is the parent's: a worker forked
        while it is installed still exits on a plain ``kill``."""
        runtime_pool.shutdown()
        with RunJournal.create(str(tmp_path), "demo") as journal:
            with journal.shutdown_guard():
                lease = runtime_pool.acquire(1)
                worker_pid = lease.executor.submit(os.getpid).result()
                (worker,) = lease.executor._processes.values()
                assert worker.pid == worker_pid
                os.kill(worker_pid, signal.SIGTERM)
                # Poll rather than join once for a fixed second: on a
                # loaded host the signalled worker can take longer to be
                # reaped.
                deadline = time.monotonic() + 10.0
                while (
                    worker.exitcode is None and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                exitcode = worker.exitcode
                if exitcode is None:  # survived: do not leak it
                    worker.kill()
                    worker.join()
                runtime_pool.shutdown(wait=False)
        assert exitcode == -signal.SIGTERM
        assert not journal.interrupted

    def test_workers_exit_when_parent_crashes(self, tmp_path):
        """A parent killed outright never shuts its pool down; its
        workers notice the re-parenting and exit on their own."""
        import subprocess
        import sys
        import time

        script = tmp_path / "crash.py"
        script.write_text(
            "import os, sys\n"
            "from repro.runtime import pool\n"
            "lease = pool.acquire(2)\n"
            "lease.executor.submit(os.getpid).result()\n"
            "print(' '.join(map(str, lease.executor._processes)))\n"
            "sys.stdout.flush()\n"
            "os._exit(137)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        # Output goes to a file, not a pipe: surviving workers would hold
        # a pipe open and stall the read past the parent's exit.
        out = tmp_path / "workers.txt"
        with open(out, "w") as handle:
            done = subprocess.run(
                [sys.executable, str(script)], env=env,
                stdout=handle, stderr=subprocess.STDOUT, timeout=60,
            )
        workers = [int(pid) for pid in out.read_text().split()[:2]]
        assert done.returncode == 137, out.read_text()
        assert len(workers) == 2

        def alive(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"  # an unreaped zombie has exited

        deadline = time.monotonic() + 5.0
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if alive(pid)]
        for pid in survivors:  # do not leak them past the test
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    def test_mc_runs_reuse_one_pool(self, hand_testbench):
        runtime_pool.shutdown()
        first = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=2)
        generation = runtime_pool.pool_generation()
        assert generation > 0
        second = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=2)
        assert runtime_pool.pool_generation() == generation
        assert first.samples == second.samples
        assert all(s.status == "ok" for s in second.shards)
        runtime_pool.shutdown()


# ---------------------------------------------------------------------------
# Monte-Carlo determinism across worker counts and pool states
# ---------------------------------------------------------------------------


class TestShmDeterminism:
    """Monte-Carlo samples are bit-identical for any worker count, for a
    cold or warm pool, and whatever testbench the pool ran before.

    The class keeps its original name so its test ids stay stable; the
    shared-memory transport it once covered is gone, and every pooled
    shard now ships its pickled testbench."""

    @pytest.fixture(scope="class")
    def baseline(self, hand_testbench):
        return run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shipped_before", [True, False])
    def test_bit_identical_for_any_transport_and_worker_count(
        self, hand_testbench, baseline, workers, shipped_before
    ):
        """Every shard carries the full pickled testbench: samples are
        equal whether the pool's workers measured this testbench before
        or start fresh."""
        if workers > 1:
            if shipped_before:
                run_monte_carlo(hand_testbench, runs=8, seed=7,
                                workers=workers)
            else:
                runtime_pool.shutdown()
        generation = runtime_pool.pool_generation()
        result = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                 workers=workers)
        if workers > 1:
            # The warm pool is reused; a shut-down pool is re-created.
            assert (runtime_pool.pool_generation() == generation) == \
                shipped_before
        assert result.samples == baseline.samples  # bit-identical
        assert result.mean("offset_voltage") == \
            baseline.mean("offset_voltage")
        assert result.std("offset_voltage") == baseline.std("offset_voltage")

    @pytest.mark.parametrize("warm_pool", [True, False])
    def test_bit_identical_for_any_pool_mode(
        self, hand_testbench, baseline, warm_pool
    ):
        if warm_pool:
            runtime_pool.acquire(2)
        else:
            runtime_pool.shutdown()
        generation = runtime_pool.pool_generation()
        result = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=2)
        # A warm pool is reused; a cold start creates a new generation.
        assert (runtime_pool.pool_generation() == generation) == warm_pool
        assert result.samples == baseline.samples

    @pytest.mark.faults
    def test_nominal_solved_once_per_run(
        self, hand_testbench, baseline, monkeypatch
    ):
        """The serial path compiles and solves once; a pooled run solves
        the nominal operating point once in the parent and every shard,
        pooled or recovered in-process, only compiles."""
        from repro.analysis import montecarlo
        from repro.resilience import faults

        unsolved = montecarlo._UNSOLVED
        solves = []
        build = montecarlo._CompiledOffset.__init__

        def counting(offset, tb, names, nominal=unsolved):
            solves.append(nominal is unsolved)
            build(offset, tb, names, nominal)

        monkeypatch.setattr(montecarlo._CompiledOffset, "__init__", counting)
        serial = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)
        assert solves == [True]
        assert serial.samples == baseline.samples
        solves.clear()
        pooled = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=4)
        assert solves == [True]  # the shards compiled in the workers
        assert pooled.samples == baseline.samples
        solves.clear()
        with faults.inject("mc.worker", index=0, times=3):
            recovered = run_monte_carlo(
                hand_testbench, runs=8, seed=7, workers=2,
                max_shard_retries=1,
            )
        # The other shard recovers in-process too when the crash takes
        # the pool down before it finished.
        statuses = [s.status for s in recovered.shards]
        assert statuses[0] == "in-process"
        assert solves == [True] + [False] * statuses.count("in-process")
        assert recovered.samples == baseline.samples
        runtime_pool.shutdown()

    def test_alternating_testbenches_on_one_warm_pool(
        self, hand_testbench, baseline
    ):
        """Each pooled call carries its own testbench: a warm pool that
        just measured one design leaves nothing behind that another
        design's shards could pick up."""
        from tests.designs import two_stage_testbench

        other = two_stage_testbench()
        other_baseline = run_monte_carlo(other, runs=8, seed=7, workers=1)
        assert other_baseline.samples != baseline.samples
        runtime_pool.shutdown()
        generations = set()
        for _ in range(2):
            for tb, expected in (
                (hand_testbench, baseline), (other, other_baseline),
            ):
                result = run_monte_carlo(tb, runs=8, seed=7, workers=2)
                generations.add(runtime_pool.pool_generation())
                assert result.samples == expected.samples
                assert all(s.status == "ok" for s in result.shards)
        assert len(generations) == 1  # one warm pool served all four
        runtime_pool.shutdown()


# ---------------------------------------------------------------------------
# Cross-run artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        key = artifacts.cache_key("unit", {"x": 1.5}, ParasiticMode.NONE)
        assert cache.get("unit", key) is None
        assert cache.put("unit", key, {"value": 42})
        assert cache.get("unit", key) == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_content_key_is_stable_and_discriminating(self):
        a = artifacts.cache_key("kind", {"w": 1.0, "l": 2.0})
        b = artifacts.cache_key("kind", {"l": 2.0, "w": 1.0})
        c = artifacts.cache_key("kind", {"w": 1.0, "l": 2.0000000001})
        assert a == b  # mapping order canonicalized away
        assert a != c  # full float precision discriminates

    def test_corrupt_entry_self_heals(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        key = artifacts.cache_key("unit", "payload")
        cache.put("unit", key, [1, 2, 3])
        path = cache._path("unit", key)
        path.write_bytes(b"not a pickle")
        assert cache.get("unit", key) is None  # miss, not an error
        assert not path.exists()  # deleted so it cannot shadow the slot

    def test_unpicklable_value_is_skipped(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        assert not cache.put("unit", "0" * 64, lambda: None)

    def test_previous_schema_entry_is_a_miss(self, specs, tmp_path,
                                             monkeypatch):
        """A case result cached under ``repro-artifacts-v1`` (before the
        seeded sizing chain) is never served: the schema is part of
        every key."""
        tasks = _case_tasks(specs, modes=(ParasiticMode.NONE,))
        with artifacts.using(tmp_path):
            with monkeypatch.context() as patch:
                patch.setattr(artifacts, "CACHE_SCHEMA", "repro-artifacts-v1")
                old = run_batch(tasks, jobs=1)
            assert [s.status for s in old.statuses] == ["serial"]
            fresh = run_batch(tasks, jobs=1)
        assert [s.status for s in fresh.statuses] == ["serial"]
        assert artifacts.CACHE_SCHEMA != "repro-artifacts-v1"

    def test_disabled_by_default(self):
        if os.environ.get(artifacts.CACHE_DIR_ENV):
            pytest.skip("cache armed via environment")
        with artifacts.using(None):
            assert artifacts.active() is None


class TestBatchWarmRuns:
    def test_warm_serial_batch_is_served_cached_and_bit_identical(
        self, specs, tmp_path
    ):
        tasks = _case_tasks(specs)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=1)
            assert [s.status for s in cold.statuses] == ["serial", "serial"]
            warm = run_batch(tasks, jobs=1)
        assert [s.status for s in warm.statuses] == ["cached", "cached"]
        assert all(s.attempts == 0 for s in warm.statuses)
        assert [r.fingerprint() for r in warm.results] == \
            [r.fingerprint() for r in cold.results]

    def test_warm_pooled_batch_is_served_cached(self, specs, tmp_path):
        tasks = _case_tasks(specs)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=2)
            warm = run_batch(tasks, jobs=2)
        assert [s.status for s in cold.statuses] == ["ok", "ok"]
        assert [s.status for s in warm.statuses] == ["cached", "cached"]
        assert [r.fingerprint() for r in warm.results] == \
            [r.fingerprint() for r in cold.results]

    def test_cold_and_warm_fingerprints_match_uncached_run(
        self, specs, tmp_path
    ):
        tasks = _case_tasks(specs)
        with artifacts.using(None):
            plain = run_batch(tasks, jobs=1)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=1)
            warm = run_batch(tasks, jobs=1)
        fingerprints = [r.fingerprint() for r in plain.results]
        assert [r.fingerprint() for r in cold.results] == fingerprints
        assert [r.fingerprint() for r in warm.results] == fingerprints
