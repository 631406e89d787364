"""Executor runtime: persistent pool, resident cache, artifact cache.

The contracts under test: the persistent executor is reused across
dispatches and discarded whenever it may be wedged; worker-resident
cache misses are resent without corrupting shard statuses; Monte-Carlo
samples are bit-identical for any worker count and for a cold or warm
pool; and the cross-run artifact cache serves bit-identical results
(warm and cold fingerprints equal) while self-healing corrupt entries.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time

import numpy as np
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


class TestResidentCacheResend:
    def test_stale_shipped_key_resends_payload_statuses_stay_ok(
        self, hand_testbench
    ):
        """A pool whose workers never saw the payload, but whose ledger
        claims they did, answers ``CacheMiss``; the dispatcher resends on
        an uncounted round so statuses remain ``ok``."""
        baseline = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)
        runtime_pool.shutdown()
        lease = runtime_pool.acquire(2)  # fresh pool, cold workers
        payload = pickle.dumps((hand_testbench, None))
        lease.mark_shipped(hashlib.sha256(payload).hexdigest())
        result = run_monte_carlo(hand_testbench, runs=8, seed=7, workers=2)
        runtime_pool.shutdown()
        assert result.samples == baseline.samples
        assert [s.status for s in result.shards] == ["ok", "ok"]
        assert all(s.attempts == 1 for s in result.shards)

    def test_resident_object_round_trips(self):
        runtime_pool.clear_resident()
        built = []

        def build(payload):
            built.append(payload)
            return pickle.loads(payload)

        payload = pickle.dumps({"a": 1})
        first = runtime_pool.resident_object("k1", payload, build)
        again = runtime_pool.resident_object("k1", None, build)
        assert first is again and built == [payload]
        with pytest.raises(runtime_pool.NeedPayload):
            runtime_pool.resident_object("k2", None, build)
        runtime_pool.clear_resident()

    def test_resident_cache_is_bounded(self):
        runtime_pool.clear_resident()
        for i in range(20):
            runtime_pool.resident_object(
                f"key{i}", pickle.dumps(i), pickle.loads
            )
        assert runtime_pool.resident_cache_size() <= 8
        runtime_pool.clear_resident()

    def test_program_fingerprints_key_compiled_state(self, hand_testbench):
        """The content-keyed caches hang off the compiled programs'
        fingerprints: same circuit, same key; different circuit,
        different key."""
        from repro.analysis.stamps import StampProgram

        one = StampProgram(hand_testbench.circuit)
        two = StampProgram(hand_testbench.circuit)
        assert one.fingerprint() == two.fingerprint()
        other = hand_testbench.circuit.clone("runtime_fp")
        other.add_vsource("_fp", hand_testbench.output_net, "0", dc=0.0)
        assert StampProgram(other).fingerprint() != one.fingerprint()

        from repro.analysis.ensemble import EnsembleProgram

        n = len(one.mos_names)
        rows = np.zeros((3, n))
        stacked = EnsembleProgram.from_mismatch(one, rows, rows)
        assert stacked.fingerprint() == \
            EnsembleProgram.from_mismatch(two, rows, rows).fingerprint()
        skewed = EnsembleProgram.from_mismatch(one, rows + 1e-4, rows)
        assert skewed.fingerprint() != stacked.fingerprint()


# ---------------------------------------------------------------------------
# Monte-Carlo determinism across worker counts and pool states
# ---------------------------------------------------------------------------


class TestShmDeterminism:
    """Monte-Carlo samples are bit-identical for any worker count, for
    either way the testbench recipe reaches the workers, and for a cold
    or warm pool."""

    @pytest.fixture(scope="class")
    def baseline(self, hand_testbench):
        return run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("fingerprint_only", [True, False])
    def test_bit_identical_for_any_transport_and_worker_count(
        self, hand_testbench, baseline, workers, fingerprint_only
    ):
        """Workers that already hold the compiled state receive only its
        content key; the others receive the full pickled recipe."""
        if workers > 1:
            key = hashlib.sha256(
                pickle.dumps((hand_testbench, None))
            ).hexdigest()
            lease = runtime_pool.acquire(workers)
            if fingerprint_only:
                run_monte_carlo(hand_testbench, runs=8, seed=7,
                                workers=workers)
                assert lease.key_shipped(key)
            else:
                lease.unship(key)
        result = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                 workers=workers)
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
