"""Unit tests for the software-only CSE prototype."""

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.automata.builders import cycle_dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome, SegmentFunction
from repro.ingest import open_input
from repro.regex.compile import compile_ruleset
from repro.software import (
    run_segment,
    scan_sequential,
    segment_pool,
    software_cse_scan,
)


@pytest.fixture
def dfa():
    return compile_ruleset(["cat", "dog", "fi(sh|ne)"])


@pytest.fixture
def word(rng):
    return rng.integers(97, 123, size=40_000)


class TestScanSequential:
    def test_matches_dfa_run(self, dfa, word):
        final, seconds = scan_sequential(dfa, word)
        assert final == dfa.run(word)
        assert seconds > 0

    def test_custom_start(self, dfa, word):
        final, _ = scan_sequential(dfa, word, start_state=1)
        assert final == dfa.run(word, state=1)

    def test_empty_input(self, dfa):
        final, _ = scan_sequential(dfa, b"")
        assert final == dfa.start


class TestRunSegment:
    def test_converged_outcome_matches_oracle(self, dfa, rng):
        partition = StatePartition.trivial(dfa.num_states)
        segment = rng.integers(97, 123, size=2_000)
        function, seconds = run_segment(dfa, partition, segment)
        assert seconds > 0
        outcome = function.outcomes[0]
        if outcome.converged:
            for q in range(dfa.num_states):
                assert dfa.run(segment, state=q) == outcome.state

    def test_divergent_outcome_is_exact_set(self, rng):
        perm = cycle_dfa(5)
        partition = StatePartition.trivial(5)
        segment = rng.integers(0, 2, size=50)
        function, _ = run_segment(perm, partition, segment)
        outcome = function.outcomes[0]
        assert not outcome.converged
        want = sorted({int(perm.run(segment, state=q)) for q in range(5)})
        assert outcome.states.tolist() == want

    def test_scalar_fast_path_equals_slow_path(self, dfa, rng):
        """Singleton blocks take the scalar path; results must be exact."""
        partition = StatePartition.discrete(dfa.num_states)
        segment = rng.integers(97, 123, size=500)
        function, _ = run_segment(dfa, partition, segment)
        for q in range(dfa.num_states):
            assert function.concrete_for(q) == dfa.run(segment, state=q)


class TestSoftwareCseScan:
    def test_final_state_correct(self, dfa, word):
        partition = StatePartition.trivial(dfa.num_states)
        run = software_cse_scan(dfa, word, partition, n_segments=8)
        assert run.final_state == dfa.run(word)

    def test_work_speedup_positive_on_converging_load(self, dfa, word):
        partition = StatePartition.trivial(dfa.num_states)
        run = software_cse_scan(dfa, word, partition, n_segments=8)
        assert run.work_speedup > 1.0
        assert 0 < run.work_efficiency <= 1.5  # timing noise tolerance

    def test_divergent_load_repairs_correctly(self, rng):
        perm = cycle_dfa(5)
        word = rng.integers(0, 2, size=4_000)
        run = software_cse_scan(perm, word, StatePartition.trivial(5),
                                n_segments=4)
        assert run.final_state == perm.run(word)
        assert run.reexec_segments > 0

    def test_with_executor(self, dfa, word):
        partition = StatePartition.trivial(dfa.num_states)
        with ThreadPoolExecutor(max_workers=2) as pool:
            run = software_cse_scan(dfa, word, partition, n_segments=8,
                                    executor=pool)
        assert run.final_state == dfa.run(word)
        assert len(run.segment_seconds) == 8

    def test_segment_seconds_shape(self, dfa, word):
        partition = StatePartition.trivial(dfa.num_states)
        run = software_cse_scan(dfa, word, partition, n_segments=8)
        assert len(run.segment_seconds) == 8
        assert all(s >= 0 for s in run.segment_seconds)
        assert run.critical_path_seconds >= max(run.segment_seconds)

    @pytest.mark.parametrize("backend", ["python", "native", "prefilter"])
    def test_negative_symbol_raises(self, dfa, backend):
        # a negative symbol used to wrap around to the top of the alphabet
        word = np.array([97, 98, -1, 99] * 100)
        partition = StatePartition.trivial(dfa.num_states)
        with pytest.raises(ValueError, match="negative symbol"):
            dfa.run(word)
        with pytest.raises(ValueError, match="negative symbol"):
            software_cse_scan(dfa, word, partition, n_segments=4,
                              backend=backend)


class TestOracleCatchesKernelFaults:
    """A wrong kernel outcome that speculation trusts reaches the oracle."""

    @pytest.mark.parametrize("backend", ["python", "native", "prefilter"])
    def test_corrupted_outcome_raises(self, dfa, word, backend, monkeypatch):
        import repro.software as software

        data = word.astype(np.uint8)
        wrong = (int(dfa.run(data)) + 1) % dfa.num_states

        def corrupted(function):
            # a converged outcome: composition takes it without re-running
            return SegmentFunction(
                [CsOutcome(True, wrong, np.asarray([wrong], dtype=np.int64))],
                function.cs_of_state,
            )

        real_batch = software.run_segments_batch
        real_segment = software.run_segment

        def corrupt_batch(*args, **kwargs):
            functions = real_batch(*args, **kwargs)
            functions[-1] = corrupted(functions[-1])
            return functions

        def corrupt_segment(*args, **kwargs):
            # the interpreted path (also ``native`` without the library)
            # runs one segment a call: every one lands on ``wrong``
            function, seconds = real_segment(*args, **kwargs)
            return corrupted(function), seconds

        monkeypatch.setattr(software, "run_segments_batch", corrupt_batch)
        monkeypatch.setattr(software, "run_segment", corrupt_segment)
        partition = StatePartition.trivial(dfa.num_states)
        # without the oracle the corruption goes through unnoticed
        run = software_cse_scan(dfa, data, partition, n_segments=8,
                                backend=backend, verify=False)
        assert run.final_state == wrong
        assert run.reexec_segments == 0
        with pytest.raises(AssertionError, match="software CSE diverged"):
            software_cse_scan(dfa, data, partition, n_segments=8,
                              backend=backend, verify=True)


class TestPoolTransport:
    """The two ways a fingerprint-matched pool receives segments: mmap
    coordinates for a file-backed view, pickled slices for anything else."""

    @staticmethod
    def _input(transport, data, tmp_path):
        if transport == "bytes":
            return contextlib.nullcontext(data)
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        return open_input(path)

    @pytest.mark.parametrize("transport", ["bytes", "file"])
    def test_pooled_matches_unpooled(self, dfa, word, tmp_path, transport):
        from repro import obs
        from repro.compilecache import CompileCache, scan_with_cache
        from repro.core.profiling import ProfilingConfig

        data = word.astype(np.uint8).tobytes()
        config = ProfilingConfig(n_inputs=30, input_len=50)
        cache = CompileCache()
        want = scan_with_cache(dfa, data, cache=cache, n_segments=4,
                               profiling=config)
        with obs.using() as registry:
            with segment_pool(dfa, max_workers=2) as pool, \
                    self._input(transport, data, tmp_path) as symbols:
                run = scan_with_cache(dfa, symbols, cache=cache,
                                      n_segments=4, executor=pool,
                                      profiling=config)
            snapshot = registry.snapshot()
        assert run.final_state == want.final_state == dfa.run(data)
        assert cache.stats()["builds"] == 1
        names = {m["name"]: m for m in snapshot["metrics"]}
        # the artifact's fingerprint matched the pool: workers ran all
        # three enumerative segments
        assert names["software_worker_segments_total"]["value"] == 3
        if transport == "file":
            assert names["software_mmap_scans_total"]["value"] == 1
            assert names["software_mmap_bytes_total"]["value"] == len(data)
        else:
            assert "software_mmap_scans_total" not in names

    @pytest.mark.parametrize("transport", ["bytes", "file"])
    def test_killed_worker_raises_broken_pool(self, dfa, word, tmp_path,
                                              transport):
        data = word.astype(np.uint8).tobytes()
        partition = StatePartition.trivial(dfa.num_states)
        with segment_pool(dfa, max_workers=2) as pool, \
                self._input(transport, data, tmp_path) as symbols:
            # start the workers, then kill one of them outright and wait
            # for the pool to notice (else a scan the survivor finishes
            # first races the death)
            software_cse_scan(dfa, symbols, partition, n_segments=4,
                              backend="native", executor=pool)
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 60
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            raised = []

            def scan():
                try:
                    software_cse_scan(dfa, symbols, partition, n_segments=4,
                                      backend="native", executor=pool)
                except BrokenProcessPool as exc:
                    raised.append(exc)

            # a daemon thread, so a hung scan fails the test, not the run
            runner = threading.Thread(target=scan, daemon=True)
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive(), "pooled scan hung on a dead worker"
            assert raised, "a dead worker must surface as BrokenProcessPool"
