"""Unit tests for the software-only CSE prototype."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.automata.builders import cycle_dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome, SegmentFunction
from repro.regex.compile import compile_ruleset
from repro.software import run_segment, scan_sequential, software_cse_scan


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


class TestOracleCatchesKernelFaults:
    """A wrong kernel outcome that speculation trusts reaches the oracle."""

    @pytest.mark.parametrize("backend", ["dense", "native", "prefilter"])
    def test_corrupted_outcome_raises(self, dfa, word, backend, monkeypatch):
        import repro.software as software

        data = word.astype(np.uint8)
        wrong = (int(dfa.run(data)) + 1) % dfa.num_states
        real = software.run_segments_batch

        def corrupt(*args, **kwargs):
            functions = real(*args, **kwargs)
            last = functions[-1]
            # a converged outcome: composition takes it without re-running
            assert last.outcomes[0].converged
            functions[-1] = SegmentFunction(
                [CsOutcome(True, wrong, np.asarray([wrong], dtype=np.int64))],
                last.cs_of_state,
            )
            return functions

        monkeypatch.setattr(software, "run_segments_batch", corrupt)
        partition = StatePartition.trivial(dfa.num_states)
        # without the oracle the corruption goes through unnoticed
        run = software_cse_scan(dfa, data, partition, n_segments=8,
                                backend=backend, verify=False)
        assert run.final_state == wrong
        assert run.reexec_segments == 0
        with pytest.raises(AssertionError, match="software CSE diverged"):
            software_cse_scan(dfa, data, partition, n_segments=8,
                              backend=backend, verify=True)


class TestSharedMemoryPool:
    """The zero-copy segment dispatch path on a fingerprint-matched pool."""

    def test_shm_and_pickle_paths_agree(self, dfa, word):
        from repro.compilecache import CompileCache, scan_with_cache
        from repro.core.profiling import ProfilingConfig
        from repro.software import segment_pool

        config = ProfilingConfig(n_inputs=30, input_len=50)
        cache = CompileCache()
        with segment_pool(dfa, max_workers=2) as pool:
            shm_run = scan_with_cache(dfa, word, cache=cache, n_segments=4,
                                      executor=pool, profiling=config)
            pickled = scan_with_cache(dfa, word, cache=cache, n_segments=4,
                                      executor=pool, profiling=config,
                                      use_shared_memory=False)
        assert shm_run.final_state == pickled.final_state == dfa.run(word)
        assert cache.stats()["builds"] == 1

    def test_shm_metrics_and_cleanup(self, dfa, word):
        import glob

        from repro import obs
        from repro.compilecache import CompileCache, scan_with_cache
        from repro.core.profiling import ProfilingConfig
        from repro.software import segment_pool

        before = set(glob.glob("/dev/shm/psm_*"))
        with obs.using() as registry:
            cache = CompileCache()
            with segment_pool(dfa, max_workers=2) as pool:
                scan_with_cache(
                    dfa, word, cache=cache, n_segments=4, executor=pool,
                    profiling=ProfilingConfig(n_inputs=30, input_len=50),
                )
            snapshot = registry.snapshot()
        names = {m["name"]: m for m in snapshot["metrics"]}
        if "software_shm_scans_total" in names:
            assert names["software_shm_scans_total"]["value"] == 1
            assert names["software_shm_bytes_total"]["value"] >= word.size * 8
            # the parent released and unlinked its segment
            assert set(glob.glob("/dev/shm/psm_*")) <= before
        else:  # platform without shared memory: the fallback was counted
            assert "software_shm_fallbacks_total" in names
