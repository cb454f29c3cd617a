"""Tests for the compile-once/scan-many compilation cache.

Covers content addressing (key sensitivity to every compile parameter),
the LRU memory tier, the validated disk tier (atomic write, corruption
treated as a miss), build-once semantics under concurrency, and — the
load-bearing property — that cold-cache, warm-cache and disk-round-trip
scans are bit-identical to the un-cached pipeline on every backend.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.automata.dfa import Dfa
from repro.compilecache import (
    FORMAT_VERSION,
    ArtifactValidationError,
    CompileCache,
    artifact_path,
    cache_key,
    compile_dfa,
    load_artifact,
    save_artifact,
    scan_with_cache,
)
from repro.core.profiling import (
    ProfilingConfig,
    merge_to_cutoff,
    predict_convergence_sets,
    profile_partitions,
)
from repro.software import software_cse_scan


def _random_dfa(seed=7, n_states=16, n_symbols=8):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n_states, size=(n_symbols, n_states), dtype=np.int32)
    return Dfa(table, start=0, accepting=[n_states - 1])


def _symbols(dfa, n=4000, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, dfa.alphabet_size, size=n).astype(np.int64)


FAST = ProfilingConfig(n_inputs=40, input_len=60)


class TestCacheKey:
    def test_deterministic(self):
        dfa = _random_dfa()
        k1 = cache_key(dfa.fingerprint, FAST, 0.99, None, "auto", 16)
        k2 = cache_key(dfa.fingerprint, FAST, 0.99, None, "auto", 16)
        assert k1 == k2 and len(k1) == 64

    def test_sensitive_to_every_parameter(self):
        dfa = _random_dfa()
        base = cache_key(dfa.fingerprint, FAST, 0.99, None, "auto", 16)
        other_dfa = _random_dfa(seed=8)
        variants = [
            cache_key(other_dfa.fingerprint, FAST, 0.99, None, "auto", 16),
            cache_key(dfa.fingerprint, ProfilingConfig(n_inputs=41, input_len=60),
                      0.99, None, "auto", 16),
            cache_key(dfa.fingerprint, FAST, 0.95, None, "auto", 16),
            cache_key(dfa.fingerprint, FAST, 0.99, 4, "auto", 16),
            cache_key(dfa.fingerprint, FAST, 0.99, None, "native", 16),
            cache_key(dfa.fingerprint, FAST, 0.99, None, "auto", 8),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_fingerprint_includes_dtype_and_content(self):
        dfa = _random_dfa()
        clone = Dfa(dfa.transitions.copy(), dfa.start, dfa.accepting)
        assert dfa.fingerprint == clone.fingerprint
        assert str(dfa.transitions.dtype) in dfa.fingerprint
        mutated = dfa.transitions.copy()
        mutated[0, 0] = (mutated[0, 0] + 1) % dfa.num_states
        assert Dfa(mutated, dfa.start, dfa.accepting).fingerprint != dfa.fingerprint


class TestCompileDfa:
    def test_matches_uncached_prediction(self):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST, cutoff=0.99)
        reference = predict_convergence_sets(dfa, FAST, cutoff=0.99)
        assert compiled.partition == reference.partition
        assert compiled.merge.covered == reference.covered
        assert compiled.census == profile_partitions(dfa, FAST)
        np.testing.assert_array_equal(
            compiled.dense_tables().table, dfa.transitions.ravel()
        )
        assert compiled.rows == [row.tolist() for row in dfa.transitions]

    def test_build_seconds_and_nbytes(self):
        compiled = compile_dfa(_random_dfa(), profiling=FAST)
        assert compiled.build_seconds > 0
        assert compiled.nbytes > 0


class TestMemoryTier:
    def test_hit_after_build(self):
        cache = CompileCache()
        dfa = _random_dfa()
        a = cache.get_or_compile(dfa, profiling=FAST)
        b = cache.get_or_compile(dfa, profiling=FAST)
        assert a is b
        assert cache.stats() == {
            "memory_hits": 1, "disk_hits": 0, "misses": 1, "builds": 1,
            "evictions": 0, "invalid_disk_entries": 0,
        }

    def test_lru_eviction_order(self):
        cache = CompileCache(capacity=2)
        dfas = [_random_dfa(seed=s) for s in (1, 2, 3)]
        cache.get_or_compile(dfas[0], profiling=FAST)
        cache.get_or_compile(dfas[1], profiling=FAST)
        cache.get_or_compile(dfas[0], profiling=FAST)  # refresh 0
        cache.get_or_compile(dfas[2], profiling=FAST)  # evicts 1
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        cache.get_or_compile(dfas[0], profiling=FAST)  # still resident
        assert cache.stats()["memory_hits"] == 2
        cache.get_or_compile(dfas[1], profiling=FAST)  # gone: rebuild
        assert cache.stats()["builds"] == 4

    def test_concurrent_lookups_build_once(self):
        cache = CompileCache()
        dfa = _random_dfa()
        results = []
        def work():
            results.append(cache.get_or_compile(dfa, profiling=FAST))
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats()["builds"] == 1
        assert all(r is results[0] for r in results)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST)
        save_artifact(compiled, tmp_path)
        loaded = load_artifact(tmp_path, compiled.key, dfa.fingerprint)
        assert loaded is not None
        assert loaded.partition == compiled.partition
        assert loaded.census == compiled.census
        assert loaded.backend == compiled.backend
        np.testing.assert_array_equal(loaded.dense_tables().table,
                                      compiled.dense_tables().table)
        assert loaded.rows == compiled.rows

    def test_missing_is_none(self, tmp_path):
        assert load_artifact(tmp_path, "0" * 64) is None

    def test_corrupt_file_raises(self, tmp_path):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        path.write_bytes(b"not a pickle")
        with pytest.raises(ArtifactValidationError):
            load_artifact(tmp_path, compiled.key)

    def test_version_mismatch_raises(self, tmp_path):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        payload = pickle.loads(path.read_bytes())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ArtifactValidationError):
            load_artifact(tmp_path, compiled.key)

    def test_dense_dtype_mismatch_raises(self, tmp_path):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        payload = pickle.loads(path.read_bytes())
        assert payload["dense_dtype"] == "uint8"
        payload["dense_dtype"] = "uint16"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ArtifactValidationError, match="dense dtype"):
            load_artifact(tmp_path, compiled.key)

    def test_dense_tables_survive_round_trip(self, tmp_path):
        dfa = _random_dfa()
        compiled = compile_dfa(dfa, profiling=FAST, backend="dense")
        assert compiled._dense is not None  # eager for resolved "dense"
        save_artifact(compiled, tmp_path)
        loaded = load_artifact(tmp_path, compiled.key, dfa.fingerprint)
        assert loaded._dense is not None
        assert loaded._dense.dtype == compiled._dense.dtype
        np.testing.assert_array_equal(
            loaded._dense.table, compiled._dense.table
        )
        np.testing.assert_array_equal(
            loaded._dense.offsets, compiled._dense.offsets
        )

    def test_fingerprint_mismatch_raises(self, tmp_path):
        compiled = compile_dfa(_random_dfa(), profiling=FAST)
        save_artifact(compiled, tmp_path)
        other = _random_dfa(seed=99)
        with pytest.raises(ArtifactValidationError):
            load_artifact(tmp_path, compiled.key, other.fingerprint)

    def test_cache_treats_corruption_as_miss(self, tmp_path):
        dfa = _random_dfa()
        warm = CompileCache(cache_dir=tmp_path)
        compiled = warm.get_or_compile(dfa, profiling=FAST)
        artifact_path(tmp_path, compiled.key).write_bytes(b"garbage")
        cold = CompileCache(cache_dir=tmp_path)
        rebuilt = cold.get_or_compile(dfa, profiling=FAST)
        assert rebuilt.partition == compiled.partition
        stats = cold.stats()
        assert stats["invalid_disk_entries"] == 1
        assert stats["builds"] == 1

    def test_restart_hits_disk(self, tmp_path):
        dfa = _random_dfa()
        CompileCache(cache_dir=tmp_path).get_or_compile(dfa, profiling=FAST)
        restarted = CompileCache(cache_dir=tmp_path)
        restarted.get_or_compile(dfa, profiling=FAST)
        assert restarted.stats()["disk_hits"] == 1
        assert restarted.stats()["builds"] == 0


class TestObsIntegration:
    def test_counters_emitted(self, tmp_path):
        dfa = _random_dfa()
        with obs.using() as registry:
            cache = CompileCache(cache_dir=tmp_path)
            cache.get_or_compile(dfa, profiling=FAST)
            cache.get_or_compile(dfa, profiling=FAST)
            CompileCache(cache_dir=tmp_path).get_or_compile(dfa, profiling=FAST)
            snapshot = registry.snapshot()
        by_name = {}
        for m in snapshot["metrics"]:
            label = tuple(sorted(m["labels"].items()))
            by_name[(m["name"], label)] = m.get("value", m.get("count"))
        assert by_name[("compilecache_misses_total", ())] == 1
        assert by_name[("compilecache_builds_total", ())] == 1
        assert by_name[("compilecache_hits_total", (("tier", "memory"),))] == 1
        assert by_name[("compilecache_hits_total", (("tier", "disk"),))] == 1
        assert by_name[("compilecache_build_seconds", ())] == 1  # histogram count


def _functional(run):
    return (run.final_state, run.n_symbols, run.n_segments, run.backend,
            run.requested_backend, run.reexec_segments)


class TestScanEquivalence:
    @pytest.mark.parametrize("backend", ["python", "dense", "native", "prefilter", "auto"])
    def test_cold_warm_disk_bit_identical(self, backend, tmp_path):
        dfa = _random_dfa(seed=21, n_states=24, n_symbols=12)
        syms = _symbols(dfa, n=6000)
        reference = software_cse_scan(
            dfa, syms,
            predict_convergence_sets(dfa, FAST).partition,
            n_segments=8, backend=backend,
        )
        cache = CompileCache(cache_dir=tmp_path)
        cold = scan_with_cache(dfa, syms, cache=cache, n_segments=8,
                               backend=backend, profiling=FAST)
        warm = scan_with_cache(dfa, syms, cache=cache, n_segments=8,
                               backend=backend, profiling=FAST)
        disk_cache = CompileCache(cache_dir=tmp_path)
        disk = scan_with_cache(dfa, syms, cache=disk_cache, n_segments=8,
                               backend=backend, profiling=FAST)
        assert (_functional(cold) == _functional(warm)
                == _functional(disk) == _functional(reference))
        assert cache.stats()["builds"] == 1
        assert disk_cache.stats()["disk_hits"] == 1

    def test_no_cache_object_is_uncached_pipeline(self):
        dfa = _random_dfa(seed=5)
        syms = _symbols(dfa)
        reference = software_cse_scan(
            dfa, syms,
            predict_convergence_sets(dfa, FAST).partition,
            n_segments=8, backend="auto",
        )
        run = scan_with_cache(dfa, syms, cache=None, n_segments=8,
                              backend="auto", profiling=FAST)
        assert _functional(run) == _functional(reference)

    @given(seed=st.integers(0, 2**16), backend=st.sampled_from(
        ["python", "dense", "native", "prefilter"]))
    @settings(max_examples=12, deadline=None)
    def test_property_cold_warm_disk_identical(self, seed, backend, tmp_path_factory):
        dfa = _random_dfa(seed=seed, n_states=10, n_symbols=5)
        syms = _symbols(dfa, n=900, seed=seed + 1)
        config = ProfilingConfig(n_inputs=15, input_len=30)
        reference = software_cse_scan(
            dfa, syms,
            predict_convergence_sets(dfa, config).partition,
            n_segments=5, backend=backend,
        )
        tmp = tmp_path_factory.mktemp("cdfa")
        cache = CompileCache(cache_dir=tmp)
        cold = scan_with_cache(dfa, syms, cache=cache, n_segments=5,
                               backend=backend, profiling=config)
        warm = scan_with_cache(dfa, syms, cache=cache, n_segments=5,
                               backend=backend, profiling=config)
        disk = scan_with_cache(dfa, syms, cache=CompileCache(cache_dir=tmp),
                               n_segments=5, backend=backend, profiling=config)
        assert (_functional(cold) == _functional(warm)
                == _functional(disk) == _functional(reference))


class TestThreading:
    def test_stream_scanner_uses_cache(self):
        dfa = _random_dfa(seed=3, n_states=32)
        syms = _symbols(dfa, n=5000)
        cache = CompileCache()
        from repro.stream import StreamScanner

        cached = StreamScanner(dfa, backend="auto", n_segments=4,
                               min_parallel_chunk=256, cache=cache)
        plain = StreamScanner(
            dfa, backend="auto", n_segments=4, min_parallel_chunk=256,
            partition=cache.get_or_compile(dfa, backend="auto",
                                           n_segments=4).partition,
        )
        for lo, hi in ((0, 900), (900, 2500), (2500, 5000)):
            assert cached.feed(syms[lo:hi]) == plain.feed(syms[lo:hi])
        assert cached.finish() == plain.finish()
        assert cache.stats()["builds"] == 1
        assert cache.stats()["memory_hits"] >= 1

    def test_cse_engine_uses_cache(self):
        dfa = _random_dfa(seed=13, n_states=20)
        syms = _symbols(dfa, n=3000)
        from repro.core.engine import CseEngine

        cache = CompileCache()
        cached = CseEngine(dfa, n_segments=4, profiling=FAST, cache=cache)
        plain = CseEngine(dfa, n_segments=4, profiling=FAST)
        assert cached.partition == plain.partition
        assert cached.prediction.covered == plain.prediction.covered
        a, b = cached.run(syms), plain.run(syms)
        assert a.final_state == b.final_state and a.cycles == b.cycles
        assert cache.stats()["builds"] == 1

    def test_fleet_scanner_shares_artifacts(self):
        dfa = _random_dfa(seed=17, n_states=24)
        syms = _symbols(dfa, n=4000)
        from repro.stream import FleetScanner

        cache = CompileCache()
        cached = FleetScanner([dfa, dfa], n_segments=4, cache=cache)
        plain = FleetScanner([dfa, dfa], n_segments=4)
        # two identical rulesets are deduped before the cache is even
        # consulted: one build, zero redundant lookups, one scan unit
        assert cache.stats()["builds"] == 1
        assert cache.stats()["memory_hits"] == 0
        assert cached.n_units == 1 and cached.n_duplicates == 1
        wc1, wc2 = cached.scan_wallclock(syms), plain.scan_wallclock(syms)
        assert wc1.final_states == wc2.final_states
        assert len(wc1.final_states) == 2
