"""Unit tests for the streaming and fleet scanning API."""

import numpy as np
import pytest

from repro.core.engine import CseEngine
from repro.core.partition import StatePartition
from repro.core.profiling import ProfilingConfig
from repro.regex.compile import compile_ruleset
from repro.stream import FleetScanner, StreamScanner

TEXT = b"the cat chased a fish while the dog slept in gray hot weather "


@pytest.fixture
def dfa():
    return compile_ruleset(["cat", "dog", "fish"])


class TestStreamScanner:
    def test_chunked_equals_whole(self, dfa):
        whole = dfa.run_reports(TEXT * 10)
        scanner = StreamScanner(dfa)
        collected = []
        data = TEXT * 10
        for i in range(0, len(data), 37):  # awkward chunk size on purpose
            collected.extend(scanner.feed(data[i:i + 37]))
        state, log = scanner.finish()
        assert collected == whole
        assert log == whole
        assert state == dfa.run(data)

    def test_single_byte_chunks(self, dfa):
        scanner = StreamScanner(dfa)
        data = TEXT
        for i in range(len(data)):
            scanner.feed(data[i:i + 1])
        state, log = scanner.finish()
        assert log == dfa.run_reports(data)
        assert state == dfa.run(data)

    def test_empty_chunk_noop(self, dfa):
        scanner = StreamScanner(dfa)
        assert scanner.feed(b"") == []
        assert scanner.offset == 0

    def test_reset_clears_state(self, dfa):
        scanner = StreamScanner(dfa)
        scanner.feed(TEXT)
        scanner.reset()
        assert scanner.offset == 0
        assert scanner.reports == []
        assert scanner.state == dfa.start

    def test_global_offsets(self, dfa):
        scanner = StreamScanner(dfa)
        scanner.feed(b"xxxx")
        reports = scanner.feed(b"cat")
        assert reports == [(6, reports[0][1])]  # 'cat' ends at offset 6

    def test_parallel_engine_used_for_long_chunks(self, dfa):
        engine = CseEngine(
            dfa, n_segments=4,
            profiling=ProfilingConfig(n_inputs=40, input_len=100,
                                      symbol_low=97, symbol_high=122),
        )
        fast = StreamScanner(dfa, engine=engine, min_parallel_chunk=64)
        slow = StreamScanner(dfa)
        data = TEXT * 20
        fast.feed(data)
        slow.feed(data)
        assert fast.finish() == slow.finish()
        assert fast.cycles < slow.cycles  # the parallel model is cheaper

    def test_short_chunks_charged_sequentially(self, dfa):
        engine = CseEngine(dfa, n_segments=4,
                           partition=StatePartition.trivial(dfa.num_states))
        scanner = StreamScanner(dfa, engine=engine, min_parallel_chunk=10_000)
        scanner.feed(TEXT)
        assert scanner.cycles == len(TEXT)


class TestFleetScanner:
    def _fleet(self):
        dfas = [
            compile_ruleset(["cat"]),
            compile_ruleset(["dog"]),
            compile_ruleset(["fish", "fowl"]),
        ]
        return FleetScanner(dfas, n_segments=4)

    def test_reports_per_fsm(self):
        fleet = self._fleet()
        result = fleet.scan(TEXT * 5)
        assert result.n_fsms == 3
        assert len(result.reports[0]) == 5  # 'cat' x5
        assert len(result.reports[1]) == 5
        assert len(result.reports[2]) == 5  # 'fish' x5

    def test_total_reports(self):
        result = self._fleet().scan(TEXT * 2)
        assert result.total_reports == 6

    def test_throughput_positive(self):
        result = self._fleet().scan(TEXT * 5)
        assert result.throughput > 0
        assert result.cycles > 0

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetScanner([])

    def test_partition_count_mismatch(self, dfa):
        with pytest.raises(ValueError):
            FleetScanner([dfa], partitions=[None, None])

    def test_custom_partitions_used(self, dfa):
        partition = StatePartition.trivial(dfa.num_states)
        fleet = FleetScanner([dfa], partitions=[partition], n_segments=4)
        assert fleet.engines[0].partition is partition

    def test_many_fsms_serialize_in_rounds(self):
        """More FSMs than half-cores: cycles grow with the round count."""
        dfas = [compile_ruleset([w]) for w in
                ["cat", "dog", "fish", "bird", "lion", "bear"]]
        small_fleet = FleetScanner(dfas[:2], n_segments=2)
        big_fleet = FleetScanner(dfas, n_segments=2)
        data = TEXT * 5
        assert big_fleet.scan(data).cycles >= small_fleet.scan(data).cycles


class TestStreamScannerBackends:
    @pytest.mark.parametrize("backend", ["python", "native", "prefilter", "auto"])
    def test_backend_equals_reference(self, dfa, backend):
        reference = StreamScanner(dfa)
        scanner = StreamScanner(dfa, backend=backend, min_parallel_chunk=256)
        data = TEXT * 20
        for i in range(0, len(data), 700):
            reference.feed(data[i:i + 700])
            scanner.feed(data[i:i + 700])
        assert scanner.finish() == reference.finish()
        assert scanner.backend in ("python", "native", "prefilter")

    @pytest.mark.parametrize("backend", [
        "python", "native", "prefilter", "auto",
    ])
    @pytest.mark.parametrize("native", ["present", "absent"])
    def test_reports_straddling_chunks_match_reference(
        self, dfa, backend, native, monkeypatch
    ):
        from repro.compilecache import CompileCache
        from repro.kernels.native import ENV_DISABLE, reset_native

        if native == "absent":
            monkeypatch.setenv(ENV_DISABLE, "0")
        reset_native()
        try:
            data = TEXT * 30
            # cut every keyword after its first letter ('c|at', 'd|og')
            found = [
                (at, word) for word in (b"cat", b"dog", b"fish")
                for at in range(len(data)) if data.startswith(word, at)
            ]
            cuts = sorted({0, len(data)} | {at + 1 for at, _ in found})
            chunks = [data[a:b] for a, b in zip(cuts, cuts[1:])]
            reference = StreamScanner(dfa)
            scanners = [
                StreamScanner(dfa, backend=backend),
                StreamScanner(dfa, backend=backend, cache=CompileCache()),
            ]
            for chunk in chunks:
                want = reference.feed(chunk)
                for scanner in scanners:
                    assert scanner.feed(np.frombuffer(chunk, np.uint8)) == want
                    assert scanner.state == reference.state
            state, log = reference.finish()
            assert log == dfa.run_reports(data)
            # every report ends a cut keyword: each straddles two chunks
            assert sorted(at for at, _ in log) == sorted(
                at + len(word) - 1 for at, word in found
            )
            for scanner in scanners:
                assert scanner.finish() == (state, log)
        finally:
            reset_native()

    def test_feed_counts_symbols_once(self, dfa, monkeypatch):
        import repro.stream as stream
        from repro import obs

        admitted = []
        admit = stream.admit
        monkeypatch.setattr(
            stream, "admit",
            lambda *args: admitted.append(admit(*args)) or admitted[-1])
        scanner = StreamScanner(dfa, backend="native")
        with obs.using() as registry:
            scanner.feed(TEXT)
        # admitted once, and byte chunks are never widened to int64
        assert [syms.dtype for syms in admitted] == [np.uint8]
        assert registry.get("stream_symbols_total").value == len(TEXT)

    def test_resolved_via_shared_helper(self, dfa):
        from repro.kernels import resolve_backend

        partition = StatePartition.trivial(dfa.num_states)
        scanner = StreamScanner(dfa, backend="auto", partition=partition)
        assert scanner.backend == resolve_backend(dfa, "auto")

    def test_short_chunks_stay_sequential(self, dfa):
        scanner = StreamScanner(dfa, backend="native", min_parallel_chunk=10_000)
        scanner.feed(TEXT)
        assert scanner.state == dfa.run(TEXT)

    def test_unknown_backend_rejected(self, dfa):
        with pytest.raises(ValueError):
            StreamScanner(dfa, backend="simd")

    @pytest.mark.parametrize("backend", ["lockstep", "bitset", "dense"])
    @pytest.mark.parametrize("native", ["present", "absent"])
    def test_retired_backend_rejected(self, dfa, backend, native, monkeypatch):
        # the retired kernels have no fallback, with or without the library
        from repro.compilecache import CompileCache
        from repro.kernels.native import ENV_DISABLE, reset_native

        if native == "absent":
            monkeypatch.setenv(ENV_DISABLE, "0")
        reset_native()
        try:
            with pytest.raises(ValueError):
                StreamScanner(dfa, backend=backend)
            with pytest.raises(ValueError):
                StreamScanner(dfa, backend=backend, cache=CompileCache())
            with pytest.raises(ValueError):
                FleetScanner([dfa], backend=backend)
        finally:
            reset_native()


class TestFleetWallclock:
    def test_scan_wallclock(self):
        dfas = [compile_ruleset(["cat"]), compile_ruleset(["dog"])]
        fleet = FleetScanner(dfas, n_segments=4)
        assert len(fleet.backends) == 2
        result = fleet.scan_wallclock(TEXT * 10)
        expected = [d.run(TEXT * 10) for d in dfas]
        assert [r.final_state for r in result.runs] == expected
        assert result.critical_path_seconds > 0
        assert result.critical_path_seconds <= result.elapsed_seconds
        assert result.work_speedup > 0

    @pytest.mark.parametrize("kind", ["uint8", "view"])
    def test_scan_wallclock_keeps_byte_width(self, kind, monkeypatch):
        import repro.software as software
        import repro.stream as stream
        from repro.ingest import from_bytes

        dfas = [compile_ruleset(["cat", "dog"]), compile_ruleset(["fish"]),
                compile_ruleset(["hot", "gray"])]
        data = TEXT * 40
        symbols = (np.frombuffer(data, dtype=np.uint8) if kind == "uint8"
                   else from_bytes(data))
        fleet = FleetScanner(dfas, shard=True, n_segments=4)
        assert set(fleet.unit_backends) == {"prefilter"}
        admitted = []
        for module in (stream, software):
            original = module.admit
            monkeypatch.setattr(
                module, "admit",
                lambda *args, original=original:
                admitted.append(original(*args)) or admitted[-1])
        result = fleet.scan_wallclock(symbols, verify=False)
        # byte input is never widened to int64
        assert admitted and {syms.dtype for syms in admitted} == {
            np.dtype(np.uint8)}
        assert result.final_states == [d.run(data) for d in dfas]

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_scans_without_a_cache_build_the_tables_once(self, backend,
                                                         monkeypatch):
        import repro.kernels.tables as tables

        built = []
        for name in ("DenseTables", "table_rows", "certify_prefilter"):
            original = getattr(tables, name)
            monkeypatch.setattr(
                tables, name,
                lambda dfa, name=name, original=original:
                built.append(name) or original(dfa))
        dfas = [compile_ruleset(["cat", "dog"]), compile_ruleset(["fish"]),
                compile_ruleset(["hot", "gray"])]
        fleet = FleetScanner(dfas, n_segments=4, backend=backend)
        # construction profiles nothing and builds no table
        assert built == []
        data = TEXT * 40
        first = fleet.scan_wallclock(data, verify=False)
        once = sorted(built)
        assert once.count("DenseTables") == once.count("table_rows") == 3
        second = fleet.scan_wallclock(data, verify=False)
        assert sorted(built) == once
        want = [d.run(data) for d in dfas]
        assert first.final_states == second.final_states == want

    def test_backends_resolved_per_fsm(self):
        from repro.kernels import BACKENDS

        dfas = [compile_ruleset(["cat"]), compile_ruleset(["dog"])]
        fleet = FleetScanner(dfas, backend="python", n_segments=4)
        assert fleet.backends == ["python", "python"]
        auto = FleetScanner(dfas, n_segments=4)
        assert all(b in BACKENDS for b in auto.backends)
