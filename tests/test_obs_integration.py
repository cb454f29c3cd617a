"""End-to-end observability: hot-path instrumentation and pool merging.

Covers the acceptance surface of the telemetry layer:

- worker registries from ``segment_pool`` merge *exactly* into the
  parent (counters sum, spans keep worker pids) with ``max_workers>1``;
- the no-op recorder path leaves every functional output bit-identical
  to an uninstrumented run;
- engines, kernels, stream, and fleet record the documented series;
- the CLI ``--metrics-out`` / ``--trace-out`` / ``stats`` surface works.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.automata.builders import random_dfa
from repro.cli import main
from repro.core.engine import CseEngine
from repro.core.partition import StatePartition
from repro.engines.enumerative import EnumerativeEngine
from repro.engines.sequential import SequentialEngine
from repro.kernels import native_available, run_segments_batch
from repro.software import segment_pool, software_cse_scan
from repro.stream import FleetScanner, StreamScanner


@pytest.fixture(autouse=True)
def _no_global_recorder():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def dfa(rng):
    return random_dfa(16, 8, rng)


@pytest.fixture
def word(rng):
    return rng.integers(0, 8, size=6000)


def functions_equal(a, b):
    return len(a.outcomes) == len(b.outcomes) and all(
        oa.converged == ob.converged
        and oa.state == ob.state
        and np.array_equal(oa.states, ob.states)
        for oa, ob in zip(a.outcomes, b.outcomes)
    )


class TestPoolMerge:
    """Cross-process aggregation from segment_pool workers is exact."""

    @pytest.mark.slow
    def test_counters_sum_exactly_across_workers(self, dfa, word):
        n_segments = 8
        registry = obs.enable()
        with segment_pool(dfa, max_workers=2) as pool:
            run = software_cse_scan(
                dfa, word, StatePartition.discrete(dfa.num_states),
                n_segments=n_segments, executor=pool, backend="python",
            )
        # every enumerative segment ran in some worker; the merged
        # counters must account for each exactly once
        enum_symbols = word.size - (word.size // n_segments + (
            1 if word.size % n_segments else 0))
        assert registry.get("software_worker_segments_total").value == \
            n_segments - 1
        assert registry.get("software_worker_symbols_total").value == \
            enum_symbols
        # the python backend records one position per symbol walked
        positions = registry.get("kernels_positions_total", backend="python")
        assert positions.value == enum_symbols
        assert run.final_state == dfa.run(word)

    @pytest.mark.slow
    def test_worker_spans_carry_worker_pids(self, dfa, word):
        registry = obs.enable()
        with segment_pool(dfa, max_workers=2) as pool:
            software_cse_scan(
                dfa, word, StatePartition.trivial(dfa.num_states),
                n_segments=6, executor=pool, backend="native",
            )
        seg_spans = [s for s in registry.spans if s.name == "software.segment"]
        assert len(seg_spans) == 6  # concrete + 5 enumerative
        worker_spans = [s for s in seg_spans if s.args.get("worker")]
        assert len(worker_spans) == 5
        assert {s.args["segment"] for s in worker_spans} == {1, 2, 3, 4, 5}
        # at least one span recorded outside the parent process
        import os
        assert any(s.pid != os.getpid() for s in worker_spans)

    @pytest.mark.slow
    def test_per_segment_reexec_counters_exported(self, dfa, word):
        registry = obs.enable()
        with segment_pool(dfa, max_workers=2) as pool:
            software_cse_scan(
                dfa, word, StatePartition.trivial(dfa.num_states),
                n_segments=4, executor=pool, backend="native",
            )
        for segment in (1, 2, 3):
            counter = registry.get(
                "software_segment_reexec_total", segment=segment
            )
            assert counter is not None, f"segment {segment} series missing"
        total = sum(
            registry.get("software_segment_reexec_total", segment=s).value
            for s in (1, 2, 3)
        )
        assert registry.get("software_reexec_segments_total").value == total


class TestNoopBitIdentical:
    """Disabled instrumentation changes no functional output."""

    def test_software_scan_identical(self, dfa, word):
        partition = StatePartition.discrete(dfa.num_states)
        obs.disable()
        plain = software_cse_scan(dfa, word, partition, n_segments=8,
                                  backend="native")
        with obs.using():
            instrumented = software_cse_scan(dfa, word, partition,
                                             n_segments=8, backend="native")
        assert plain.final_state == instrumented.final_state
        assert plain.n_segments == instrumented.n_segments
        assert plain.reexec_segments == instrumented.reexec_segments
        assert plain.backend == instrumented.backend == (
            "native" if native_available() else "python")

    @pytest.mark.parametrize("backend", ["native", "prefilter"])
    def test_kernel_outcomes_identical(self, dfa, word, backend):
        partition = StatePartition.discrete(dfa.num_states)
        segments = [word[:2000], word[2000:4000], word[4000:]]
        obs.disable()
        plain = run_segments_batch(dfa, partition, segments, backend=backend)
        with obs.using():
            instrumented = run_segments_batch(
                dfa, partition, segments, backend=backend
            )
        assert all(
            functions_equal(a, b) for a, b in zip(plain, instrumented)
        )

    def test_engine_run_identical(self, dfa, word):
        engine = CseEngine(dfa, n_segments=8)
        obs.disable()
        plain = engine.run(word)
        with obs.using():
            instrumented = engine.run(word)
        assert plain.final_state == instrumented.final_state
        assert plain.cycles == instrumented.cycles
        assert [s.r_trace for s in plain.segments] == \
            [s.r_trace for s in instrumented.segments]


class TestEngineInstrumentation:
    def test_run_records_span_and_counters(self, dfa, word):
        engine = EnumerativeEngine(dfa, n_segments=4)
        with obs.using() as registry:
            result = engine.run(word)
        spans = [s for s in registry.spans if s.name == "engine.run"]
        assert len(spans) == 1
        assert spans[0].args["engine"] == engine.name
        assert registry.get("engine_runs_total", engine=engine.name).value == 1
        assert registry.get(
            "engine_symbols_total", engine=engine.name
        ).value == word.size
        assert registry.get(
            "engine_cycles_total", engine=engine.name
        ).value == result.cycles
        assert registry.get(
            "engine_r0_total", engine=engine.name
        ).value == sum(result.r0_values())

    def test_nested_runs_not_double_counted(self, dfa, word):
        from repro.core.adaptive import AdaptiveCseEngine

        engine = AdaptiveCseEngine(dfa, n_segments=4)
        with obs.using() as registry:
            engine.run(word)
        # adaptive delegates to CseEngine.run on the same instance; the
        # reentrancy guard keeps that to one recorded run
        assert registry.get("engine_runs_total", engine=engine.name).value == 1

    def test_sequential_engine_instrumented(self, dfa, word):
        with obs.using() as registry:
            SequentialEngine(dfa).run(word)
        assert registry.get("engine_runs_total", engine="Baseline").value == 1


class TestStreamInstrumentation:
    def test_feed_records_chunks(self, dfa, rng):
        scanner = StreamScanner(dfa, backend="python")
        chunks = [rng.integers(0, 8, size=500) for _ in range(4)]
        obs.disable()
        for c in chunks:
            scanner.feed(c)
        plain_final = scanner.state
        scanner.reset()
        with obs.using() as registry:
            for c in chunks:
                scanner.feed(c)
        assert scanner.state == plain_final
        assert registry.get("stream_chunks_total").value == 4
        assert registry.get("stream_symbols_total").value == 2000
        hist = registry.get("stream_chunk_seconds")
        assert hist.count == 4
        assert len([s for s in registry.spans if s.name == "stream.feed"]) == 4

    def test_fleet_scan_gauges(self, rng):
        dfas = [random_dfa(8, 4, rng) for _ in range(3)]
        word = rng.integers(0, 4, size=400)
        fleet = FleetScanner(dfas, n_segments=4, backend="python")
        with obs.using() as registry:
            result = fleet.scan(word)
        for idx in range(3):
            gauge = registry.get("fleet_machine_throughput", fsm=idx)
            assert gauge is not None and gauge.touched
            assert gauge.value > 0
        assert registry.get("fleet_scans_total").value == 1
        assert len([s for s in registry.spans if s.name == "fleet.scan"]) == 1
        assert result.n_fsms == 3


class TestBackendRecording:
    def test_requested_backend_on_run(self, dfa, word):
        partition = StatePartition.discrete(dfa.num_states)
        run = software_cse_scan(dfa, word, partition, n_segments=8,
                                backend="auto")
        assert run.requested_backend == "auto"
        assert run.backend in ("python", "native", "prefilter")

    def test_explicit_backend_passthrough(self, dfa, word):
        partition = StatePartition.trivial(dfa.num_states)
        run = software_cse_scan(dfa, word, partition, n_segments=8,
                                backend="python")
        assert run.requested_backend == "python"
        assert run.backend == "python"

    def test_resolution_counter(self, dfa):
        with obs.using() as registry:
            software_cse_scan(
                dfa, np.zeros(200, dtype=np.int64),
                StatePartition.discrete(dfa.num_states),
                n_segments=4, backend="auto",
            )
        resolved = [
            m for m in registry.snapshot()["metrics"]
            if m["name"] == "kernels_backend_resolved_total"
        ]
        assert len(resolved) == 1
        assert resolved[0]["labels"]["requested"] == "auto"
        assert resolved[0]["value"] == 1


class TestOracleSpan:
    """The verify oracle is a span of its own, flagged compiled or not."""

    @pytest.mark.parametrize("backend", ["native", "python"])
    def test_oracle_span_next_to_repair(self, dfa, word, backend):
        with obs.using() as registry:
            run = software_cse_scan(
                dfa, word.astype(np.uint8),
                StatePartition.trivial(dfa.num_states), n_segments=4,
                backend=backend,
            )
        oracle = [s for s in registry.spans if s.name == "software.oracle"]
        repair = [s for s in registry.spans if s.name == "software.repair"]
        assert len(oracle) == 1 and len(repair) == 1
        assert oracle[0].trace_id == repair[0].trace_id is not None
        assert oracle[0].ts >= repair[0].ts
        assert oracle[0].duration == run.sequential_seconds
        # python keeps the interpreted loop; native walks the oracle
        # compiled whenever the library loads
        assert oracle[0].args["compiled"] is (
            backend == "native" and native_available()
        )

    def test_no_oracle_span_without_verify(self, dfa, word):
        with obs.using() as registry:
            software_cse_scan(dfa, word, StatePartition.trivial(dfa.num_states),
                              n_segments=4, backend="native", verify=False)
        assert not [s for s in registry.spans if s.name == "software.oracle"]


class TestCliTelemetry:
    @pytest.fixture
    def rules_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("cat\ndog\nfi(sh|ne)\n")
        return str(path)

    @pytest.fixture
    def input_file(self, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(b"the cat chased a fish past the dog " * 200)
        return str(path)

    def test_software_metrics_and_trace(self, rules_file, input_file,
                                        tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        code = main([
            "software", rules_file, input_file,
            "--backend", "prefilter", "--segments", "4", "--trivial",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: prefilter (requested: prefilter)" in out

        snap = json.loads(metrics.read_text())
        names = {m["name"] for m in snap["metrics"]}
        assert "software_scans_total" in names
        assert "software_segment_reexec_total" in names
        assert "kernels_batch_runs_total" in names

        events = json.loads(trace.read_text())["traceEvents"]
        # the unpooled prefilter scan walks all 4 segments in one batched
        # pass: one measured span covers them, no estimated per-segment
        # shares
        batch = [e for e in events if e["name"] == "kernels.batch"]
        assert [e["args"]["segments"] for e in batch] == [4]
        assert not [e for e in events if e["name"] == "software.segment"]

        # recorder is torn down after export
        assert not obs.is_enabled()

    def test_run_metrics_out(self, rules_file, input_file, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        code = main([
            "run", rules_file, input_file, "--engine", "enumerative",
            "--segments", "4", "--metrics-out", str(metrics),
        ])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE engine_runs_total counter" in text
        assert 'engine_runs_total{engine="Enumerative"} 1' in text

    def test_stats_pretty_print(self, rules_file, input_file, tmp_path,
                                capsys):
        metrics = tmp_path / "m.json"
        main([
            "software", rules_file, input_file,
            "--backend", "native", "--segments", "4", "--trivial",
            "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "software_scans_total" in out
        assert "spans (" in out

    def test_stats_prom_format(self, rules_file, input_file, tmp_path,
                               capsys):
        metrics = tmp_path / "m.json"
        main([
            "software", rules_file, input_file,
            "--backend", "python", "--segments", "4", "--trivial",
            "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert main(["stats", str(metrics), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE software_scans_total counter" in out
