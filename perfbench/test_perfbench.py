"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, obs_snapshot, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0),
        Span("mid", 1.0, 7.0, parent=0),
        Span("leaf", 2.0, 5.0, parent=1),
        Span("mid2", 8.0, 9.5, parent=0),
    ]
    assert self_times(spans) == [10.0 - 6.0 - 1.5, 6.0 - 3.0, 3.0, 1.5]


class _Calls:
    """A stand-in module: ``outer`` calls ``inner`` twice."""

    @staticmethod
    def inner():
        return sum(range(1000))

    @staticmethod
    def outer():
        return _Calls.inner() + _Calls.inner()


def test_wrapped_calls_nest_and_uninstall_restores():
    original = _Calls.__dict__["inner"]
    tracer = Tracer()
    assert tracer.wrap(_Calls, "inner", "layer.inner")
    assert tracer.wrap(_Calls, "outer", "layer.outer")
    assert _Calls.outer() == 2 * sum(range(1000))
    spans = tracer.take()
    tracer.uninstall()
    assert _Calls.__dict__["inner"] is original

    assert [s.name for s in spans] == ["layer.outer", "layer.inner",
                                       "layer.inner"]
    assert [s.parent for s in spans] == [None, 0, 0]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(
        spans[0].duration - spans[1].duration - spans[2].duration)
    assert all(t >= 0 for t in selfs)


def test_missing_attribute_reports_zero_calls():
    tracer = Tracer()
    assert not tracer.wrap("repro.software", "no_such_layer", "gone.layer")
    assert tracer.wrapped == {"gone.layer": False}
    metrics = layers.layer_metrics([], [], [], [], calls=5)
    assert set(metrics) == set(layers.UNITS)
    assert all(value == 0 for value in metrics.values())


def test_chrome_trace_export(scratch):
    from repro.obs.exporters import write_trace

    spans = [Span("a", 1.0, 1.5, pid=7), Span("b", 1.1, 1.2, pid=7, parent=0)]
    path = write_trace(obs_snapshot(spans, self_times(spans)),
                       scratch / "t.json")
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["dur"] == pytest.approx(0.5e6)
    assert events[0]["args"]["self_ms"] == pytest.approx(400.0)


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    value, beyond = run.tail_latency(samples, 95.0)
    assert (value, beyond) == (190.0, 10)
    with pytest.raises(ValueError):
        run.tail_latency(samples[:199], 95.0)


class _Instant(workloads.Workload):
    name = "instant"

    def call(self):
        return 10, 0

    def check(self, outcome):
        return True


def test_loop_runs_until_the_tail_has_ten_beyond():
    samples, failed, nbytes = run.measure(_Instant(), 0, tail_pct=90.0)
    assert len(samples) == 100
    assert run.tail_latency(samples, 90.0)[1] == 10
    assert (failed, nbytes) == (0, 1000)


def test_each_call_is_scaled_by_the_gauge_around_it():
    ref = hostspeed.REFERENCE_S
    # the host runs at half speed for the first three calls, then at full
    gauge = [2 * ref] * 3 + [ref] * 4
    calls = [0.02] * 3 + [0.01] * 3
    scaled = hostspeed.scale_calls(calls, gauge, window=0)
    assert scaled == pytest.approx([0.01] * 6)
    # a window takes the median of the neighbours' samples, so one slow
    # gauge sample moves no call
    gauge = [ref, ref, 5 * ref, ref, ref]
    calls = [0.01] * 4
    assert hostspeed.scale_calls(calls, gauge, window=0)[2] == \
        pytest.approx(0.002)
    assert hostspeed.scale_calls(calls, gauge, window=1) == \
        pytest.approx(calls)
    with pytest.raises(ValueError):
        hostspeed.scale_calls(calls, gauge[:3])


def test_loop_samples_the_gauge_around_every_call():
    gauge = hostspeed.Gauge()
    samples, _, _ = run.measure(_Instant(), 0, tail_pct=90.0, gauge=gauge)
    assert len(gauge.samples) == len(samples) + 1
    assert gauge.cpu_s > 0


def test_final_state_shortcut_matches_full_run():
    from repro.automata.builders import random_dfa
    from repro.regex.compile import compile_ruleset
    from repro.workloads import generate_ruleset

    rng = np.random.default_rng(3)
    text = rng.integers(97, 123, size=20_000, dtype=np.uint8)
    for i in range(4):
        dfa = compile_ruleset(generate_ruleset("ExactMatch", 3, 100 + i))
        assert workloads.final_state(dfa, text) == dfa.run(text)
    # a permutation never synchronizes: the full walk answers
    perm = random_dfa(8, 2, rng)
    perm.transitions[:] = np.roll(np.arange(8), 1)
    assert workloads.final_state(perm, text % 2) == perm.run(text % 2)


def test_packet_bytes_follow_packet_corpus():
    from repro.workloads.corpus import packet_corpus

    fast = workloads.packet_bytes(np.random.default_rng(1), 1 << 18)
    slow = packet_corpus(np.random.default_rng(1), 1 << 18).astype(np.uint8)
    assert fast.dtype == np.uint8 and fast.size == slow.size
    for data in (fast, slow):
        gaps = np.diff(np.flatnonzero(data == 0))
        assert 401 <= gaps.min() and gaps.max() <= 406  # packet + delimiter
        # ~0.02 keywords per token over 14 keywords: ~310 of each
        assert 200 < data.tobytes().count(b"admin") < 420
    assert set(np.unique(fast)) == set(np.unique(slow))


@pytest.fixture
def scratch():
    """A directory inside the checkout's ignored build tree."""
    path = run.BUILD / "tests"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def small_bulk(monkeypatch, scratch):
    monkeypatch.setattr(workloads.BulkRandom64, "BYTES", 1 << 14)
    monkeypatch.setenv("TMPDIR", str(run.BUILD / "tmp"))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(run.BUILD / "native"))
    monkeypatch.setattr(run, "OUT", scratch)


def _wrong_final_state(monkeypatch):
    scan = workloads.scan_with_cache

    def wrong(*args, **kwargs):
        result = scan(*args, **kwargs)
        result.final_state = (result.final_state + 1) % 64
        return result

    monkeypatch.setattr(workloads, "scan_with_cache", wrong)


def test_gate_counts_a_wrong_final_state(small_bulk, monkeypatch, scratch):
    bulk = workloads.BulkRandom64(1, scratch)
    bulk.setup()
    bulk.reference()
    assert run.measure(bulk, 0, tail_pct=50.0)[1] == 0

    _wrong_final_state(monkeypatch)
    samples, failed, _ = run.measure(bulk, 0, tail_pct=50.0)
    assert failed == len(samples) == 20


def test_command_exits_nonzero_on_wrong_results(small_bulk, monkeypatch,
                                                capsys):
    _wrong_final_state(monkeypatch)
    argv = ["--workload", "bulk-random64", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_traced_run_reports_every_layer(small_bulk, capsys):
    argv = ["--workload", "bulk-random64", "--seed", "2", "--seconds", "1",
            "--trace", "1"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(layers.UNITS)
    assert metrics["kernels.batch_ms"] > 0
    assert metrics["kernels.resolve_calls"] == 1
    assert metrics["fleet.units"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
