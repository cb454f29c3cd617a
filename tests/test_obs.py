"""Unit tests for the observability primitives, recorder, and exporters."""

from __future__ import annotations

import json
import math
import sys
import threading

import pytest

from repro import obs
from repro.obs.exporters import (
    chrome_trace,
    load_snapshot,
    prometheus_text,
    to_json,
    to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


@pytest.fixture(autouse=True)
def _no_global_recorder():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestCounter:
    def test_inc(self):
        c = Counter("events", {})
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        c = Counter("events", {})
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_thread_safety(self):
        c = Counter("events", {})

        def worker():
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 5000


class TestGauge:
    def test_set_and_touched(self):
        g = Gauge("level", {})
        assert not g.touched
        g.set(4.0)
        assert g.touched and g.value == 4.0
        g.inc(1)
        assert g.value == 5.0


class TestHistogram:
    def test_observe_stats(self):
        h = Histogram("lat", {}, buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.min == 0.05 and h.max == 50.0
        assert h.bucket_counts == [1, 2, 1, 1]  # last slot = overflow
        assert h.mean == pytest.approx(56.05 / 5)

    def test_boundary_goes_to_lower_bucket(self):
        h = Histogram("lat", {}, buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", {}, buckets=(2.0, 1.0))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricRegistry()
        a = reg.counter("x", label="1")
        b = reg.counter("x", label="1")
        c = reg.counter("x", label="2")
        assert a is b and a is not c
        assert len(reg) == 2

    def test_kind_conflict(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_get_without_create(self):
        reg = MetricRegistry()
        assert reg.get("missing") is None
        reg.counter("x", a="1").inc()
        assert reg.get("x", a="1").value == 1

    def test_merge_counters_sum_exactly(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.counter("only_b").inc(1)
        a.merge(b.snapshot())
        assert a.get("n").value == 7
        assert a.get("only_b").value == 1

    def test_merge_histograms_exactly(self):
        a, b = MetricRegistry(), MetricRegistry()
        oracle = MetricRegistry()
        for i, v in enumerate((0.001, 0.3, 2.0, 40.0, 0.0005)):
            (a if i % 2 else b).histogram("lat").observe(v)
            oracle.histogram("lat").observe(v)
        a.merge(b)
        merged, direct = a.get("lat"), oracle.get("lat")
        assert merged.bucket_counts == direct.bucket_counts
        assert merged.count == direct.count
        assert merged.sum == pytest.approx(direct.sum)
        assert merged.min == direct.min and merged.max == direct.max

    def test_merge_histogram_bucket_mismatch(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_gauge_touched_wins(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("g")  # never written
        b.gauge("g").set(9)
        a.merge(b)
        assert a.get("g").value == 9 and a.get("g").touched
        # an untouched incoming gauge does not clobber a written one
        c = MetricRegistry()
        c.gauge("g")
        a.merge(c)
        assert a.get("g").value == 9

    def test_merge_spans_concatenate(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.record_span("s", 1.0, 0.5, pid=1, tid=1)
        b.record_span("t", 2.0, 0.25, pid=2, tid=2, arg="x")
        a.merge(b.snapshot())
        assert [s.name for s in a.spans] == ["s", "t"]
        assert a.spans[1].args == {"arg": "x"}

    def test_snapshot_is_json_able(self):
        reg = MetricRegistry()
        reg.counter("n", k="v").inc()
        reg.histogram("h").observe(0.1)
        reg.record_span("s", 1.0, 0.1)
        json.dumps(reg.snapshot())

    def test_clear(self):
        reg = MetricRegistry()
        reg.counter("n").inc()
        reg.record_span("s", 1.0, 0.1)
        reg.clear()
        assert len(reg) == 0 and reg.spans == []


class TestBundles:
    """Hot call sites record into a bundle with one ``add`` call."""

    BUNDLE = obs.MetricBundle([
        ("counter", "scans_total", {"backend": "native"}),
        ("counter", "misses_total", {}),
        ("histogram", "scan_seconds", {"backend": "native"}, (0.1, 1.0)),
        ("gauge", "depth", {}),
    ])

    def values(self, reg):
        return {(m["name"], tuple(sorted(m["labels"].items()))):
                m.get("value", m.get("count"))
                for m in reg.snapshot()["metrics"]}

    def test_add_records_in_order_and_skips_none(self):
        reg = MetricRegistry()
        reg.add(self.BUNDLE, (2, 0, 0.5, None))
        reg.add(self.BUNDLE, (1, 3, 2.0, 7))
        assert self.values(reg) == {
            ("scans_total", (("backend", "native"),)): 3.0,
            ("misses_total", ()): 3.0,
            ("scan_seconds", (("backend", "native"),)): 2,
            ("depth", ()): 7.0,
        }
        hist = reg.get("scan_seconds", backend="native")
        assert hist.bucket_counts == [0, 1, 1] and hist.sum == 2.5
        with pytest.raises(ValueError):
            reg.add(self.BUNDLE, (-1, 0, None, None))

    def test_handles_are_cached_until_the_registry_is_cleared(self):
        reg = MetricRegistry()
        reg.add(self.BUNDLE, (5, 5, 0.5, 1))
        first = reg.handles(self.BUNDLE)
        assert reg.handles(self.BUNDLE) == first
        assert reg.get("scans_total", backend="native") is first[0]
        reg.clear()
        assert len(reg) == 0 and reg.get("scans_total",
                                         backend="native") is None
        reg.add(self.BUNDLE, (1, 0, None, None))
        second = reg.handles(self.BUNDLE)
        assert all(a is not b for a, b in zip(first, second))
        assert reg.get("scans_total", backend="native").value == 1.0
        assert reg.get("misses_total").value == 0.0
        assert reg.get("scan_seconds", backend="native").count == 0
        assert reg.get("depth").touched is False
        assert first[0].value == 5.0 and len(reg) == 4

    def test_a_bundle_over_existing_instruments_still_records(self):
        reg = MetricRegistry()
        reg.counter("misses_total").inc(2)
        reg.add(self.BUNDLE, (1, 1, None, None))
        reg.add(self.BUNDLE, (1, 1, None, None))
        assert reg.get("misses_total").value == 4.0
        assert reg.get("scans_total", backend="native").value == 2.0

    def test_threads_add_exactly(self):
        reg = MetricRegistry()

        def worker():
            for _ in range(2000):
                reg.add(self.BUNDLE, (1, 2, 0.5, None))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.get("scans_total", backend="native").value == 16000
        assert reg.get("misses_total").value == 32000
        assert reg.get("scan_seconds", backend="native").count == 16000

    def test_declared_series_exist_at_zero_once_read(self):
        reg = MetricRegistry()
        reg.declare_series("reexec_total", "segment", 3)
        reg.counter("reexec_total", segment=2).inc()
        assert [(m.labels["segment"], m.value) for m in reg.metrics()] == [
            ("1", 0.0), ("2", 1.0), ("3", 0.0)]
        reg.declare_series("reexec_total", "segment", 2)
        reg.clear()
        reg.declare_series("reexec_total", "segment", 1)
        assert len(reg) == 1

    def test_concurrent_reads_create_declared_series_once(self):
        def reader(reg, barrier, seen):
            barrier.wait()
            try:
                seen.append(len(reg.snapshot()["metrics"]))
            except Exception as exc:
                seen.append(exc)

        # switch threads often, so the readers interleave inside a read
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                reg = MetricRegistry()
                reg.declare_series("reexec_total", "segment", 64)
                barrier, seen = threading.Barrier(4), []
                threads = [threading.Thread(target=reader,
                                            args=(reg, barrier, seen))
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert seen == [64] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_disabled_facade_records_nothing(self):
        obs.disable()
        obs.add(self.BUNDLE, (1, 1, 0.5, 1))
        obs.declare_series("reexec_total", "segment", 3)
        with obs.using() as reg:
            obs.add(self.BUNDLE, (1, 0, None, None))
        assert reg.get("scans_total", backend="native").value == 1.0


class TestRecorder:
    def test_disabled_returns_noop(self):
        assert obs.counter("x") is obs.NOOP_METRIC
        assert obs.gauge("x") is obs.NOOP_METRIC
        assert obs.histogram("x") is obs.NOOP_METRIC
        assert obs.span("x") is obs.NOOP_SPAN
        obs.counter("x").inc()  # all no-ops, nothing raises
        obs.gauge("x").set(1)
        obs.histogram("x").observe(1)
        with obs.span("x"):
            pass
        obs.record_span("x", 0.0, 0.0)

    def test_enable_routes_to_registry(self):
        reg = obs.enable()
        obs.counter("n").inc(2)
        with obs.span("work", tag="a"):
            pass
        assert reg.get("n").value == 2
        assert len(reg.spans) == 1
        assert reg.spans[0].name == "work"
        assert reg.spans[0].args == {"tag": "a"}
        assert reg.spans[0].duration >= 0

    def test_using_restores_previous(self):
        outer = obs.enable()
        with obs.using() as inner:
            assert obs.active() is inner
            obs.counter("inner_only").inc()
        assert obs.active() is outer
        assert outer.get("inner_only") is None
        assert inner.get("inner_only").value == 1

    def test_using_restores_disabled(self):
        with obs.using():
            assert obs.is_enabled()
        assert not obs.is_enabled()


class TestExporters:
    @pytest.fixture
    def registry(self):
        reg = MetricRegistry()
        reg.counter("events_total", kind="a").inc(3)
        reg.gauge("depth").set(2.5)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        reg.record_span("phase", 100.0, 0.25, pid=7, tid=9, step=1)
        return reg

    def test_prometheus_text(self, registry):
        text = prometheus_text(registry)
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_chrome_trace(self, registry):
        trace = chrome_trace(registry)
        events = trace["traceEvents"]
        assert len(events) == 1
        event = events[0]
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["ts"] == pytest.approx(100.0 * 1e6)
        assert event["dur"] == pytest.approx(0.25 * 1e6)
        assert event["pid"] == 7 and event["tid"] == 9
        assert event["args"] == {"step": 1}

    def test_jsonl_roundtrip(self, registry, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metrics(registry, path)
        snap = load_snapshot(path)
        assert {m["name"] for m in snap["metrics"]} == {
            "events_total", "depth", "lat_seconds",
        }
        assert len(snap["spans"]) == 1
        # the reloaded snapshot merges exactly into a fresh registry
        reg = MetricRegistry()
        reg.merge(snap)
        assert reg.get("events_total", kind="a").value == 3

    def test_json_roundtrip(self, registry, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(registry, path)
        snap = load_snapshot(path)
        assert snap == registry.snapshot()

    def test_prom_suffix(self, registry, tmp_path):
        path = tmp_path / "m.prom"
        write_metrics(registry, path)
        assert path.read_text() == prometheus_text(registry)

    def test_write_trace(self, registry, tmp_path):
        path = tmp_path / "t.json"
        write_trace(registry, path)
        trace = json.loads(path.read_text())
        assert trace["traceEvents"][0]["name"] == "phase"

    def test_to_json_to_jsonl_text(self, registry):
        assert json.loads(to_json(registry)) == registry.snapshot()
        lines = to_jsonl(registry).splitlines()
        assert len(lines) == 4  # 3 metrics + 1 span
        assert all(json.loads(line) for line in lines)
