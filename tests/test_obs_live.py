"""Live observability plane: endpoint, traces, flight recorder, top.

Covers the acceptance surface of the live plane:

- the HTTP endpoint serves spec-compliant Prometheus text,
  ``/snapshot.json``, ``/trace.json``, ``/flight.json``, ``/healthz``;
- during a sharded fleet scan ``/metrics`` carries the shard gauges;
- one ``trace_id`` spans the parent and every ``segment_pool`` worker,
  reassembling into a single Chrome trace;
- the flight recorder rings are bounded, dump to JSON, and arm the
  dump-on-exception postmortem;
- the sampling profiler emits folded-stack flamegraph text;
- ``repro top`` renders snapshot deltas without a terminal;
- per-metric histogram bucket ladders stay exactly mergeable;
- ``MetricRegistry.merge`` is associative and commutative over random
  snapshots (hypothesis).
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.automata.builders import random_dfa
from repro.cli import main
from repro.core.partition import StatePartition
from repro.obs.live.flight import FlightRecorder
from repro.obs.live.top import histogram_quantile, render_top, top
from repro.obs.registry import DEFAULT_BUCKETS, MetricRegistry, SpanEvent
from repro.regex.compile import compile_ruleset
from repro.software import segment_pool, software_cse_scan
from repro.stream import CHUNK_LATENCY_BUCKETS, FleetScanner, StreamScanner


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the live plane fully disarmed."""
    obs.disable_flight()
    obs.disable()
    yield
    obs.disable_flight()
    obs.disable()


@pytest.fixture
def dfa(rng):
    return random_dfa(16, 8, rng)


@pytest.fixture
def word(rng):
    return rng.integers(0, 8, size=6000)


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


# one full sample line: name{labels} value  (labels optional)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def parse_prometheus(text):
    """Validate + index the exposition text: family -> help/type/samples."""
    families = {}
    for line in text.splitlines():
        assert line.strip(), "no blank lines in the exposition"
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"help": line.split(" ", 3)[3], "samples": []}
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert "type" not in families[name], f"duplicate TYPE for {name}"
            families[name]["type"] = kind
        else:
            assert _SAMPLE_RE.match(line), f"unparseable sample: {line!r}"
            sample_name = line.split("{", 1)[0].split(" ", 1)[0]
            family = sample_name
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix) and family[: -len(suffix)] in families:
                    family = family[: -len(suffix)]
            assert family in families, f"sample before HELP/TYPE: {line!r}"
            families[family]["samples"].append(line)
    for name, fam in families.items():
        assert "type" in fam, f"{name} has HELP but no TYPE"
    return families


class TestLiveServer:
    def test_endpoints(self):
        with obs.using() as registry:
            registry.counter("software_scans_total").inc(3)
            registry.histogram("stream_chunk_seconds").observe(0.01)
            registry.record_span("stream.feed", 1.0, 0.01, chunk=1)
            with obs.ObsServer(registry) as server:
                status, headers, body = fetch(server.url + "/metrics")
                assert status == 200
                assert headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                families = parse_prometheus(body.decode())
                assert "software_scans_total" in families

                status, _, body = fetch(server.url + "/snapshot.json")
                snap = json.loads(body)
                assert {m["name"] for m in snap["metrics"]} >= {
                    "software_scans_total", "stream_chunk_seconds",
                }

                status, _, body = fetch(server.url + "/trace.json")
                events = json.loads(body)["traceEvents"]
                assert [e["name"] for e in events] == ["stream.feed"]

                status, _, body = fetch(server.url + "/healthz")
                health = json.loads(body)
                assert health["status"] == "ok" and health["recording"]

    def test_not_found_and_flight_absent(self):
        with obs.using() as registry:
            with obs.ObsServer(registry) as server:
                with pytest.raises(urllib.error.HTTPError) as err:
                    fetch(server.url + "/nope")
                assert err.value.code == 404
                with pytest.raises(urllib.error.HTTPError) as err:
                    fetch(server.url + "/flight.json")
                assert err.value.code == 404

    def test_request_counter(self):
        with obs.using() as registry:
            with obs.ObsServer(registry) as server:
                fetch(server.url + "/healthz")
                fetch(server.url + "/healthz")
                fetch(server.url + "/metrics")
            assert registry.get(
                "obs_live_requests_total", path="/healthz"
            ).value == 2
            assert registry.get(
                "obs_live_requests_total", path="/metrics"
            ).value == 1

    def test_serve_enables_when_disabled(self):
        assert not obs.is_enabled()
        server = obs.serve(port=0)
        try:
            assert obs.is_enabled()
            status, _, body = fetch(server.url + "/healthz")
            assert json.loads(body)["recording"]
        finally:
            server.stop()

    def test_metrics_during_fleet_scan_has_shard_gauges(self, rng):
        dfas = [compile_ruleset([w]) for w in ("cat", "dog", "emu", "fox")]
        fleet = FleetScanner(dfas, n_segments=4, shard=True)
        assert fleet.plan is not None and fleet.plan.n_shards >= 1
        word = rng.integers(0, 256, size=4000)
        with obs.using() as registry:
            with obs.ObsServer(registry) as server:
                fleet.scan_wallclock(word, verify=False)
                _, _, body = fetch(server.url + "/metrics")
        families = parse_prometheus(body.decode())
        shard_samples = families["fleet_shard_wallclock_throughput"]["samples"]
        assert len(shard_samples) == fleet.plan.n_shards
        assert all('fsm="' in s for s in shard_samples)


class TestPrometheusSpec:
    def test_label_escaping(self):
        registry = MetricRegistry()
        registry.gauge(
            "weird", path='C:\\tmp\n"x"'
        ).set(1)
        text = obs.prometheus_text(registry)
        families = parse_prometheus(text)
        (sample,) = families["weird"]["samples"]
        assert '\\\\tmp' in sample and '\\n' in sample and '\\"x\\"' in sample
        assert "\n" not in sample

    def test_histogram_exposition(self):
        registry = MetricRegistry()
        h = registry.histogram("lat", buckets=(0.3, 1.0), op="scan")
        for v in (0.25, 0.5, 0.5, 5.0):
            h.observe(v)
        families = parse_prometheus(obs.prometheus_text(registry))
        samples = families["lat"]["samples"]
        assert families["lat"]["type"] == "histogram"
        buckets = [s for s in samples if s.startswith("lat_bucket")]
        # cumulative and ending in +Inf == _count
        assert buckets[0].endswith(" 1")      # le=0.3
        assert buckets[1].endswith(" 3")      # le=1.0
        assert 'le="+Inf"' in buckets[2] and buckets[2].endswith(" 4")
        assert any(s.startswith("lat_sum{") and s.endswith(" 6.25")
                   for s in samples)
        assert any(s.startswith("lat_count{") and s.endswith(" 4")
                   for s in samples)

    def test_every_family_has_help_and_type_once(self):
        registry = MetricRegistry()
        registry.counter("software_scans_total", backend="a").inc()
        registry.counter("software_scans_total", backend="b").inc()
        registry.counter("not_in_help_table_total").inc()
        text = obs.prometheus_text(registry)
        assert text.count("# HELP software_scans_total") == 1
        assert text.count("# TYPE software_scans_total") == 1
        families = parse_prometheus(text)
        assert "unregistered help" in families["not_in_help_table_total"]["help"]
        assert len(families["software_scans_total"]["samples"]) == 2


class TestTracePropagation:
    def test_trace_scope_mints_and_inherits(self):
        assert obs.current_trace_id() is None
        with obs.trace() as outer:
            assert obs.current_trace_id() == outer
            with obs.trace() as inner:
                assert inner == outer  # inherits by default
            with obs.trace(inherit=False) as fresh:
                assert fresh != outer
        assert obs.current_trace_id() is None

    def test_spans_carry_trace_id(self):
        with obs.using() as registry:
            with obs.trace() as tid:
                with obs.span("software.scan", backend="python"):
                    pass
            with obs.span("untraced"):
                pass
        spans = {s.name: s for s in registry.spans}
        assert spans["software.scan"].trace_id == tid
        assert spans["untraced"].trace_id is None
        # chrome trace filters by trace id and surfaces it in args
        events = obs.chrome_trace(registry.snapshot(), trace_id=tid)
        assert [e["name"] for e in events["traceEvents"]] == ["software.scan"]
        assert events["traceEvents"][0]["args"]["trace_id"] == tid

    def test_span_trace_id_survives_snapshot_roundtrip(self):
        event = SpanEvent(name="x", ts=1.0, duration=0.5, pid=1, tid=2,
                          args={"a": 1}, trace_id="abc123")
        assert SpanEvent.from_dict(event.to_dict()) == event
        plain = SpanEvent(name="y", ts=1.0, duration=0.5, pid=1, tid=2)
        assert "trace_id" not in plain.to_dict()
        assert SpanEvent.from_dict(plain.to_dict()).trace_id is None

    @pytest.mark.slow
    def test_pool_spans_share_one_trace(self, dfa, word):
        partition = StatePartition.discrete(dfa.num_states)
        with obs.using() as registry:
            with segment_pool(dfa, max_workers=2) as executor:
                software_cse_scan(dfa, word, partition, n_segments=4,
                                  executor=executor, backend="python")
        spans = [s for s in registry.spans if s.trace_id is not None]
        trace_ids = {s.trace_id for s in spans}
        assert len(trace_ids) == 1
        (tid,) = trace_ids
        segment_spans = [s for s in spans if s.name == "software.segment"]
        assert len(segment_spans) == 4  # scalar segment 0 + 3 enumerative
        worker_spans = [s for s in segment_spans
                        if s.args.get("worker")]
        assert len(worker_spans) == 3
        assert os.getpid() not in {s.pid for s in worker_spans}
        scan_span = next(s for s in spans if s.name == "software.scan")
        assert scan_span.trace_id == tid
        events = obs.chrome_trace(registry.snapshot(), trace_id=tid)
        assert len(events["traceEvents"]) == len(spans)


class TestFlightRecorder:
    def test_ring_bounds_and_dropped(self):
        flight = FlightRecorder(max_spans=4, max_scans=2)
        for i in range(7):
            flight.record_span(
                SpanEvent(name=f"s{i}", ts=float(i), duration=0.0,
                          pid=1, tid=1)
            )
            flight.record_scan(kind="software", i=i)
        snap = flight.snapshot()
        assert len(snap["spans"]) == 4 and len(flight) == 4
        assert [s["name"] for s in snap["spans"]] == ["s3", "s4", "s5", "s6"]
        assert snap["dropped_spans"] == 3
        assert [s["i"] for s in snap["scans"]] == [5, 6]

    def test_enable_requires_registry(self):
        with pytest.raises(RuntimeError):
            obs.enable_flight()

    def test_scan_summaries_from_software_scan(self, dfa, word):
        partition = StatePartition.discrete(dfa.num_states)
        with obs.using() as registry:
            flight = obs.enable_flight()
            software_cse_scan(dfa, word, partition, n_segments=4,
                              backend="python")
            snap = flight.snapshot()
        scans = [s for s in snap["scans"] if s["kind"] == "software"]
        assert len(scans) == 1
        record = scans[0]
        assert record["backend"] == "python"
        assert record["n_symbols"] == len(word)
        assert record["trace_id"]
        # the registry's spans also landed in the ring via the observer
        assert any(s["name"] == "software.scan" for s in snap["spans"])
        assert registry is not None

    def test_dump_and_format_tail(self, tmp_path):
        flight = FlightRecorder()
        flight.record_scan(kind="fleet", n_shards=2)
        flight.record_span(SpanEvent(name="fleet.scan", ts=1.0,
                                     duration=0.002, pid=7, tid=1,
                                     trace_id="t1"))
        path = flight.dump(tmp_path / "flight.json", reason="test")
        payload = json.loads(path.read_text())
        assert payload["reason"] == "test"
        text = obs.format_tail(payload)
        assert "kind=fleet" in text and "fleet.scan" in text
        assert "trace=t1" in text
        assert "empty" in obs.format_tail({"spans": [], "scans": []})

    def test_excepthook_dumps_on_exception(self, tmp_path):
        target = tmp_path / "post.json"
        with obs.using():
            obs.enable_flight()
            obs.record_scan(kind="software", backend="dense")
            previous = obs.install_excepthook(path=target)
            try:
                hook = sys.excepthook
                hook(ValueError, ValueError("boom"), None)
            finally:
                sys.excepthook = previous
        payload = json.loads(target.read_text())
        assert payload["reason"] == "ValueError: boom"
        assert payload["scans"][0]["backend"] == "dense"

    def test_flight_served_when_armed(self):
        with obs.using() as registry:
            obs.enable_flight()
            obs.record_scan(kind="stream", chunk=1)
            with obs.ObsServer(registry) as server:
                _, _, body = fetch(server.url + "/flight.json")
        assert json.loads(body)["scans"][0]["kind"] == "stream"


class TestProfiler:
    def test_folded_output(self):
        def busy(deadline):
            import time
            total = 0.0
            while time.perf_counter() < deadline:
                total += sum(range(500))
            return total

        import time
        with obs.using() as registry:
            with obs.profile(interval=0.001) as prof:
                busy(time.perf_counter() + 0.25)
        assert prof.n_samples > 0
        folded = prof.folded()
        for line in folded.splitlines():
            assert re.match(r"^\S.* \d+$", line)
        assert any("busy" in stack for stack in prof.samples)
        leaves = dict(prof.hotspots(5))
        assert sum(leaves.values()) <= prof.n_samples
        assert registry.get("obs_profiler_samples_total").value \
            == prof.n_samples

    def test_stop_idempotent(self):
        prof = obs.SamplingProfiler(interval=0.001)
        prof.start()
        prof.stop()
        prof.stop()
        assert prof.folded() == "" or prof.n_samples >= 0


class TestTop:
    def test_histogram_quantile(self):
        metric = {
            "count": 10, "max": 9.0,
            "buckets": [0.1, 1.0, 5.0],
            "bucket_counts": [5, 3, 1],
        }
        assert histogram_quantile(metric, 0.5) == 0.1
        assert histogram_quantile(metric, 0.8) == 1.0
        assert histogram_quantile(metric, 0.99) == 9.0  # +Inf -> max
        assert histogram_quantile({"count": 0}, 0.5) is None

    def test_render_and_loop_with_callable_source(self):
        def snap_at(symbols):
            registry = MetricRegistry()
            registry.counter("software_symbols_total").inc(symbols)
            registry.counter("kernels_positions_total",
                             backend="dense").inc(symbols)
            registry.gauge("fleet_shard_throughput", shard=0).set(1e6)
            h = registry.histogram("stream_chunk_seconds")
            h.observe(0.002)
            return registry.snapshot()

        snapshots = [snap_at(0), snap_at(1_000_000), snap_at(3_000_000)]
        frames = iter(snapshots)
        out = io.StringIO()
        rendered = top(lambda: next(frames), interval=0.0, iterations=3,
                       out=out, clear=False)
        assert rendered == 3
        text = out.getvalue()
        assert "repro top" in text
        assert "positions by backend" in text and "dense" in text
        assert "fleet shards:" in text and "shard 0" in text
        assert "chunk latency" in text
        # second frame sees the 1M-symbol delta
        frame = render_top(snapshots[0], snapshots[1], dt=1.0, tick=1)
        assert "1.00 Msym/s" in frame

    def test_backend_decisions_and_prefilter_rows(self):
        registry = MetricRegistry()
        registry.counter("kernels_backend_resolved_total", requested="auto",
                         backend="prefilter", reason="literal-certified").inc(3)
        registry.counter("kernels_backend_resolved_total", requested="dense",
                         backend="dense", reason="explicit").inc()
        registry.counter("kernels_prefilter_skipped_bytes_total").inc(4096)
        registry.counter("kernels_prefilter_windows_total").inc(4)
        registry.counter("kernels_prefilter_fallbacks_total").inc(1)
        frame = render_top(None, registry.snapshot(), dt=1.0)
        assert "backend decisions:" in frame
        assert "resolve auto->prefilter" in frame
        assert "x3" in frame and "(literal-certified)" in frame
        assert "resolve dense->dense" in frame and "(explicit)" in frame
        assert "prefilter" in frame and "fallbacks 1" in frame

    def test_file_source(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("software_scans_total").inc()
        path = tmp_path / "snap.json"
        obs.write_metrics(registry.snapshot(), path)
        out = io.StringIO()
        assert top(str(path), interval=0.0, iterations=2, out=out,
                   clear=False) == 2
        assert "repro top" in out.getvalue()


class TestBucketOverrides:
    def test_call_site_ladder(self):
        with obs.using() as registry:
            obs.histogram("kernels_batch_seconds",
                          buckets=(0.5, 1.0)).observe(0.7)
            metric = registry.get("kernels_batch_seconds")
        assert metric.buckets == (0.5, 1.0)
        assert metric.bucket_counts == [0, 1, 0]  # le=0.5, le=1.0, +Inf

    def test_rebucket_only_when_empty(self):
        registry = MetricRegistry()
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        registry.histogram("lat", buckets=(0.5, 5.0))  # empty: adopts
        assert h.buckets == (0.5, 5.0)
        h.observe(0.7)
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(9.0,))
        # same ladder is always fine
        assert registry.histogram("lat", buckets=(0.5, 5.0)) is h

    def test_merge_adopts_buckets_into_empty(self):
        worker = MetricRegistry()
        worker.histogram("lat", buckets=(0.25, 0.75)).observe(0.5)
        parent = MetricRegistry()
        parent.histogram("lat")  # default ladder, no observations
        parent.merge(worker.snapshot())
        merged = parent.get("lat")
        assert merged.buckets == (0.25, 0.75)
        assert merged.bucket_counts == [0, 1, 0] and merged.count == 1

    def test_stream_uses_chunk_ladder(self, dfa, rng):
        scanner = StreamScanner(dfa, backend="python")
        with obs.using() as registry:
            scanner.feed(rng.integers(0, 8, size=100))
        metric = registry.get("stream_chunk_seconds")
        assert metric.buckets == CHUNK_LATENCY_BUCKETS
        assert metric.buckets[0] == pytest.approx(1e-5)

    @pytest.mark.slow
    def test_pool_merge_stays_exact_with_overrides(self, dfa, word):
        partition = StatePartition.discrete(dfa.num_states)
        with obs.using() as registry:
            with segment_pool(dfa, max_workers=2) as executor:
                software_cse_scan(dfa, word, partition, n_segments=4,
                                  executor=executor, backend="python")
        assert registry.get("software_symbols_total").value == len(word)
        # worker-side counters merged in exactly (3 enumerative segments)
        assert registry.get("software_worker_segments_total").value == 3


# ---------------------------------------------------------------------------
# merge algebra (hypothesis)
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a_total", "b_total", "lat_seconds"])
_labels = st.fixed_dictionaries({}, optional={
    "backend": st.sampled_from(["python", "dense"]),
})

# integer-valued increments/observations keep every sum exact, so the
# algebra holds to the bit (float addition alone is not associative)
_counter_ops = st.lists(
    st.tuples(_names, _labels,
              st.integers(min_value=0, max_value=10**6).map(float)),
    max_size=8,
)
_histogram_ops = st.lists(
    st.tuples(_labels, st.integers(min_value=0, max_value=100).map(float)),
    max_size=8,
)
_span_ops = st.lists(
    st.tuples(st.sampled_from(["scan", "segment"]),
              st.floats(min_value=0, max_value=10, allow_nan=False),
              st.none() | st.text("ab", min_size=1, max_size=4)),
    max_size=4,
)


@st.composite
def snapshots(draw):
    registry = MetricRegistry()
    for name, labels, value in draw(_counter_ops):
        registry.counter(name, **labels).inc(value)
    for labels, value in draw(_histogram_ops):
        registry.histogram("hist_seconds", **labels).observe(value)
    for name, ts, trace_id in draw(_span_ops):
        registry.record_span(name, ts, 0.001, trace_id=trace_id, k=1)
    return registry.snapshot()


def canonical(registry):
    """Order-independent form of a registry's contents."""
    snap = registry.snapshot()
    metrics = sorted(
        (json.dumps(m, sort_keys=True) for m in snap["metrics"])
    )
    spans = sorted(
        (json.dumps(s, sort_keys=True) for s in snap["spans"])
    )
    return metrics, spans


def merged(*snaps):
    registry = MetricRegistry()
    for snap in snaps:
        registry.merge(snap)
    return registry


class TestMergeAlgebra:
    """merge is associative + commutative over counter/histogram/span
    snapshots (gauges are last-writer-wins by design and excluded)."""

    @settings(max_examples=40, deadline=None)
    @given(a=snapshots(), b=snapshots(), c=snapshots())
    def test_associative(self, a, b, c):
        left = merged(merged(a, b).snapshot(), c)
        right = merged(a, merged(b, c).snapshot())
        assert canonical(left) == canonical(right)

    @settings(max_examples=40, deadline=None)
    @given(a=snapshots(), b=snapshots())
    def test_commutative(self, a, b):
        assert canonical(merged(a, b)) == canonical(merged(b, a))

    @settings(max_examples=25, deadline=None)
    @given(a=snapshots())
    def test_identity(self, a):
        empty = MetricRegistry().snapshot()
        assert canonical(merged(a, empty)) == canonical(merged(empty, a))


class TestCliLive:
    @pytest.fixture
    def rules_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("cat\ndog\n")
        return str(path)

    @pytest.fixture
    def input_file(self, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(b"the cat chased the dog " * 100)
        return str(path)

    def test_software_metrics_port_and_profile(self, rules_file, input_file,
                                               tmp_path, capsys):
        folded = tmp_path / "scan.folded"
        code = main([
            "software", rules_file, input_file,
            "--backend", "dense", "--segments", "4", "--trivial",
            "--metrics-port", "0", "--profile-out", str(folded),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "live metrics: http://127.0.0.1:" in out
        assert "profile:" in out
        assert folded.exists()
        assert not obs.is_enabled()  # torn down after the run
        assert obs.active_flight() is None

    def test_obs_tail_reads_dump(self, tmp_path, capsys):
        flight = FlightRecorder()
        flight.record_scan(kind="software", backend="dense")
        dump = flight.dump(tmp_path / "flight.json")
        assert main(["obs", "tail", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "kind=software" in out and "backend=dense" in out

    def test_top_iterations(self, tmp_path, capsys):
        registry = MetricRegistry()
        registry.counter("software_symbols_total").inc(10)
        snap = tmp_path / "snap.json"
        obs.write_metrics(registry.snapshot(), snap)
        code = main(["top", str(snap), "--iterations", "1",
                     "--interval", "0", "--no-clear"])
        assert code == 0
        assert "repro top" in capsys.readouterr().out
