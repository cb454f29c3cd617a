"""Thread-safe metric primitives and the named registry.

Three instrument kinds, modeled on the usual time-series trio:

- :class:`Counter` — monotone accumulator (events, symbols, re-execs);
- :class:`Gauge` — last-written value (per-machine throughput);
- :class:`Histogram` — log-bucketed distribution with exact count / sum /
  min / max (chunk latencies).

All mutation goes through a per-metric lock, so engines running on a
thread pool can share one registry.  A :class:`MetricRegistry` also
collects :class:`SpanEvent` timing records (wall-clock start + duration,
tagged with pid/tid) which the exporters turn into Chrome trace-event
JSON.

Cross-process aggregation works by value, not by reference: a worker
process records into its *own* registry, ships ``registry.snapshot()``
(a plain JSON-able dict) back over the pool's result channel, and the
parent folds it in with :meth:`MetricRegistry.merge`.  Merging is exact —
counters sum, histogram buckets add element-wise, spans concatenate —
so the merged registry is indistinguishable from one that observed every
event locally.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricBundle",
    "MetricRegistry",
    "SpanEvent",
    "DEFAULT_BUCKETS",
]

#: 1-2.5-5 log ladder from 1 microsecond to 500 seconds — wide enough for
#: both per-segment kernel timings and whole-suite spans.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(m * 10.0 ** e, 12) for e in range(-6, 3) for m in (1.0, 2.5, 5.0)
)

LabelKey = Tuple[Tuple[str, str], ...]

#: this process's pid, refreshed in a forked child: spans read it
#: without a system call
_PID = [os.getpid()]
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=lambda: _PID.__setitem__(0, os.getpid()))


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _validated_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if list(bounds) != sorted(bounds):
        raise ValueError("histogram buckets must be sorted ascending")
    return bounds


class _Metric:
    """Shared name/labels/lock plumbing of the three instrument kinds."""

    __slots__ = ("name", "labels", "_lock")
    kind = "metric"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    def _base_dict(self) -> Dict:
        return {"name": self.name, "kind": self.kind, "labels": dict(self.labels)}


class Counter(_Metric):
    """Monotone accumulator."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict:
        out = self._base_dict()
        out["value"] = self.value
        return out

    def merge_dict(self, other: Dict) -> None:
        with self._lock:
            self.value += float(other["value"])


class Gauge(_Metric):
    """Last-written value; ``touched`` distinguishes 0.0 from never-set."""

    __slots__ = ("value", "touched")
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0
        self.touched = False

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = float(value)
            self.touched = True

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount
            self.touched = True

    def to_dict(self) -> Dict:
        out = self._base_dict()
        out["value"] = self.value
        out["touched"] = self.touched
        return out

    def merge_dict(self, other: Dict) -> None:
        # by-value merge: an incoming snapshot that actually wrote the
        # gauge wins over a local default
        if other.get("touched"):
            with self._lock:
                self.value = float(other["value"])
                self.touched = True


class Histogram(_Metric):
    """Log-bucketed distribution with exact count / sum / min / max.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` and
    ``> buckets[i-1]``; the final slot is the overflow bucket (+Inf).
    Counts are stored per-bucket (not cumulative); the Prometheus
    exporter cumulates at render time.

    Bucket bounds default to :data:`DEFAULT_BUCKETS` but are a per-metric
    choice: call sites pass ``buckets=`` for a ladder matched to the
    quantity (sub-ms chunk latencies vs whole-suite spans).  A histogram
    that has not observed anything yet may be *rebucketed*
    (:meth:`rebucket`), which is how an empty local instrument adopts the
    bounds of an incoming cross-process snapshot so the merge stays exact.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels)
        self.buckets = _validated_buckets(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def rebucket(self, buckets: Sequence[float]) -> None:
        """Replace the bucket bounds; only legal before any observation."""
        bounds = _validated_buckets(buckets)
        with self._lock:
            if self.count:
                raise ValueError(
                    f"histogram {self.name!r} already has {self.count} "
                    "observations; bucket bounds are frozen"
                )
            self.buckets = bounds
            self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self._observe_locked(float(value))

    def _observe_locked(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        out = self._base_dict()
        out.update(
            buckets=list(self.buckets),
            bucket_counts=list(self.bucket_counts),
            count=self.count,
            sum=self.sum,
            min=None if self.count == 0 else self.min,
            max=None if self.count == 0 else self.max,
        )
        return out

    def merge_dict(self, other: Dict) -> None:
        if list(other["buckets"]) != list(self.buckets):
            # a local instrument that never observed anything adopts the
            # incoming bounds, so per-call-site bucket overrides still
            # merge exactly across processes
            if self.count == 0:
                self.rebucket(other["buckets"])
            else:
                raise ValueError(
                    f"cannot merge histogram {self.name!r}: bucket bounds "
                    "differ"
                )
        with self._lock:
            for i, c in enumerate(other["bucket_counts"]):
                self.bucket_counts[i] += int(c)
            self.count += int(other["count"])
            self.sum += float(other["sum"])
            if other.get("min") is not None:
                self.min = min(self.min, float(other["min"]))
            if other.get("max") is not None:
                self.max = max(self.max, float(other["max"]))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _add_locked(metric: _Metric, amount: Union[int, float]) -> None:
    """:meth:`MetricRegistry.add`'s update of one instrument, under its
    lock."""
    if type(metric) is Counter:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        metric.value += amount
    elif type(metric) is Histogram:
        metric._observe_locked(float(amount))
    else:
        metric.value = float(amount)
        metric.touched = True


class MetricBundle:
    """A fixed set of instruments that one call site records into.

    A hot call site (one scan's epilogue) builds its bundle once and
    records with :meth:`MetricRegistry.add`: one identity-keyed lookup
    finds the instruments, with no label sorting, and they share one
    lock.  ``specs`` are ``(kind, name, labels)`` or ``(kind, name,
    labels, buckets)`` with ``kind`` one of ``"counter"``, ``"gauge"``,
    ``"histogram"``; amounts and handles follow their order.
    """

    __slots__ = ("specs", "counts")

    def __init__(self, specs: Iterable[Tuple]) -> None:
        self.specs = tuple(
            (_KINDS[spec[0]], spec[1],
             {k: str(v) for k, v in spec[2].items()}, label_key(spec[2]),
             None if len(spec) < 4 else _validated_buckets(spec[3]))
            for spec in specs)
        #: which instruments are counters
        self.counts = tuple(spec[0] is Counter for spec in self.specs)


@dataclass
class SpanEvent:
    """One completed timing span (wall-clock start, measured duration).

    ``trace_id`` groups the spans of one logical scan across threads
    *and* processes: the parent mints an id, ships it to the pool
    workers, and every span a worker records carries it home in the
    snapshot — so one Chrome trace reassembles from many timelines.
    """

    name: str
    ts: float  #: wall-clock start, seconds since the epoch
    duration: float  #: seconds, measured with a monotonic clock
    pid: int
    tid: int
    args: Dict = field(default_factory=dict)
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict:
        out = {
            "name": self.name,
            "ts": self.ts,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SpanEvent":
        return cls(
            name=data["name"],
            ts=float(data["ts"]),
            duration=float(data["duration"]),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            args=dict(data.get("args", {})),
            trace_id=data.get("trace_id"),
        )


class MetricRegistry:
    """A named collection of metrics plus a span buffer.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call with a (name, labels) pair mints the instrument, later calls
    return the same object, so call sites never pre-declare.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelKey], _Metric] = {}
        #: per bundle recorded into (:meth:`handles`): its instruments,
        #: and the lock they share (``None`` when they do not share one)
        self._bundles: Dict[MetricBundle, Tuple[Tuple[_Metric, ...],
                                                Optional[threading.Lock]]] = {}
        #: declared counter series not created yet (:meth:`declare_series`)
        self._series: Dict[Tuple[str, str], int] = {}
        self.spans: List[SpanEvent] = []
        #: span observers (flight recorder, live tail): called with each
        #: SpanEvent as it lands, including spans arriving via merge()
        self._span_observers: List = []

    def add_span_observer(self, observer) -> None:
        """Register ``observer(event: SpanEvent)``; called outside locks."""
        with self._lock:
            if observer not in self._span_observers:
                self._span_observers.append(observer)

    def remove_span_observer(self, observer) -> None:
        with self._lock:
            if observer in self._span_observers:
                self._span_observers.remove(observer)

    def _notify_span(self, events: Iterable[SpanEvent]) -> None:
        if not self._span_observers:
            return
        observers = list(self._span_observers)
        for event in events:
            for observer in observers:
                observer(event)

    # ------------------------------------------------------------------
    # instrument factories
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Dict, **kwargs) -> _Metric:
        key = (name, label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, {k: str(v) for k, v in labels.items()}, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        if buckets is None:
            return self._get_or_create(Histogram, name, labels)
        metric = self._get_or_create(Histogram, name, labels, buckets=buckets)
        # per-call-site override on an instrument that already exists:
        # adopt the requested ladder while the histogram is still empty,
        # reject a conflicting ladder once observations are in
        bounds = _validated_buckets(buckets)
        if metric.buckets != bounds:
            metric.rebucket(bounds)
        return metric

    def handles(self, bundle: MetricBundle) -> Tuple[_Metric, ...]:
        """The instruments of ``bundle``, created together on first use.

        Handles stay valid until the registry is cleared; a cleared
        registry creates the bundle's instruments anew on its next use.
        """
        entry = self._bundles.get(bundle)
        return (entry or self._bind(bundle))[0]

    def _bind(self, bundle: MetricBundle) -> Tuple:
        with self._lock:
            entry = self._bundles.get(bundle)
            if entry is not None:
                return entry
            out = []
            fresh = {}
            for cls, name, labels, key, buckets in bundle.specs:
                metric = self._metrics.get((name, key))
                if metric is None:
                    metric = (cls(name, labels) if buckets is None
                              else cls(name, labels, buckets))
                    fresh[(name, key)] = metric
                elif type(metric) is not cls:
                    raise TypeError(f"metric {name!r} already "
                                    f"registered as {metric.kind}")
                elif buckets is not None and metric.buckets != buckets:
                    metric.rebucket(buckets)
                out.append(metric)
            # instruments the bundle created share one lock, given before
            # anyone can see them; a bundle that found any of them made
            # elsewhere locks each in turn
            lock = None
            if len(fresh) == len(out):
                lock = threading.Lock()
                for metric in out:
                    metric._lock = lock
            self._metrics.update(fresh)
            entry = self._bundles[bundle] = (tuple(out), lock)
        return entry

    def add(self, bundle: MetricBundle, amounts: Sequence) -> None:
        """Record ``amounts`` into ``bundle``'s instruments, in order.

        A counter adds its amount, a histogram observes it, a gauge is
        set to it; ``None`` skips an instrument.  The instruments a
        bundle created share one lock, so this takes it once.
        """
        handles, lock = self._bundles.get(bundle) or self._bind(bundle)
        if lock is None:
            for metric, amount in zip(handles, amounts):
                if amount is not None:
                    with metric._lock:
                        _add_locked(metric, amount)
            return
        with lock:
            for metric, is_counter, amount in zip(handles, bundle.counts,
                                                  amounts):
                if is_counter:
                    # adding 0 leaves a counter as it is
                    if amount:
                        if amount < 0:
                            raise ValueError(
                                "counters only go up; use a Gauge")
                        metric.value += amount
                elif amount is not None:
                    _add_locked(metric, amount)

    def declare_series(self, name: str, label: str, count: int) -> None:
        """Counters ``name{label="1"} .. name{label="count"}`` exist, at 0
        until incremented: a scan declares its per-segment series, and
        they are created when the registry is next read, not per scan.
        """
        if self._series.get((name, label), 0) < count:
            with self._lock:
                if self._series.get((name, label), 0) < count:
                    self._series[(name, label)] = count

    def _materialize(self) -> None:
        """Create the declared series, under the lock: a reader on
        another thread neither races this one for them nor lists the
        metrics before they exist."""
        if not self._series:
            return
        with self._lock:
            for (name, label), count in self._series.items():
                for value in range(1, count + 1):
                    key = (name, ((label, str(value)),))
                    if key not in self._metrics:
                        self._metrics[key] = Counter(
                            name, {label: str(value)})
            self._series.clear()

    def get(self, name: str, **labels) -> Optional[_Metric]:
        """Look up an instrument without creating it."""
        self._materialize()
        return self._metrics.get((name, label_key(labels)))

    def metrics(self) -> List[_Metric]:
        """All instruments, ordered by (name, labels)."""
        self._materialize()
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        ts: float,
        duration: float,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
        trace_id: Optional[str] = None,
        **args,
    ) -> SpanEvent:
        return self.add_span(SpanEvent(
            name, float(ts), float(duration),
            _PID[0] if pid is None else int(pid),
            threading.get_ident() if tid is None else int(tid),
            args, trace_id,
        ))

    def add_span(self, event: SpanEvent) -> SpanEvent:
        """Append a built span and tell the observers."""
        with self._lock:
            self.spans.append(event)
        if self._span_observers:
            self._notify_span((event,))
        return event

    # ------------------------------------------------------------------
    # snapshot / merge — the cross-process transport
    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True) -> Dict:
        """Plain JSON-able dict of every metric and span (of no span
        with ``spans=False``: what a metrics scrape reads)."""
        return {
            "metrics": [m.to_dict() for m in self.metrics()],
            "spans": [s.to_dict() for s in list(self.spans)] if spans else [],
        }

    def merge(self, other: Union["MetricRegistry", Dict]) -> None:
        """Fold another registry (or its snapshot) into this one, exactly."""
        snap = other.snapshot() if isinstance(other, MetricRegistry) else other
        kind_to_cls = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for entry in snap.get("metrics", []):
            cls = kind_to_cls[entry["kind"]]
            kwargs = (
                {"buckets": entry["buckets"]} if entry["kind"] == "histogram" else {}
            )
            metric = self._get_or_create(cls, entry["name"], entry["labels"], **kwargs)
            metric.merge_dict(entry)
        events = [SpanEvent.from_dict(s) for s in snap.get("spans", [])]
        with self._lock:
            self.spans.extend(events)
        self._notify_span(events)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._bundles.clear()
            self._series.clear()
            self.spans.clear()

    def __len__(self) -> int:
        self._materialize()
        return len(self._metrics)
