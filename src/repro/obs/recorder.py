"""The process-global recorder: enabled registry or near-free no-ops.

Instrumented call sites always go through the module-level helpers
(:func:`counter`, :func:`gauge`, :func:`histogram`, :func:`span`,
:func:`record_span`).  When no registry is installed — the default —
every helper returns a shared no-op singleton whose methods are empty:
the cost of a disabled instrument is one global load, one ``is None``
test, and one empty method call, with **zero** allocation.  Hot paths
that would pay even that per inner-loop iteration should guard whole
blocks with :func:`is_enabled` instead (all in-tree call sites
instrument at per-segment / per-chunk granularity, well off the
per-symbol inner loops).

:func:`enable` installs a registry process-wide; :func:`using` installs
one for a scope (worker tasks, tests) and restores the previous recorder
on exit.

Trace context: :func:`trace` establishes a ``trace_id`` for a scope (one
logical scan); every span recorded inside it — in this thread, in nested
calls, and in pool workers the id is shipped to — carries the id, so the
exporters can reassemble one coherent timeline from many processes.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from typing import Dict, Optional, Sequence, Union

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricBundle,
    MetricRegistry,
    SpanEvent,
    _PID,
)

__all__ = [
    "enable",
    "disable",
    "active",
    "is_enabled",
    "using",
    "counter",
    "gauge",
    "histogram",
    "add",
    "declare_series",
    "span",
    "record_span",
    "new_trace_id",
    "current_trace_id",
    "trace",
    "NOOP_METRIC",
    "NOOP_SPAN",
]

_active: Optional[MetricRegistry] = None

#: ambient trace id of the current logical scan (contextvars: inherited
#: by nested calls in this thread, isolated between threads)
_trace: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


#: trace-id source: seeded from the OS once per process (and again in a
#: forked child), so minting an id per scan makes no system call
_ids = random.Random(os.urandom(16))
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _ids.seed(os.urandom(16)))


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-safe per fleet)."""
    return "%016x" % _ids.getrandbits(64)


def current_trace_id() -> Optional[str]:
    """The ambient trace id, or ``None`` outside any :func:`trace` scope."""
    return _trace.get()


class _TraceScope:
    """The context manager :func:`trace` returns (a class, not a
    generator: a scan enters one per call)."""

    __slots__ = ("_tid", "_token")

    def __init__(self, tid: str) -> None:
        self._tid = tid

    def __enter__(self) -> str:
        self._token = _trace.set(self._tid)
        return self._tid

    def __exit__(self, *exc) -> bool:
        _trace.reset(self._token)
        return False


def trace(
    trace_id: Optional[str] = None, inherit: bool = True
) -> _TraceScope:
    """Establish a trace id for a scope; ``with`` yields the effective id.

    ``trace_id=None`` reuses the ambient id when one is set (so a scan
    nested under a fleet scan joins the fleet's trace) unless
    ``inherit=False``, and mints a fresh id otherwise.
    """
    tid = trace_id
    if tid is None and inherit:
        tid = _trace.get()
    return _TraceScope(new_trace_id() if tid is None else tid)


def enable(registry: Optional[MetricRegistry] = None) -> MetricRegistry:
    """Install ``registry`` (or a fresh one) as the process recorder."""
    global _active
    _active = registry if registry is not None else MetricRegistry()
    return _active


def disable() -> None:
    """Remove the process recorder; instrumentation becomes no-op."""
    global _active
    _active = None


def active() -> Optional[MetricRegistry]:
    """The installed registry, or ``None`` when observability is off."""
    return _active


def is_enabled() -> bool:
    return _active is not None


class _Using:
    """The context manager :func:`using` returns."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: Optional[MetricRegistry]) -> None:
        self._registry = registry

    def __enter__(self) -> MetricRegistry:
        self._previous = _active
        return enable(self._registry)

    def __exit__(self, *exc) -> bool:
        previous = self._previous
        enable(previous) if previous is not None else disable()
        return False


def using(registry: Optional[MetricRegistry] = None) -> _Using:
    """Scoped :func:`enable`; restores the previous recorder on exit."""
    return _Using(registry)


class _NoopMetric:
    """Counter/Gauge/Histogram stand-in whose every method is empty."""

    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass


NOOP_METRIC = _NoopMetric()


def counter(name: str, **labels) -> Union[Counter, _NoopMetric]:
    reg = _active
    return NOOP_METRIC if reg is None else reg.counter(name, **labels)


def gauge(name: str, **labels) -> Union[Gauge, _NoopMetric]:
    reg = _active
    return NOOP_METRIC if reg is None else reg.gauge(name, **labels)


def histogram(
    name: str, buckets: Optional[Sequence[float]] = None, **labels
) -> Union[Histogram, _NoopMetric]:
    reg = _active
    return NOOP_METRIC if reg is None else reg.histogram(name, buckets, **labels)


def add(bundle: MetricBundle, amounts: Sequence) -> None:
    """:meth:`MetricRegistry.add` on the active registry, if any."""
    reg = _active
    if reg is not None:
        reg.add(bundle, amounts)


def declare_series(name: str, label: str, count: int) -> None:
    """:meth:`MetricRegistry.declare_series` on the active registry."""
    reg = _active
    if reg is not None:
        reg.declare_series(name, label, count)


class _NoopSpan:
    """Reusable disabled-span singleton (no state, safe to share)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """Context manager that records one :class:`SpanEvent` on exit."""

    __slots__ = ("registry", "name", "args", "_wall", "_begin")

    def __init__(self, registry: MetricRegistry, name: str, args: Dict):
        self.registry = registry
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._wall = time.time()
        self._begin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.registry.add_span(SpanEvent(
            self.name, self._wall, time.perf_counter() - self._begin,
            _PID[0], threading.get_ident(), self.args, _trace.get()))
        return False


def span(name: str, **args) -> Union[_Span, _NoopSpan]:
    """Timing scope: ``with obs.span("engine.run", engine=name): ...``.

    Wall-clock start comes from ``time.time()`` (comparable across the
    processes of a pool), duration from the monotonic ``perf_counter``.
    """
    reg = _active
    return NOOP_SPAN if reg is None else _Span(reg, name, args)


def record_span(name: str, ts: float, duration: float, **args) -> None:
    """Record an already-measured span (attributed/batched timings).

    The span is tagged with the ambient trace id (:func:`trace` scope),
    if any.
    """
    reg = _active
    if reg is not None:
        reg.add_span(SpanEvent(name, ts, duration, _PID[0],
                               threading.get_ident(), args, _trace.get()))
