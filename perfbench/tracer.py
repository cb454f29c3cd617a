"""Nested-span tracer that wraps the program's module attributes.

The benchmark never edits the program to trace it.  :meth:`Tracer.wrap`
replaces one attribute the program calls through (a module-level
function such as ``repro.software.run_segments_batch`` or a method such
as ``repro.stream.Dfa.run_reports``) with a wrapper that opens a span
around the original call; :meth:`Tracer.uninstall` puts every original
back.  Spans nest through a stack, so a span's *self* time is its
duration minus the durations of its direct children (one caller thread
per process: children never overlap).

Spans carry the recording process id.  A process pool forked after
:meth:`Tracer.install` inherits the wrappers; :func:`worker_report` is the
task a pool runs to hand its worker's spans (and CPU / peak-RSS usage)
back to the parent.
"""

from __future__ import annotations

import importlib
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

__all__ = ["Span", "Tracer", "self_times", "worker_report", "obs_snapshot"]

#: the tracer whose wrappers are installed in this process; a forked pool
#: worker finds its inherited copy here when :func:`worker_report` runs
_INSTALLED: Optional["Tracer"] = None


@dataclass
class Span:
    name: str
    start: float  #: ``time.perf_counter()`` (CLOCK_MONOTONIC: shared by processes)
    end: float = 0.0
    pid: int = 0
    #: index of the enclosing span in the same process's list, or None
    parent: Optional[int] = None
    args: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


#: a span name, or ``name(tracer, parent_index)`` picking one at call time
Name = Union[str, Callable[["Tracer", Optional[int]], str]]


class Tracer:
    """Records nested spans around wrapped attributes of the program."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[tuple] = []
        #: layer name -> whether its attribute existed to be wrapped
        self.wrapped: Dict[str, bool] = {}

    # -- recording -------------------------------------------------------
    def _own(self) -> None:
        # a forked worker inherits the parent's spans and open stack:
        # start its own record instead
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self.spans = []
            self._stack = []

    def open(self, name: Name, **args) -> int:
        self._own()
        parent = self._stack[-1] if self._stack else None
        if callable(name):
            name = name(self, parent)
        self.spans.append(Span(name, time.perf_counter(), pid=self._pid,
                               parent=parent, args=args))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    @contextmanager
    def span(self, name: str, **args):
        index = self.open(name, **args)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def take(self) -> List[Span]:
        """Hand over (and forget) this process's completed spans."""
        self._own()
        if self._stack:
            raise RuntimeError("take() with spans still open")
        mine, self.spans = self.spans, []
        return mine

    # -- wrapping --------------------------------------------------------
    def wrap(self, target, attr: str, name: Name,
             observe: Optional[Callable] = None) -> bool:
        """Wrap ``target.attr`` so each call records a span named ``name``.

        ``target`` is an object, or a string naming a module
        (``"repro.software"``) or a class in one (``"repro.stream:Dfa"``).
        ``observe(span, result, args, kwargs)`` may add counts to the
        span's args after the call returns.  A missing attribute (a layer
        a later change removed) is skipped and reports zero calls.
        """
        layer = name if isinstance(name, str) else f"{target}.{attr}"
        owner = _resolve(target) if isinstance(target, str) else target
        if owner is None or not hasattr(owner, attr):
            self.wrapped.setdefault(layer, False)
            return False
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if observe is not None:
                observe(span, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        # an attribute found on a class or base (not owned) is restored by
        # deleting the wrapper
        self._patches.append((owner, attr, original if own else None))
        self.wrapped[layer] = True
        return True

    def install(self) -> None:
        global _INSTALLED
        _INSTALLED = self

    def uninstall(self) -> None:
        global _INSTALLED
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if _INSTALLED is self:
            _INSTALLED = None


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def worker_report(hold_seconds: float = 0.1):
    """Pool task: ``(pid, cpu_seconds, peak_rss_kb, spans)`` of this worker.

    Usage is read first; then the worker holds for ``hold_seconds`` so
    that the next probe submitted lands on a different worker.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    spans = _INSTALLED.take() if _INSTALLED is not None else []
    time.sleep(hold_seconds)
    return os.getpid(), usage.ru_utime + usage.ru_stime, usage.ru_maxrss, spans


def obs_snapshot(spans: Sequence[Span], selfs: Sequence[float]) -> Dict:
    """A ``repro.obs`` registry snapshot holding ``spans`` (and each
    one's self time), for :mod:`repro.obs.exporters`."""
    to_epoch = time.time() - time.perf_counter()
    return {
        "metrics": [],
        "spans": [
            {
                "name": s.name,
                "ts": s.start + to_epoch,
                "duration": s.duration,
                "pid": s.pid,
                "tid": s.pid,
                "args": {**s.args, "self_ms": self_ms * 1e3},
            }
            for s, self_ms in zip(spans, selfs)
        ],
    }
