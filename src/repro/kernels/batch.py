"""Batched segment execution: one kernel pass for the whole scan.

:func:`run_segments_batch` is the software kernel entry point.  It hands
every enumerative segment to one of two kernels in a single call:

- ``"native"`` — :func:`repro.kernels.native.run_segments_native`, every
  segment's frontier advanced over the whole buffer in one C call;
- ``"prefilter"`` — :func:`repro.kernels.prefilter.run_segments_prefilter`,
  the literal-skip sweep for certified machines.

Without the native library both degrade to the interpreted set-flow
loop (:mod:`repro.kernels.setflow`) wherever they would run the
frontier.  Whatever the kernel, the pass ends in one shared epilogue
(span, batch histogram, shared counters plus the kernel's own counters),
and outcomes are bit-identical to :func:`repro.software.run_segment`'s
``backend="python"`` path: converged sets yield the same concrete state,
diverged sets the same sorted-unique int64 state array.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import SegmentFunction
from repro.ingest import Segments, admit
from repro.kernels.dense import DenseTables
from repro.kernels.native import native_available, run_segments_native
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    run_segments_prefilter,
)
from repro.kernels.setflow import run_segments_setflow

__all__ = [
    "BACKENDS",
    "KERNEL_BACKENDS",
    "resolve_backend",
    "run_segments_batch",
]

#: every executable backend of the software CSE path
BACKENDS = ("python", "native", "prefilter")
#: the batched kernels (everything but the interpreted reference path)
KERNEL_BACKENDS = ("native", "prefilter")
#: per-metric histogram ladder for batched kernel passes: 100us..25s —
#: a batch is never sub-100us at bench scale, so the generic
#: DEFAULT_BUCKETS would waste its bottom two decades here
BATCH_SECONDS_BUCKETS = tuple(
    round(m * 10.0 ** e, 12) for e in range(-4, 2) for m in (1.0, 2.5, 5.0)
)


@lru_cache(maxsize=64)
def _decision_bundle(requested: str, chosen: str,
                     reason: str) -> obs.MetricBundle:
    return obs.MetricBundle([
        ("counter", "kernels_backend_resolved_total",
         {"requested": requested, "backend": chosen, "reason": reason}),
    ])


def _record_decision(requested: str, chosen: str, reason: str) -> None:
    """One record per backend resolution: the running chosen-vs-requested
    tally, grouped by reason (``repro top`` renders these rows).  The
    scan it gated names its backend on its own span."""
    if obs.is_enabled():
        obs.add(_decision_bundle(requested, chosen, reason), (1,))


def resolve_backend(dfa: Dfa, backend: Optional[str] = None) -> str:
    """Shared default-resolution for the software kernel backend.

    Explicit names pass through (after validation).  ``None``/``"auto"``
    resolves by one rule, the same for
    :func:`repro.software.software_cse_scan`, ``stream.StreamScanner``,
    ``stream.FleetScanner`` and the compilation cache:

    - a literal-certified machine takes ``"prefilter"`` (reason
      ``literal-certified``): it skips the frontier between anchor hits;
    - otherwise ``"native"`` when the library loads
      (``native-available``): the compiled frontier beats the
      interpreted loop on every measured config
      (``benchmarks/bench_kernels.py``);
    - otherwise ``"python"`` (``native-unavailable``).

    An explicit ``"native"`` on a host without the library resolves to
    ``"python"`` the same way (reason ``native-unavailable``): the
    compiled tier is strictly optional, and the outcomes are
    bit-identical.  Every other explicit name is recorded as
    ``explicit``.
    """
    if backend is None or backend == "auto":
        if certify_prefilter(dfa) is not None:
            chosen, reason = "prefilter", "literal-certified"
        elif native_available():
            chosen, reason = "native", "native-available"
        else:
            chosen, reason = "python", "native-unavailable"
        _record_decision("auto", chosen, reason)
        return chosen
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; pick one of {BACKENDS + ('auto',)}"
        )
    if backend == "native" and not native_available():
        _record_decision(backend, "python", "native-unavailable")
        return "python"
    _record_decision(backend, backend, "explicit")
    return backend


#: each kernel's own counters, fed from its stats: (metric, stats key)
_KERNEL_COUNTERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "prefilter": (
        ("kernels_prefilter_windows_total", "windows"),
        ("kernels_prefilter_skipped_bytes_total", "skipped_bytes"),
        ("kernels_prefilter_walked_positions_total", "walked_positions"),
        ("kernels_prefilter_fallback_segments_total", "fallback_segments"),
    ),
    "native": (
        ("kernels_native_positions_total", "native_positions"),
        ("kernels_native_frontier_steps_total", "frontier_steps"),
        ("kernels_native_stride_checks_total", "stride_checks"),
        ("kernels_native_degraded_segments_total", "degraded_segments"),
        ("kernels_native_scalar_positions_total", "scalar_positions"),
    ),
    "python": (),
}


#: each kernel's stats keys, in :data:`_KERNEL_COUNTERS` order
_KERNEL_STATS: Dict[str, Tuple[str, ...]] = {
    backend: tuple(key for _metric, key in counters)
    for backend, counters in _KERNEL_COUNTERS.items()
}


def _observe_batch(backend: str, n_seg: int, wall: float, begin: float,
                   stats: Dict[str, int]) -> None:
    """The one epilogue of a batched pass: span, histogram, counters.

    The shared counters (runs, segments, positions, collapses) carry the
    ``backend`` label; the kernel's own counters come from
    :data:`_KERNEL_COUNTERS`.
    """
    elapsed = time.perf_counter() - begin
    obs.record_span("kernels.batch", wall, elapsed,
                    backend=backend, segments=n_seg)
    obs.add(_batch_bundle(backend),
            (elapsed, 1, n_seg, stats["positions"], stats["collapses"],
             *map(stats.__getitem__, _KERNEL_STATS[backend])))


@lru_cache(maxsize=None)
def _batch_bundle(backend: str) -> obs.MetricBundle:
    """The instruments :func:`_observe_batch` records into."""
    labels = {"backend": backend}
    return obs.MetricBundle([
        ("histogram", "kernels_batch_seconds", labels, BATCH_SECONDS_BUCKETS),
        ("counter", "kernels_batch_runs_total", labels),
        ("counter", "kernels_segments_total", labels),
        ("counter", "kernels_positions_total", labels),
        ("counter", "kernels_collapses_total", labels),
    ] + [("counter", metric, {}) for metric, _key in _KERNEL_COUNTERS[backend]])


def run_segments_batch(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    backend: str = "native",
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    prefilter: Optional[PrefilterTables] = None,
    start: Optional[int] = None,
) -> List[SegmentFunction]:
    """Execute every enumerative segment's set-flows in one batched pass.

    Returns one :class:`SegmentFunction` per entry of ``segments``,
    bit-identical to running :func:`repro.software.run_segment` per
    segment.  ``dense`` optionally reuses precomputed
    :class:`DenseTables` across calls (streaming, or a cached
    :class:`repro.compilecache.CompiledDfa` artifact).  ``stride`` pins
    the native frontier's collapse-check gap (tests; the default adapts)
    and must be >= 1 on every path.  ``prefilter`` reuses a precomputed
    certificate for ``backend="prefilter"``; when the DFA is not
    literal-certifiable the call degrades to the native frontier —
    correctness never depends on the prefilter heuristic — and records
    the fallback.  Without the native library the frontier is the
    interpreted set-flow loop (:mod:`repro.kernels.setflow`), recorded
    as a native fallback and labelled ``python``.  Every segment is
    admitted first (:func:`repro.ingest.admit`), except a
    :class:`repro.ingest.Segments` batch, which is cut from input the
    caller already admitted.

    ``start`` rides a scan's concrete segment 0 along a prefilter batch:
    ``segments[0]`` is then walked from ``start`` in the same C call, and
    its function maps every set to the state it reached, the one image
    the scan reads (``functions[0].concrete_for(start)``).  It needs a
    certified machine, since only the prefilter kernel walks concrete
    segments.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"batched execution needs one of {KERNEL_BACKENDS}")
    if stride is not None and int(stride) < 1:
        raise ValueError("stride must be >= 1")
    pf_tables: Optional[PrefilterTables] = None
    if backend == "prefilter":
        pf_tables = prefilter if prefilter is not None else certify_prefilter(dfa)
        if pf_tables is None:
            obs.counter("kernels_prefilter_fallbacks_total").inc()
            backend = "native"
    if start is not None:
        if pf_tables is None:
            raise ValueError("a concrete segment 0 rides only a certified "
                             "prefilter batch")
        admit(b"", dfa.alphabet_size, start, dfa.num_states)
    if backend == "native" and not native_available():
        # explicit call on a toolchain-less install: outcomes must not
        # depend on the optional compiled tier
        obs.counter("kernels_native_fallbacks_total").inc()
        backend = "python"
    # byte input stays a zero-copy uint8 view: the prefilter sweep and
    # the native core read it at that width
    if not isinstance(segments, Segments):
        segments = [admit(s, dfa.alphabet_size) for s in segments]
    n_seg = len(segments)
    if n_seg == 0:
        return []
    batch_wall = time.time()
    batch_begin = time.perf_counter()
    if backend == "prefilter":
        assert pf_tables is not None
        grid, stats = run_segments_prefilter(
            dfa, partition, segments, pf_tables, dense=dense, stride=stride,
            start=start,
        )
    elif backend == "native":
        grid, stats = run_segments_native(
            dfa, partition, segments, tables=dense, stride=stride
        )
    else:
        grid, stats = run_segments_setflow(dfa, partition, segments)
    if obs.is_enabled():
        _observe_batch(backend, n_seg, batch_wall, batch_begin, stats)
    labels = partition.labels()
    return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
