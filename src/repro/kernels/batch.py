"""Batched segment execution: one kernel pass for the whole scan.

:func:`run_segments_batch` is the software kernel entry point.  It hands
every enumerative segment to one of three kernels in a single call:

- ``"dense"`` — :func:`repro.kernels.dense.run_segments_dense`, one flat
  NumPy gather per symbol position over every segment's all-state
  frontier;
- ``"native"`` — :func:`repro.kernels.native.run_segments_native`, the
  same frontier advanced over the whole buffer in one C call;
- ``"prefilter"`` — :func:`repro.kernels.prefilter.run_segments_prefilter`,
  the literal-skip sweep for certified machines.

Whatever the kernel, the pass ends in one shared epilogue (span, batch
histogram, shared counters plus the kernel's own counters), and outcomes
are bit-identical to :func:`repro.software.run_segment`'s
``backend="python"`` path: converged sets yield the same concrete state,
diverged sets the same sorted-unique int64 state array.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa, as_symbols
from repro.core.partition import StatePartition
from repro.core.transition import SegmentFunction
from repro.kernels.dense import DenseTables, run_segments_dense
from repro.kernels.native import native_available, run_segments_native
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    run_segments_prefilter,
)

__all__ = [
    "BACKENDS",
    "KERNEL_BACKENDS",
    "resolve_backend",
    "run_segments_batch",
]

#: every executable backend of the software CSE path
BACKENDS = ("python", "dense", "native", "prefilter")
#: the vectorized kernels (everything but the interpreted reference path)
KERNEL_BACKENDS = ("dense", "native", "prefilter")
#: per-metric histogram ladder for batched kernel passes: 100us..25s —
#: a batch is never sub-100us at bench scale, so the generic
#: DEFAULT_BUCKETS would waste its bottom two decades here
BATCH_SECONDS_BUCKETS = tuple(
    round(m * 10.0 ** e, 12) for e in range(-4, 2) for m in (1.0, 2.5, 5.0)
)


def _record_decision(requested: str, chosen: str, reason: str) -> None:
    """One structured record per backend resolution.

    The counter keeps the running chosen-vs-requested tally (grouped by
    reason — ``repro top`` renders these rows) and the zero-duration span
    puts the individual decision on the trace timeline next to the scan
    it gated.
    """
    obs.counter("kernels_backend_resolved_total",
                requested=requested, backend=chosen, reason=reason).inc()
    if obs.is_enabled():
        obs.record_span("kernels.backend_resolve", time.time(), 0.0,
                        requested=requested, backend=chosen, reason=reason)


def resolve_backend(
    dfa: Dfa,
    backend: Optional[str] = None,
    partition: Optional[StatePartition] = None,
    n_segments: int = 16,
) -> str:
    """Shared default-resolution for the software kernel backend.

    Explicit names pass through (after validation); ``None``/``"auto"``
    picks from the DFA + partition profile — the single place the
    "partition-friendly profile" heuristic lives, shared by
    :func:`repro.software.software_cse_scan`, ``stream.StreamScanner`` and
    ``stream.FleetScanner``.

    The measured trade-off (``benchmarks/bench_kernels.py``): a
    *trivial* partition (one block, or none supplied) gives the kernels
    nothing to batch — every segment is one speculative frontier with no
    scalar flows to amortize — so trivial partitions always resolve to
    the interpreted path.  With a real partition, batching pays as soon
    as there is enough work per symbol position — many scalar flows
    (``n_blocks * segments``) or wide convergence sets — and the pick is
    the compiled native tier (:mod:`repro.kernels.native`) at any state
    count: the dense tables it reads narrow to uint16 up to 65536 states.
    Without a toolchain the pick (and any explicit ``"native"`` request)
    degrades to ``"dense"`` — same tables, same outcomes, recorded as
    ``native-unavailable`` for explicit requests.
    """
    if backend is not None and backend != "auto":
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick one of {BACKENDS + ('auto',)}"
            )
        if backend == "native" and not native_available():
            # the compiled tier is strictly optional: an explicit request
            # on a toolchain-less install degrades to the dense kernel
            # (bit-identical outcomes) instead of erroring
            _record_decision(backend, "dense", "native-unavailable")
            return "dense"
        _record_decision(backend, backend, "explicit")
        return backend
    # literal-certified machines skip the frontier between anchor hits
    # regardless of partition shape — the sweep needs nothing to batch
    if certify_prefilter(dfa) is not None:
        _record_decision("auto", "prefilter", "literal-certified")
        return "prefilter"
    if partition is None:
        n_blocks, max_block = 1, dfa.num_states
    else:
        sizes = [len(b) for b in partition.blocks]
        n_blocks, max_block = len(sizes), max(sizes)
    enum_segments = max(1, n_segments - 1)
    chosen, reason = "python", "small-workload"
    if n_blocks <= 1:
        reason = "trivial-partition"
    elif max_block > 8 or n_blocks * enum_segments >= 48:
        # the compiled tier when the library loads; same tables, same
        # outcomes as dense, no numpy dispatch per position
        if native_available():
            chosen, reason = "native", "native-fit"
        else:
            chosen, reason = "dense", "dense-fit"
    _record_decision("auto", chosen, reason)
    return chosen


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
    "dense": (
        ("kernels_dense_positions_total", "dense_positions"),
        ("kernels_dense_stride_checks_total", "stride_checks"),
        ("kernels_dense_degraded_segments_total", "degraded_segments"),
    ),
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
    obs.histogram("kernels_batch_seconds", buckets=BATCH_SECONDS_BUCKETS,
                  backend=backend).observe(elapsed)
    obs.counter("kernels_batch_runs_total", backend=backend).inc()
    obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
    obs.counter("kernels_positions_total",
                backend=backend).inc(stats["positions"])
    obs.counter("kernels_collapses_total",
                backend=backend).inc(stats["collapses"])
    for metric, key in _KERNEL_COUNTERS[backend]:
        obs.counter(metric).inc(stats[key])


def run_segments_batch(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    backend: str = "dense",
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    prefilter: Optional[PrefilterTables] = None,
) -> List[SegmentFunction]:
    """Execute every enumerative segment's set-flows in one batched pass.

    Returns one :class:`SegmentFunction` per entry of ``segments``,
    bit-identical to running :func:`repro.software.run_segment` per
    segment.  ``dense`` optionally reuses precomputed
    :class:`DenseTables` across calls (streaming, or a cached
    :class:`repro.compilecache.CompiledDfa` artifact; the native tier
    consumes the same dense tables — no separate artifact format).
    ``stride`` pins the frontier kernels' collapse-check gap (tests; the
    default adapts).  ``prefilter`` reuses a precomputed certificate for
    ``backend="prefilter"``; when the DFA is not literal-certifiable the
    call degrades to the native (or dense) kernel — correctness never
    depends on the prefilter heuristic — and records the fallback.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"batched execution needs one of {KERNEL_BACKENDS}")
    pf_tables: Optional[PrefilterTables] = None
    if backend == "prefilter":
        pf_tables = prefilter if prefilter is not None else certify_prefilter(dfa)
        if pf_tables is None:
            obs.counter("kernels_prefilter_fallbacks_total").inc()
            backend = "native" if native_available() else "dense"
    if backend == "native" and not native_available():
        # explicit call on a toolchain-less install: outcomes must not
        # depend on the optional compiled tier
        obs.counter("kernels_native_fallbacks_total").inc()
        backend = "dense"
    if backend == "prefilter":
        # keep the incoming dtype: uint8 mmap views flow into the anchor
        # sweep zero-copy, no int64 widening of the skipped bytes
        segments = [
            s if isinstance(s, np.ndarray) else as_symbols(s) for s in segments
        ]
    elif backend == "dense":
        # the NumPy gather indexes with int64 symbols; the native core
        # reads every segment at its own width itself
        segments = [as_symbols(s) for s in segments]
    n_seg = len(segments)
    if n_seg == 0:
        return []
    batch_wall = time.time()
    batch_begin = time.perf_counter()
    if backend == "prefilter":
        assert pf_tables is not None
        grid, stats = run_segments_prefilter(
            dfa, partition, segments, pf_tables, dense=dense, stride=stride
        )
    elif backend == "native":
        grid, stats = run_segments_native(
            dfa, partition, segments, tables=dense, stride=stride
        )
    else:
        grid, stats = run_segments_dense(
            dfa, partition, segments, tables=dense, stride=stride
        )
    if obs.is_enabled():
        _observe_batch(backend, n_seg, batch_wall, batch_begin, stats)
    labels = partition.labels()
    return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
