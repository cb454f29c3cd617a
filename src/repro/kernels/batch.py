"""Batched segment execution: one interpreter loop for the whole scan.

:func:`run_segments_batch` is the software kernel entry point.  It stacks
all enumerative segments into an ``(n_segments, seg_len)`` symbol matrix
(:func:`repro.engines.base.stack_segments` — lengths from
``even_boundaries`` differ by at most one, and ragged tails are handled
with an active-segment mask) and walks symbol positions **once**, advancing

- every scalar flow of every segment with one fancy-indexed gather
  (:class:`repro.kernels.lockstep.ScalarPool`), and
- every diverged convergence set of every segment with one batched
  set-step, via either the flat-member lockstep pool or the packed-bitset
  pool depending on ``backend``.

The moment a set flow collapses to M = 1 it degrades into the scalar pool,
so the steady-state cost per position is a single gather regardless of how
many segments and convergence sets the scan has — this is where the
interpreter gets amortized across the batch instead of being paid per
segment.

Outcomes are bit-identical to :func:`repro.software.run_segment`'s
``backend="python"`` path: converged sets yield the same concrete state,
diverged sets the same sorted-unique int64 state array.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa, as_symbols
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome, SegmentFunction
from repro.engines.base import stack_segments
from repro.kernels.bitset import BitsetSetFlows, BitsetTables
from repro.kernels.dense import DenseTables, run_segments_dense
from repro.kernels.lockstep import FlatSetFlows, ScalarPool
from repro.kernels.native import native_available, run_segments_native
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    run_segments_prefilter,
)

__all__ = [
    "BACKENDS",
    "DENSE_MAX_STATES",
    "KERNEL_BACKENDS",
    "resolve_backend",
    "run_segments_batch",
]

#: every executable backend of the software CSE path
BACKENDS = ("python", "lockstep", "bitset", "dense", "native", "prefilter")
#: the vectorized kernels (everything but the interpreted reference path)
KERNEL_BACKENDS = ("lockstep", "bitset", "dense", "native", "prefilter")
#: measured crossover: below this the dense frontier's one-gather step
#: beats sparse lockstep; above it the N-wide gather outgrows the cache
#: and the sparse member arrays win (benchmarks/bench_dense.py)
DENSE_MAX_STATES = 512
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

    The measured trade-off (``benchmarks/bench_kernels.py`` and
    ``benchmarks/bench_dense.py``): a *trivial* partition (one block, or
    none supplied) gives the kernels nothing to batch — every segment is
    one speculative frontier with no scalar flows to amortize — and the
    lockstep kernel measured **0.33x** against the interpreter on that
    profile (``random64/trivial``), so trivial partitions always resolve
    to the interpreted path.  With a real partition, batching pays as soon
    as there is enough work per symbol position — many scalar flows
    (``n_blocks * segments``) or wide convergence sets.  Among the
    kernels, the dense frontier's one-gather step wins up to
    :data:`DENSE_MAX_STATES` states; above that the ``n_segments x N``
    gather outgrows the cache and sparse lockstep takes over.  When the
    compiled native library loads (:mod:`repro.kernels.native`), the
    dense-profile pick upgrades to ``"native"`` — same tables, same
    outcomes, the per-position dispatch compiled away; without a
    toolchain the pick (and any explicit ``"native"`` request) degrades
    to ``"dense"``, recorded as ``native-unavailable``.
    ``"bitset"`` is never auto-picked: in this NumPy realization its
    O(N/64)-word step is dominated by the flat gather except for
    near-full sets on sub-64-state machines; it stays an explicit choice
    (and the differential-testing model of the AP's one-hot step).
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
        if dfa.num_states <= DENSE_MAX_STATES:
            # dense-profile machines take the compiled tier when the
            # library loads; same table, same outcomes, no numpy dispatch
            if native_available():
                chosen, reason = "native", "native-fit"
            else:
                chosen, reason = "dense", "dense-fit"
        else:
            chosen, reason = "lockstep", "dense-over-budget"
    _record_decision("auto", chosen, reason)
    return chosen


def run_segments_batch(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    backend: str = "lockstep",
    tables: Optional[BitsetTables] = None,
    flat: Optional[np.ndarray] = None,
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    prefilter: Optional[PrefilterTables] = None,
) -> List[SegmentFunction]:
    """Execute every enumerative segment's set-flows in one batched pass.

    Returns one :class:`SegmentFunction` per entry of ``segments``,
    bit-identical to running :func:`repro.software.run_segment` per
    segment.  ``tables`` optionally reuses precomputed
    :class:`BitsetTables`, ``flat`` an int64-raveled transition matrix and
    ``dense`` precomputed :class:`DenseTables` across calls (streaming, or
    a cached :class:`repro.compilecache.CompiledDfa` artifact; the native
    tier consumes the same dense tables — no separate artifact format).
    ``stride`` pins the dense kernel's collapse-check gap (tests; the
    default adapts).  ``prefilter`` reuses a precomputed certificate for
    ``backend="prefilter"``; when the DFA is not literal-certifiable the
    call degrades to the dense kernel (correctness never depends on the
    prefilter heuristic) and records the fallback.
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
    elif backend != "native":
        # the native core reads every segment at its own width itself
        segments = [as_symbols(s) for s in segments]
    n_seg = len(segments)
    if n_seg == 0:
        return []
    batch_wall = time.time()
    batch_begin = time.perf_counter()
    labels = partition.labels()
    if backend == "prefilter":
        assert pf_tables is not None
        grid, stats = run_segments_prefilter(
            dfa, partition, segments, pf_tables, dense=dense, stride=stride
        )
        if obs.is_enabled():
            batch_elapsed = time.perf_counter() - batch_begin
            obs.record_span("kernels.batch", batch_wall, batch_elapsed,
                            backend=backend, segments=n_seg)
            obs.histogram("kernels_batch_seconds",
                          buckets=BATCH_SECONDS_BUCKETS,
                          backend=backend).observe(batch_elapsed)
            obs.counter("kernels_batch_runs_total", backend=backend).inc()
            obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
            obs.counter("kernels_positions_total",
                        backend=backend).inc(stats["positions"])
            obs.counter("kernels_collapses_total",
                        backend=backend).inc(stats["collapses"])
            obs.counter("kernels_prefilter_windows_total").inc(
                stats["windows"])
            obs.counter("kernels_prefilter_skipped_bytes_total").inc(
                stats["skipped_bytes"])
            obs.counter("kernels_prefilter_walked_positions_total").inc(
                stats["walked_positions"])
            obs.counter("kernels_prefilter_fallback_segments_total").inc(
                stats["fallback_segments"])
        return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
    if backend == "native":
        grid, stats = run_segments_native(
            dfa, partition, segments, tables=dense, stride=stride
        )
        if obs.is_enabled():
            batch_elapsed = time.perf_counter() - batch_begin
            obs.record_span("kernels.batch", batch_wall, batch_elapsed,
                            backend=backend, segments=n_seg)
            obs.histogram("kernels_batch_seconds",
                          buckets=BATCH_SECONDS_BUCKETS,
                          backend=backend).observe(batch_elapsed)
            obs.counter("kernels_batch_runs_total", backend=backend).inc()
            obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
            obs.counter("kernels_positions_total",
                        backend=backend).inc(stats["positions"])
            obs.counter("kernels_collapses_total",
                        backend=backend).inc(stats["collapses"])
            obs.counter("kernels_native_positions_total").inc(
                stats["native_positions"])
            obs.counter("kernels_native_frontier_steps_total").inc(
                stats["frontier_steps"])
            obs.counter("kernels_native_stride_checks_total").inc(
                stats["stride_checks"])
            obs.counter("kernels_native_degraded_segments_total").inc(
                stats["degraded_segments"])
            obs.counter("kernels_native_scalar_positions_total").inc(
                stats["scalar_positions"])
        return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
    if backend == "dense":
        grid, stats = run_segments_dense(
            dfa, partition, segments, tables=dense, stride=stride
        )
        if obs.is_enabled():
            batch_elapsed = time.perf_counter() - batch_begin
            obs.record_span("kernels.batch", batch_wall, batch_elapsed,
                            backend=backend, segments=n_seg)
            obs.histogram("kernels_batch_seconds",
                          buckets=BATCH_SECONDS_BUCKETS,
                          backend=backend).observe(batch_elapsed)
            obs.counter("kernels_batch_runs_total", backend=backend).inc()
            obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
            obs.counter("kernels_positions_total",
                        backend=backend).inc(stats["positions"])
            obs.counter("kernels_collapses_total",
                        backend=backend).inc(stats["collapses"])
            obs.counter("kernels_dense_positions_total").inc(
                stats["dense_positions"])
            obs.counter("kernels_dense_stride_checks_total").inc(
                stats["stride_checks"])
            obs.counter("kernels_dense_degraded_segments_total").inc(
                stats["degraded_segments"])
        return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
    n_collapsed = 0
    blocks = partition.block_arrays()
    n_states = dfa.num_states
    if flat is None:
        flat = dfa.transitions.astype(np.int64).ravel()
    matrix, lengths = stack_segments(segments)
    offsets = matrix * n_states

    single_ids = [i for i, b in enumerate(blocks) if b.size == 1]
    multi_ids = np.asarray(
        [i for i, b in enumerate(blocks) if b.size > 1], dtype=np.int64
    )
    multi_blocks = [blocks[i] for i in multi_ids.tolist()]

    pool = ScalarPool(flat)
    if single_ids:
        singles = np.asarray([int(blocks[i][0]) for i in single_ids], dtype=np.int64)
        pool.extend(
            np.tile(singles, n_seg),
            np.repeat(np.arange(n_seg, dtype=np.int64), len(single_ids)),
            np.tile(np.asarray(single_ids, dtype=np.int64), n_seg),
        )
    flows: Union[BitsetSetFlows, FlatSetFlows]
    if backend == "bitset":
        flows = BitsetSetFlows(
            tables or BitsetTables(dfa), multi_blocks, multi_ids, n_seg
        )
    else:
        flows = FlatSetFlows(flat, multi_blocks, multi_ids, n_seg)

    length_min = int(lengths.min()) if n_seg else 0
    length_max = int(lengths.max()) if n_seg else 0
    for t in range(length_min):
        col_off = offsets[:, t]
        pool.step(col_off)
        if backend == "bitset":
            collapsed = flows.step(matrix[:, t])
        else:
            collapsed = flows.step(col_off)
        n_collapsed += len(collapsed)
        pool.absorb(collapsed)
    for t in range(length_min, length_max):
        seg_active = lengths > t
        col_off = offsets[:, t]
        pool.step(col_off, seg_active)
        if backend == "bitset":
            collapsed = flows.step(matrix[:, t], seg_active)
        else:
            collapsed = flows.step(col_off, seg_active)
        n_collapsed += len(collapsed)
        pool.absorb(collapsed)

    grid: List[List[Optional[CsOutcome]]] = [
        [None] * len(blocks) for _ in range(n_seg)
    ]
    for state, seg, blk in zip(
        pool.states.tolist(), pool.seg.tolist(), pool.block.tolist()
    ):
        grid[seg][blk] = CsOutcome(
            True, int(state), np.asarray([state], dtype=np.int64)
        )
    for states, seg, blk in flows.final_outcomes():
        grid[seg][blk] = CsOutcome(False, None, states.astype(np.int64))
    assert all(o is not None for outcomes in grid for o in outcomes)
    if obs.is_enabled():
        batch_elapsed = time.perf_counter() - batch_begin
        obs.record_span("kernels.batch", batch_wall, batch_elapsed,
                        backend=backend, segments=n_seg)
        obs.histogram("kernels_batch_seconds",
                      buckets=BATCH_SECONDS_BUCKETS,
                      backend=backend).observe(batch_elapsed)
        obs.counter("kernels_batch_runs_total", backend=backend).inc()
        obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
        obs.counter("kernels_positions_total", backend=backend).inc(length_max)
        obs.counter("kernels_collapses_total", backend=backend).inc(n_collapsed)
        if backend == "bitset":
            # a bitset collapse is exactly a bitset→lockstep degradation:
            # the flow leaves the packed pool for the scalar gather pool
            obs.counter("kernels_bitset_degradations_total").inc(n_collapsed)
    return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
