"""A software-only CSE prototype with *measured* (wall-clock) work.

The AP cost model answers "how fast would this be on the paper's
hardware".  This module answers the complementary question a software
adopter asks: does convergence-set enumeration pay off on a *CPU*, where
the set(N)->set(M) step is no longer free?

The design mirrors the hardware engine but measures real seconds:

- the sequential baseline (the ``verify`` oracle) is one walk of the
  whole input: the compiled table walk on the kernel backends (the
  interpreted list loop when the native library does not load), and
  the interpreted list loop on ``backend="python"``, whose oracle stays
  independent of every compiled path.  The SFA plan, which computes
  every segment's start state, is verified by a chained check instead:
  each segment walked from its claimed start, all at once;
- the scan's own concrete walks — segment 0 and global re-execution —
  run on :func:`repro.kernels.walk`, one compiled table walk when the
  native library loads and the same list loop when it does not;
- each segment runs one set-flow per convergence set; while a set has
  more than one member the step is a vectorized gather+unique, and the
  moment it collapses the flow *degrades to the scalar table-walk* — the
  software analogue of "M = 1 computes all paths at the cost of one"
  (:mod:`repro.kernels.setflow`);
- composition and re-execution reuse the exact machinery of
  :mod:`repro.core.reexec`.

Three execution backends are available (``backend=``):

- ``"python"`` — the per-segment interpreted reference path above, and
  the oracle every other backend is bit-identical to;
- ``"native"`` — the compiled set-flow tier: every segment's frontier of
  distinct live states advanced over its whole symbol buffer in one C
  call, collapsed segments' tails walked eight at a time
  (:mod:`repro.kernels.native`); an explicit ``"native"`` resolves to
  ``"python"`` when no compiled library is loadable;
- ``"prefilter"`` — the literal-prefilter fast path for certified
  literal-heavy machines: a backward scan to each segment's last proven
  reset and a walk of only the tail after it, one C call per batch with
  the library (:mod:`repro.kernels.prefilter`); an uncertifiable machine
  runs the native frontier instead (the interpreted loop without the
  library).

``backend="auto"`` picks via :func:`repro.kernels.resolve_backend`, the
same helper the streaming layer uses: ``prefilter`` for a
literal-certified machine, else ``native`` when the library loads, else
``python``.  A scan through an ``auto`` artifact (``compiled=``) then
chooses among three plans by measured cost
(:class:`repro.compilecache.artifact.PlanCosts`): the artifact's CSE
plan; the walk plan, one walk of the whole input (``backend="walk"``,
one segment), once that measured 1.2x cheaper per byte than the CSE
plan; and, after the walk plan and with the native library, the SFA
plan (``backend="sfa"``): each segment walked as one compiled lane over
the artifact's lazily grown SFA (:mod:`repro.kernels.sfa`) and the
segment functions composed, once that measured 1.2x cheaper than the
walk.

Input may be ``bytes``, a numpy symbol array, or a zero-copy
:class:`repro.ingest.InputView` (e.g. from :func:`repro.ingest.open_input`
— an mmap of the file), admitted once (:func:`repro.ingest.admit`).  A
fingerprint-matched process pool receives each segment of a file-backed
view as ``(path, start, stop)`` mmap coordinates (workers map the file
themselves and nothing but the coordinates crosses the process
boundary) and any other input as a pickled slice.

Per-segment wall times are measured individually, so the result reports
both the *work speedup* (total sequential seconds / critical-path
seconds, what a perfectly parallel machine would achieve; only where the
serial oracle ran) and, when an executor with real parallelism is
supplied, the elapsed speedup.  For
process pools, :func:`segment_pool` builds an executor whose workers
receive the transition table **once** via the pool initializer instead of
re-pickling the :class:`Dfa` into every submitted segment.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.reexec import ReexecutionStats, compose_and_fix
from repro.core.transition import SegmentFunction
from repro.engines.base import even_boundaries
from repro.ingest import InputView, Segments, admit
from repro.kernels import (
    BACKENDS,
    DenseTables,
    certify_prefilter,
    native_available,
    prefilter_scan_scalar,
    prefilter_walk,
    resolve_backend,
    run_segments_batch,
)
from repro.kernels.native import _walk_list, native_walk, native_walks
from repro.kernels.setflow import collapses, setflows
from repro.kernels.tables import table_rows

__all__ = [
    "SoftwareRun",
    "scan_sequential",
    "run_segment",
    "software_cse_scan",
    "segment_pool",
]


@lru_cache(maxsize=None)
def _scan_bundle(backend: str) -> obs.MetricBundle:
    """The instruments a CSE-plan scan's epilogue records into."""
    return obs.MetricBundle([
        ("counter", "software_scans_total", {"backend": backend}),
        ("counter", "software_symbols_total", {}),
        ("counter", "software_reexec_segments_total", {}),
        ("counter", "software_speculation_hits_total", {}),
        ("counter", "software_speculation_misses_total", {}),
        ("counter", "software_reeval_passes_total", {}),
        ("counter", "software_diverged_segments_total", {}),
        ("histogram", "software_scan_seconds", {"backend": backend}),
    ])


def _walk_admitted(
    dfa: Dfa,
    syms: np.ndarray,
    state: int,
    dense: Optional[DenseTables],
    rows: Optional[List[List[int]]],
) -> int:
    """One concrete walk of already admitted input from ``state``.

    The compiled table walk when the native library loads, else the
    interpreted list loop; the scan's own walks (segment 0,
    re-execution, the walk plan) call it so the input is admitted once.
    """
    done = native_walk(dfa, syms, state, dense)
    if done is not None:
        return done[0]
    return _walk_list(dfa, syms, state, rows, False)[0]


def scan_sequential(
    dfa: Dfa,
    symbols,
    start_state: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    symbol_list: Optional[List[int]] = None,
    tables: Optional[DenseTables] = None,
) -> Tuple[int, float]:
    """One sequential walk of the whole input; returns ``(final_state, seconds)``.

    This is the ``verify`` oracle and the baseline of
    :attr:`SoftwareRun.work_speedup`.  The input is admitted first
    (:func:`repro.ingest.admit`).  With ``tables`` it is one compiled
    table walk (``cse_native_walk``) reading byte input at byte width;
    :func:`software_cse_scan` passes them on every kernel backend.
    Without ``tables``, or without the native library, it is the
    interpreted list loop, which the ``python`` backend keeps as its
    independent oracle.  ``rows`` / ``symbol_list`` optionally reuse
    conversions the caller already paid for (the list its python-backend
    segments walked).

    With observability enabled the walk is recorded as one
    ``software.oracle`` span whose ``compiled`` flag says whether the
    compiled walk actually ran.
    """
    state = dfa.start if start_state is None else int(start_state)
    syms = admit(symbols, dfa.alphabet_size, state, dfa.num_states)
    wall = time.time()
    done = None
    if tables is not None:
        begin = time.perf_counter()
        done = native_walk(dfa, syms, state, tables)
        elapsed = time.perf_counter() - begin
    if done is not None:
        state = done[0]
    else:
        if symbol_list is None:
            symbol_list = syms.tolist()
        if rows is None:
            rows = table_rows(dfa)
        begin = time.perf_counter()
        for sym in symbol_list:
            state = rows[sym][state]
        elapsed = time.perf_counter() - begin
    if obs.is_enabled():
        obs.record_span("software.oracle", wall, elapsed,
                        compiled=done is not None)
    return int(state), elapsed


def run_segment(
    dfa: Dfa,
    partition: StatePartition,
    segment: np.ndarray,
    backend: str = "python",
    rows: Optional[List[List[int]]] = None,
    segment_list: Optional[List[int]] = None,
) -> Tuple[SegmentFunction, float]:
    """One segment's set-flows, with the converged-flow fast path.

    Returns the segment transition function and the measured seconds.
    ``backend`` selects the interpreted reference path (``"python"``,
    :func:`repro.kernels.setflow.setflows`) or a batched kernel
    (``"native"`` / ``"prefilter"``) — results are bit-identical.  A
    ``segment_list`` is taken as admitted.
    """
    if backend != "python":
        begin = time.perf_counter()
        functions = run_segments_batch(dfa, partition, [segment], backend=backend)
        return functions[0], time.perf_counter() - begin
    if rows is None:
        rows = table_rows(dfa)
    table = dfa.transitions.astype(np.int64)
    if segment_list is None:
        segment_list = admit(segment, dfa.alphabet_size).tolist()
    begin = time.perf_counter()
    outcomes = setflows(dfa, partition, segment_list, rows, table)
    elapsed = time.perf_counter() - begin
    if obs.is_enabled():
        obs.counter("kernels_collapses_total", backend="python").inc(
            collapses(partition, outcomes)
        )
        obs.counter("kernels_positions_total", backend="python").inc(
            len(segment_list)
        )
    return SegmentFunction(outcomes, partition.labels()), elapsed


# ----------------------------------------------------------------------
# process-pool support: ship the transition table once per worker
# ----------------------------------------------------------------------

_WORKER_DFA: Optional[Dfa] = None
#: the one mapped input file a worker keeps open ``(path, mmap, file)``;
#: replaced (old mapping closed) when a scan ships a new path
_WORKER_MMAP: Optional[Tuple[str, "object", "object"]] = None


def _pool_init(table_bytes, shape, start, accepting) -> None:
    global _WORKER_DFA
    table = np.frombuffer(table_bytes, dtype=np.int32).reshape(shape)
    _WORKER_DFA = Dfa(table, start, accepting)


def _attach_worker_mmap(path: str):
    """Map (and cache) a file-backed scan's input file in a worker.

    One mapping per worker, swapped when a scan names a different file,
    so a long-lived pool never accumulates mappings.
    """
    global _WORKER_MMAP
    if _WORKER_MMAP is not None and _WORKER_MMAP[0] == path:
        return _WORKER_MMAP[1]
    import mmap

    if _WORKER_MMAP is not None:
        for handle in (_WORKER_MMAP[1], _WORKER_MMAP[2]):
            try:
                handle.close()
            except (OSError, BufferError):
                pass
        _WORKER_MMAP = None
    f = open(path, "rb")
    try:
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except BaseException:
        # the map failing (file truncated to empty between dispatch and
        # attach) must not strand the descriptor in the worker
        f.close()
        raise
    _WORKER_MMAP = (path, mapped, f)
    return mapped


def _pool_run_segment(partition, segment, backend, collect=False,
                      seg_index=None, trace_id=None):
    """Worker-side segment execution, optionally with local telemetry.

    ``segment`` is either the symbol slice itself (pickled across the
    process boundary) or, for a file-backed input, ``(path, start,
    stop)`` mmap coordinates with absolute byte offsets into the file:
    the worker maps the file once (page cache shared with the parent)
    and aliases the segment as a uint8 view, so nothing but the
    coordinates crosses the boundary.

    With ``collect=True`` the worker records into a registry of its own
    and returns its snapshot alongside the result; the parent merges it
    (:meth:`repro.obs.MetricRegistry.merge`), which is how counters and
    spans cross the process boundary exactly.  ``trace_id`` is the
    parent scan's trace context: every span the worker records carries
    it, so the merged timeline reassembles into one Chrome trace.
    """
    if _WORKER_DFA is None:
        raise RuntimeError("worker missing its DFA; build the pool "
                           "with repro.software.segment_pool")
    if isinstance(segment, tuple):
        path, start, stop = segment
        segment = np.frombuffer(_attach_worker_mmap(path), dtype=np.uint8,
                                count=stop - start, offset=start)
    if not collect:
        return run_segment(_WORKER_DFA, partition, segment, backend=backend)
    with obs.using() as registry:
        with obs.trace(trace_id):
            with obs.span("software.segment", segment=seg_index,
                          backend=backend, worker=True):
                function, seconds = run_segment(
                    _WORKER_DFA, partition, segment, backend=backend
                )
            obs.counter("software_worker_segments_total").inc()
            obs.counter("software_worker_symbols_total").inc(int(len(segment)))
    return function, seconds, registry.snapshot()


def segment_pool(dfa: Dfa, max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """A :class:`ProcessPoolExecutor` pre-loaded with ``dfa``.

    The transition table is shipped to each worker exactly once through
    the pool initializer; :func:`software_cse_scan` recognizes such pools
    (by fingerprint) and submits segments *without* pickling the
    :class:`Dfa` into every task.
    """
    pool = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_pool_init,
        initargs=(
            dfa.transitions.tobytes(),
            dfa.transitions.shape,
            dfa.start,
            tuple(sorted(dfa.accepting)),
        ),
    )
    pool._repro_dfa_fingerprint = dfa.fingerprint
    return pool


@dataclass
class SoftwareRun:
    """Measured outcome of a software CSE scan."""

    final_state: int
    n_symbols: int
    n_segments: int
    #: seconds of the ``verify`` check.  On the CSE and walk plans that
    #: is the oracle's one walk of the whole input
    #: (:func:`scan_sequential`): the compiled walk on kernel backends,
    #: the interpreted list loop on ``python`` (and without the native
    #: library).  On ``sfa`` runs it is the chained check's, every
    #: segment walked from its claimed start boundary as interleaved
    #: lanes.  0 with ``verify=False``
    sequential_seconds: float
    segment_seconds: List[float]
    repair_seconds: float
    elapsed_seconds: float
    reexec_segments: int
    #: the backend the scan ran; ``"walk"`` (with ``n_segments == 1``)
    #: for an ``auto`` scan that took the walk plan, ``"sfa"`` for one
    #: that took the SFA plan
    backend: str = "python"
    #: the backend the caller asked for ("auto"/None resolve to
    #: :attr:`backend`); keeps the resolve_backend decision recoverable
    requested_backend: str = "python"

    @property
    def critical_path_seconds(self) -> float:
        """Max segment time + serial repair: the parallel-machine latency."""
        peak = max(self.segment_seconds) if self.segment_seconds else 0.0
        return peak + self.repair_seconds

    @property
    def work_speedup(self) -> Optional[float]:
        """Speedup a machine with one core per segment would achieve.

        The serial oracle walk's seconds over the critical path.  ``None``
        where no serial walk was measured: with ``verify=False``, and on
        ``sfa`` runs, whose check walks the segments as interleaved lanes
        and whose segment times are even shares of one lane pass.
        """
        if self.backend == "sfa" or not self.sequential_seconds:
            return None
        if self.critical_path_seconds <= 0:
            return float("inf")
        return self.sequential_seconds / self.critical_path_seconds

    @property
    def work_efficiency(self) -> Optional[float]:
        """work_speedup / n_segments: 1.0 means CSE added zero overhead."""
        speedup = self.work_speedup
        return None if speedup is None else speedup / self.n_segments


def software_cse_scan(
    dfa: Dfa,
    symbols,
    partition: StatePartition,
    n_segments: int = 16,
    executor: Optional[Executor] = None,
    policy: str = "opportunistic",
    backend: str = "python",
    start_state: Optional[int] = None,
    verify: bool = True,
    compiled=None,
) -> SoftwareRun:
    """Scan an input with software CSE; verify against one sequential walk.

    ``executor`` (e.g. a pool from :func:`segment_pool`) runs segments
    truly in parallel when cores exist; without one, segments run serially
    but are timed individually, so :attr:`SoftwareRun.work_speedup` still
    reports the parallel-machine number faithfully.  With a kernel
    ``backend`` and no executor, all enumerative segments execute in one
    batched pass (:func:`repro.kernels.run_segments_batch`); its elapsed
    time is attributed evenly across segments, which is the honest
    amortized figure for a SIMD realization of the parallel machine.
    The trace shows that pass as one measured ``kernels.batch`` span, not
    one estimated span per segment.

    ``verify=True`` checks the composed result against
    :func:`scan_sequential`: one compiled walk of the whole input on the
    kernel backends, the interpreted list loop on ``python``.  A scan on
    the SFA plan runs the chained check instead: every segment walked
    from the start boundary the SFA claims for it, as interleaved lanes,
    must end on the next claimed boundary.
    ``verify=False`` skips that oracle pass (the composed result is exact
    by construction — re-execution repairs any failed speculation);
    callers on the hot path (streaming) use it, at the price of
    ``sequential_seconds`` reading 0.

    ``compiled`` optionally supplies a
    :class:`repro.compilecache.CompiledDfa` artifact (or a bare
    :class:`repro.kernels.tables.ScanTables`) whose prebuilt tables
    (scalar rows, dense table, prefilter certificate) are reused instead
    of being derived per scan; results are bit-identical with or without
    it.  An artifact compiled for ``auto`` also keeps the measured costs
    of its CSE plan, of one whole-input walk and of its SFA plan; its
    scans run the walk plan once that measured 1.2x cheaper than CSE (the
    returned :class:`SoftwareRun` then reads ``backend="walk"``), and,
    with the native library, the SFA plan once that measured 1.2x
    cheaper than the walk (``backend="sfa"``).

    Segments reach an ``executor`` one of two ways.  A fingerprint-matched
    :func:`segment_pool` gets ``(path, start, stop)`` mmap coordinates
    when the input is a file-backed :class:`repro.ingest.InputView` and a
    pickled ``syms[a:b]`` slice otherwise; any other executor (e.g. a
    ``ThreadPoolExecutor``) runs :func:`run_segment` with the DFA.

    With observability enabled, the whole scan runs inside one
    :func:`repro.obs.trace` scope (joining an ambient trace when the
    caller — a stream or fleet scan — already opened one): every span,
    including those recorded in pool workers, carries the scan's
    ``trace_id``, and a per-scan summary lands in the flight recorder
    when one is armed.
    """
    if not obs.is_enabled():
        return _software_cse_scan(
            dfa, symbols, partition, n_segments, executor, policy, backend,
            start_state, verify, compiled,
        )
    with obs.trace() as trace_id:
        run = _software_cse_scan(
            dfa, symbols, partition, n_segments, executor, policy, backend,
            start_state, verify, compiled,
        )
    if obs.active_flight() is not None:
        obs.record_scan(
            kind="software",
            trace_id=trace_id,
            backend=run.backend,
            n_segments=run.n_segments,
            n_symbols=run.n_symbols,
            reexec_segments=run.reexec_segments,
            speculation_hits=max(0, run.n_segments - 1 - run.reexec_segments),
            elapsed_seconds=run.elapsed_seconds,
        )
    return run


def _software_cse_scan(
    dfa: Dfa,
    symbols,
    partition: StatePartition,
    n_segments: int = 16,
    executor: Optional[Executor] = None,
    policy: str = "opportunistic",
    backend: str = "python",
    start_state: Optional[int] = None,
    verify: bool = True,
    compiled=None,
) -> SoftwareRun:
    """The scan body; trace scoping/flight summary live in the wrapper."""
    plans = None
    if compiled is not None:
        requested = compiled.requested_backend
        if requested == "auto" and backend in (None, "auto", compiled.backend):
            # an auto artifact's scan: the plan choice below may run one
            # walk instead of its CSE plan
            plans = compiled.plans
        backend = compiled.backend if backend in (None, "auto") else backend
        backend = resolve_backend(dfa, backend)
        rows = compiled.rows
    else:
        requested = "auto" if backend in (None, "auto") else str(backend)
        backend = resolve_backend(dfa, backend)
        rows = table_rows(dfa)
    pf_tables = None
    if backend == "prefilter":
        pf_tables = (
            compiled.prefilter_tables() if compiled is not None
            else certify_prefilter(dfa)
        )
        if pf_tables is None:
            # explicit request on an uncertifiable machine: the scan must
            # still be exact, so degrade to the frontier (the
            # resolve_backend auto path never lands here — it only picks
            # prefilter when certification succeeded)
            obs.counter("kernels_prefilter_fallbacks_total").inc()
            backend = "native" if native_available() else "python"
    # byte input stays a uint8 view for every kernel, walk and pickled
    # slice
    syms = admit(symbols, dfa.alphabet_size, start_state, dfa.num_states)
    # the dense tables serve the native frontier, the prefilter (and its
    # frontier fallback) and the compiled concrete walks (segment 0,
    # re-execution); an artifact builds them once
    dense: Optional[DenseTables] = None
    if compiled is not None:
        dense = compiled.dense_tables()
    elif native_available():
        dense = DenseTables(dfa)

    start = dfa.start if start_state is None else int(start_state)
    pooled = executor is not None
    if plans is not None:
        # segment 0 of a prefilter scan is not a plain walk, so it never
        # measures the walk plan
        plan, reason = (
            ("cse", "prefilter") if backend == "prefilter"
            else plans.choose(pooled, native_available()
                              and not compiled.sfa_abandoned)
        )
        obs.counter("kernels_plan_total", plan=plan, reason=reason).inc()
        if plan == "walk":
            return _walk_plan(dfa, syms, start, plans, pooled, verify,
                              dense, rows)
        if plan == "sfa":
            return _sfa_plan(dfa, syms, start, plans, pooled, verify,
                             dense, rows, compiled.sfa(), n_segments)

    bounds = even_boundaries(int(syms.size), n_segments)
    # python-backend segments run here walk a list (shared with the
    # verify oracle, which otherwise converts when it runs)
    syms_list: Optional[List[int]] = (
        syms.tolist() if executor is None and backend == "python" else None
    )

    def concrete_walk(segment: np.ndarray, state: Optional[int]) -> int:
        if pf_tables is not None:
            # a proven reset erases the prefix before it: walk the tail
            return prefilter_walk(dfa, pf_tables, segment, state, rows, dense)
        return _walk_admitted(dfa, segment, start if state is None else state,
                              dense, rows)

    collect = obs.is_enabled()
    trace_id = obs.current_trace_id() if collect else None
    scan_wall = time.time()
    begin_all = time.perf_counter()

    # segment 1: concrete scan.  An unpooled prefilter scan walks it in
    # its batch call instead (run_segments_batch's ``start``); a native
    # scan keeps the separate walk, which samples the walk plan
    a0, b0 = bounds[0]
    rides = backend == "prefilter" and executor is None
    first_final, first_seconds = start, 0.0
    if not rides:
        begin0 = time.perf_counter()
        if backend == "prefilter":
            first_final, _walked = prefilter_scan_scalar(
                dfa, pf_tables, syms[a0:b0], start_state=start_state,
                rows=rows, dense=dense,
            )
        else:
            first_final = concrete_walk(syms[a0:b0], start_state)
        first_seconds = time.perf_counter() - begin0
        if collect:
            obs.record_span("software.segment", scan_wall, first_seconds,
                            segment=0, kind="concrete")
            if backend == "prefilter":
                obs.counter("kernels_prefilter_skipped_bytes_total").inc(
                    max(0, (b0 - a0) - _walked)
                )

    enum_bounds = bounds[1:]
    if executor is not None:
        fingerprint = (
            compiled.fingerprint if compiled is not None else dfa.fingerprint
        )
        pooled = (
            getattr(executor, "_repro_dfa_fingerprint", None) == fingerprint
        )
        if pooled:
            coords = symbols.coords() if isinstance(symbols, InputView) else None
            if coords is not None:
                # file-backed input: workers mmap the file themselves
                path, base, length = coords
                pieces = [(path, base + a, base + b) for a, b in enum_bounds]
                if collect and enum_bounds:
                    obs.counter("software_mmap_scans_total").inc()
                    obs.counter("software_mmap_bytes_total").inc(length)
            else:
                pieces = [syms[a:b] for a, b in enum_bounds]
            futures = [
                executor.submit(_pool_run_segment, partition, piece, backend,
                                collect, i + 1, trace_id)
                for i, piece in enumerate(pieces)
            ]
        else:
            futures = [
                executor.submit(run_segment, dfa, partition, syms[a:b],
                                backend)
                for a, b in enum_bounds
            ]
        timed = [f.result() for f in futures]
        functions = [entry[0] for entry in timed]
        enum_seconds = [entry[1] for entry in timed]
        if collect and pooled:
            registry = obs.active()
            for entry in timed:
                registry.merge(entry[2])
        elif collect:
            wall = time.time()
            for i, sec in enumerate(enum_seconds):
                obs.record_span("software.segment", wall - sec, sec,
                                segment=i + 1, backend=backend)
    elif backend != "python":
        kernel_begin = time.perf_counter()
        functions = run_segments_batch(
            dfa, partition, Segments(syms, bounds if rides else enum_bounds),
            backend=backend, dense=dense, prefilter=pf_tables,
            start=start if rides else None,
        )
        kernel_elapsed = time.perf_counter() - kernel_begin
        # the batched kernel runs all segments in one pass: each gets an
        # even share of the work-speedup figures; the trace shows the
        # pass as the one measured ``kernels.batch`` span
        share = kernel_elapsed / max(1, len(functions))
        if rides:
            first_final = functions.pop(0).concrete_for(start)
            first_seconds = share
        enum_seconds = [share] * len(enum_bounds)
    else:
        timed = []
        for i, (a, b) in enumerate(enum_bounds):
            seg_wall = time.time()
            function, sec = run_segment(
                dfa,
                partition,
                syms[a:b],
                rows=rows,
                segment_list=syms_list[a:b],
            )
            timed.append((function, sec))
            if collect:
                obs.record_span("software.segment", seg_wall, sec,
                                segment=i + 1, backend=backend)
        functions = [fn for fn, _sec in timed]
        enum_seconds = [sec for _fn, sec in timed]
    segment_seconds = [first_seconds] + enum_seconds

    repair_wall = time.time()
    repair_begin = time.perf_counter()
    final, stats = compose_and_fix(
        dfa, syms, enum_bounds, functions, first_final, policy=policy,
        walk=concrete_walk,
    )
    repair_seconds = time.perf_counter() - repair_begin
    elapsed = time.perf_counter() - begin_all
    costs = {}
    if plans is not None and backend != "prefilter" and syms.size:
        if b0 > a0:
            plans.record("walk", pooled, first_seconds * 1e9 / (b0 - a0))
        plans.record("cse", pooled, elapsed * 1e9 / syms.size)
        costs = _plan_costs(plans, pooled)

    if collect:
        obs.record_span("software.repair", repair_wall, repair_seconds,
                        policy=policy,
                        reexecuted=len(stats.reexecuted_segments))
        obs.record_span("software.scan", scan_wall, elapsed,
                        backend=backend, n_segments=n_segments,
                        n_symbols=int(syms.size), **costs)
        reexecuted = len(set(stats.reexecuted_segments))
        obs.add(_scan_bundle(backend), (
            1, int(syms.size), reexecuted, len(enum_bounds) - reexecuted,
            reexecuted, stats.reeval_passes, stats.diverged_segments,
            elapsed))
        # one re-exec counter per enumerative segment, so a clean scan
        # still exports the full per-segment series at 0
        obs.declare_series("software_segment_reexec_total", "segment",
                           len(enum_bounds))
        for i in stats.reexecuted_segments:
            obs.counter("software_segment_reexec_total", segment=i + 1).inc()

    sequential_seconds = 0.0
    if verify:
        # kernel backends check against one compiled walk of the whole
        # input (a plain walk from the start, never the prefilter's);
        # the python backend keeps the interpreted loop
        oracle, sequential_seconds = scan_sequential(
            dfa, syms, start_state=start_state, rows=rows,
            symbol_list=syms_list,
            tables=None if backend == "python" else dense,
        )
        if final != oracle:
            raise AssertionError("software CSE diverged from the sequential walk")
    return SoftwareRun(
        final_state=int(final),
        n_symbols=int(syms.size),
        n_segments=n_segments,
        sequential_seconds=sequential_seconds,
        segment_seconds=segment_seconds,
        repair_seconds=repair_seconds,
        elapsed_seconds=elapsed,
        reexec_segments=len(stats.reexecuted_segments),
        backend=backend,
        requested_backend=requested,
    )


def _plan_costs(plans, pooled: bool) -> dict:
    """The running medians a plan decision reads, as span arguments."""
    return {
        "walk_ns_per_byte": plans.median("walk", pooled),
        "cse_ns_per_byte": plans.median("cse", pooled),
        "sfa_ns_per_byte": plans.median("sfa", pooled),
    }


def _walk_plan(
    dfa: Dfa,
    syms: np.ndarray,
    start: int,
    plans,
    pooled: bool,
    verify: bool,
    dense: Optional[DenseTables],
    rows: List[List[int]],
) -> SoftwareRun:
    """The walk plan: one concrete walk of the whole admitted input.

    An ``auto`` scan runs it once the walk measured
    :data:`repro.compilecache.artifact.PLAN_MARGIN` cheaper than the
    CSE plan: no segment reaches a pool, and nothing is enumerated or
    composed.  It times itself into ``plans``; ``verify`` still checks
    it against :func:`scan_sequential`'s compiled walk.
    """
    scan_wall = time.time()
    begin = time.perf_counter()
    final = _walk_admitted(dfa, syms, start, dense, rows)
    elapsed = time.perf_counter() - begin
    if syms.size:
        plans.record("walk", pooled, elapsed * 1e9 / syms.size)
    sequential_seconds = 0.0
    if verify:
        oracle, sequential_seconds = scan_sequential(
            dfa, syms, start_state=start, rows=rows, tables=dense)
        if final != oracle:
            raise AssertionError("walk plan diverged from the sequential walk")
    return _plan_run(syms, plans, pooled, "walk", final, [elapsed],
                     scan_wall, {}, sequential_seconds)


def _sfa_plan(
    dfa: Dfa,
    syms: np.ndarray,
    start: int,
    plans,
    pooled: bool,
    verify: bool,
    dense: Optional[DenseTables],
    rows: List[List[int]],
    sfa,
    n_segments: int,
) -> SoftwareRun:
    """The SFA plan: one lane per segment over the artifact's lazy SFA.

    Each segment is walked from the identity function in C, eight lanes
    at a time (:meth:`repro.kernels.sfa.LazySfa.scan`); a lane that
    reaches an SFA state whose row is not built pauses while the row is
    built, and the final state is the segments' functions applied to
    ``start`` in turn.  Nothing is enumerated, speculated or
    re-executed, and no segment reaches a pool.  Only a scan that grew
    no row times itself into ``plans``.  When the SFA outgrows
    :data:`repro.kernels.sfa.SFA_MAX_FUNCTIONS` it is abandoned for good
    and this scan runs the walk plan instead.  ``verify`` runs the
    chained check (:func:`_chained_check`), not the serial oracle.
    """
    scan_wall = time.time()
    begin = time.perf_counter()
    bounds = even_boundaries(int(syms.size), n_segments)
    spans = Segments(syms, bounds)
    done = sfa.scan(spans, start)
    if done is None:
        obs.counter("kernels_plan_total", plan="walk",
                    reason="sfa-abandoned").inc()
        return _walk_plan(dfa, syms, start, plans, pooled, verify, dense,
                          rows)
    boundaries, grew = done
    elapsed = time.perf_counter() - begin
    if syms.size and not grew:
        plans.record("sfa", pooled, elapsed * 1e9 / syms.size)
    sequential_seconds = (
        _chained_check(dfa, spans, start, boundaries, dense) if verify
        else 0.0)
    # the lanes run interleaved in one call: each gets an even share
    shares = [elapsed / len(bounds)] * len(bounds)
    return _plan_run(syms, plans, pooled, "sfa", boundaries[-1], shares,
                     scan_wall,
                     {"grew": grew, "sfa_functions": sfa.functions,
                      "sfa_rows": sfa.rows},
                     sequential_seconds)


def _chained_check(
    dfa: Dfa,
    spans: Sequence[np.ndarray],
    start: int,
    boundaries: Sequence[int],
    dense: Optional[DenseTables],
) -> float:
    """The SFA plan's ``verify``: each segment walked from its claimed start.

    ``boundaries`` are the SFA scan's claimed states, ``start`` and then
    the state after each span.  Segment 0 is walked from ``start`` itself
    and segment ``i`` from boundary ``i``, all at once as the tail pass's
    interleaved lanes over the dense tables (:func:`repro.kernels.native.
    native_walks`); each must end on boundary ``i + 1``.  By induction
    every boundary, the final state among them, then equals the serial
    walk's, and a wrong interior boundary fails even where its error
    converges away later.  The walks never read the SFA or its lanes.
    Raises ``AssertionError`` naming the first segment that ends
    elsewhere; returns the check's seconds.
    """
    if len(boundaries) != len(spans) + 1:
        raise AssertionError(
            f"sfa plan returned {len(boundaries)} boundaries for "
            f"{len(spans)} segments")
    wall = time.time()
    begin = time.perf_counter()
    ends = native_walks(dfa, spans, [start, *boundaries[1:-1]], dense)
    elapsed = time.perf_counter() - begin
    if obs.is_enabled():
        obs.record_span("software.oracle", wall, elapsed, compiled=True,
                        chained=True, lanes=len(spans))
    bad = np.flatnonzero(ends != np.asarray(boundaries[1:], dtype=np.int64))
    if bad.size:
        raise AssertionError(
            f"sfa plan diverged from the chained walk at segment "
            f"{int(bad[0])}")
    return elapsed


def _plan_run(
    syms: np.ndarray,
    plans,
    pooled: bool,
    backend: str,
    final: int,
    segment_seconds: List[float],
    scan_wall: float,
    span_args: dict,
    sequential_seconds: float,
) -> SoftwareRun:
    """Telemetry and the result of a one-pass plan its caller verified."""
    elapsed = sum(segment_seconds)
    if obs.is_enabled():
        obs.record_span("software.scan", scan_wall, elapsed, backend=backend,
                        n_segments=len(segment_seconds),
                        n_symbols=int(syms.size),
                        **_plan_costs(plans, pooled), **span_args)
        obs.counter("software_scans_total", backend=backend).inc()
        obs.counter("software_symbols_total").inc(int(syms.size))
        obs.histogram("software_scan_seconds", backend=backend).observe(elapsed)
    return SoftwareRun(
        final_state=int(final),
        n_symbols=int(syms.size),
        n_segments=len(segment_seconds),
        sequential_seconds=sequential_seconds,
        segment_seconds=segment_seconds,
        repair_seconds=0.0,
        elapsed_seconds=elapsed,
        reexec_segments=0,
        backend=backend,
        requested_backend="auto",
    )
