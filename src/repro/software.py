"""A software-only CSE prototype with *measured* (wall-clock) work.

The AP cost model answers "how fast would this be on the paper's
hardware".  This module answers the complementary question a software
adopter asks: does convergence-set enumeration pay off on a *CPU*, where
the set(N)->set(M) step is no longer free?

The design mirrors the hardware engine but measures real seconds:

- the sequential baseline (the ``verify`` oracle) is a tight
  interpreted table-walk loop (Python lists beat numpy scalar indexing
  ~5x for this access pattern);
- the scan's own concrete walks — segment 0 and global re-execution —
  run on :func:`repro.kernels.walk`, one compiled table walk when the
  native library loads and the same list loop when it does not;
- each segment runs one set-flow per convergence set; while a set has
  more than one member the step is a vectorized gather+unique, and the
  moment it collapses the flow *degrades to the scalar table-walk* — the
  software analogue of "M = 1 computes all paths at the cost of one";
- composition and re-execution reuse the exact machinery of
  :mod:`repro.core.reexec`.

Four execution backends are available (``backend=``):

- ``"python"`` — the per-segment interpreted reference path above, and
  the oracle every other backend is bit-identical to;
- ``"dense"`` — all enumerative segments advanced in one batched pass:
  every segment keeps one dense frontier of all N states and advances it
  with exactly one flat gather per symbol position (dtype-narrowed table,
  strided collapse checks; :mod:`repro.kernels.dense`);
- ``"native"`` — the compiled set-flow tier: the dense frontier advanced
  over the whole symbol buffer in one C call (:mod:`repro.kernels.native`);
  degrades to ``"dense"`` when no compiled library is loadable.
- ``"prefilter"`` — the literal-prefilter fast path for certified
  literal-heavy machines: a vectorized anchor sweep plus an interpreted
  walk of only the tail after the last proven reset run
  (:mod:`repro.kernels.prefilter`); degrades to ``"dense"`` when the DFA
  is not literal-certifiable.

``backend="auto"`` picks via :func:`repro.kernels.resolve_backend`, the
same helper the streaming layer uses.

Input may be ``bytes``, a numpy symbol array, or a zero-copy
:class:`repro.ingest.InputView` (e.g. from :func:`repro.ingest.open_input`
— an mmap of the file).  File-backed views submitted to a
fingerprint-matched process pool ship as ``(path, offset, length)`` mmap
coordinates: workers map the file themselves and nothing but the
coordinates crosses the process boundary.

Per-segment wall times are measured individually, so the result reports
both the *work speedup* (total sequential seconds / critical-path
seconds, what a perfectly parallel machine would achieve) and, when an
executor with real parallelism is supplied, the elapsed speedup.  For
process pools, :func:`segment_pool` builds an executor whose workers
receive the transition table **once** via the pool initializer instead of
re-pickling the :class:`Dfa` into every submitted segment.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa, as_symbols
from repro.core.partition import StatePartition
from repro.core.reexec import ReexecutionStats, compose_and_fix
from repro.core.transition import CsOutcome, SegmentFunction
from repro.engines.base import even_boundaries
from repro.ingest import InputView, byte_view
from repro.kernels import (
    BACKENDS,
    DenseTables,
    certify_prefilter,
    native_available,
    prefilter_scan_scalar,
    prefilter_walk,
    resolve_backend,
    run_segments_batch,
    walk,
)

__all__ = [
    "SoftwareRun",
    "scan_sequential",
    "run_segment",
    "software_cse_scan",
    "segment_pool",
    "dfa_fingerprint",
]


def _table_rows(dfa: Dfa) -> List[List[int]]:
    """Transition table as nested lists (fast scalar indexing)."""
    return [row.tolist() for row in dfa.transitions]


def scan_sequential(
    dfa: Dfa,
    symbols,
    start_state: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    symbol_list: Optional[List[int]] = None,
) -> Tuple[int, float]:
    """Tight sequential scan; returns ``(final_state, seconds)``.

    ``rows`` / ``symbol_list`` optionally reuse conversions the caller
    already paid for (:func:`software_cse_scan` hands the oracle the list
    its python-backend segments walked).  This interpreted loop is the
    ``verify`` oracle: the scan's own concrete walks run on
    :func:`repro.kernels.walk`, so the oracle stays independent of them.
    """
    syms = symbol_list if symbol_list is not None else as_symbols(symbols).tolist()
    if rows is None:
        rows = _table_rows(dfa)
    state = dfa.start if start_state is None else int(start_state)
    begin = time.perf_counter()
    for sym in syms:
        state = rows[sym][state]
    elapsed = time.perf_counter() - begin
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
    ``backend`` selects the interpreted reference path (``"python"``) or a
    batched kernel (``"dense"`` / ``"native"`` / ``"prefilter"``) —
    results are bit-identical.
    """
    if backend != "python":
        # run_segments_batch widens what its kernel cannot read at byte
        # width (the prefilter sweep and the native core read uint8 views)
        begin = time.perf_counter()
        functions = run_segments_batch(dfa, partition, [segment], backend=backend)
        return functions[0], time.perf_counter() - begin
    if rows is None:
        rows = _table_rows(dfa)
    table = dfa.transitions.astype(np.int64)
    blocks = partition.block_arrays()
    if segment_list is None:
        segment_list = as_symbols(segment).tolist()
    begin = time.perf_counter()
    outcomes: List[CsOutcome] = []
    for block in blocks:
        current = block
        scalar: Optional[int] = int(current[0]) if current.size == 1 else None
        for idx, sym in enumerate(segment_list):
            if scalar is not None:
                # degraded to a single path: same cost as sequential
                scalar = rows[sym][scalar]
                continue
            current = np.unique(table[sym].take(current))
            if current.size == 1:
                scalar = int(current[0])
                # walk the remaining symbols scalar-fashion
                for tail_sym in segment_list[idx + 1:]:
                    scalar = rows[tail_sym][scalar]
                break
        if scalar is not None:
            outcomes.append(
                CsOutcome(True, int(scalar),
                          np.asarray([scalar], dtype=np.int64))
            )
        else:
            outcomes.append(CsOutcome(False, None, current))
    elapsed = time.perf_counter() - begin
    if obs.is_enabled():
        collapses = sum(
            1 for blk, out in zip(blocks, outcomes)
            if blk.size > 1 and out.converged
        )
        obs.counter("kernels_collapses_total", backend="python").inc(collapses)
        obs.counter("kernels_positions_total", backend="python").inc(
            len(segment_list)
        )
    return SegmentFunction(outcomes, partition.labels()), elapsed


# ----------------------------------------------------------------------
# process-pool support: ship the transition table once per worker
# ----------------------------------------------------------------------

_WORKER_DFA: Optional[Dfa] = None
#: the one shared-memory segment a worker keeps attached (name, handle);
#: replaced (old handle closed) when a scan ships a new segment name
_WORKER_SHM: Optional[Tuple[str, "object"]] = None


def dfa_fingerprint(dfa: Dfa) -> Tuple:
    """A stable identity for a DFA (used to match pools to machines).

    Delegates to the memoized :attr:`repro.automata.dfa.Dfa.fingerprint`
    (table bytes + dtype + shape + start + accepting) — the same value the
    compilation cache addresses artifacts with, computed once per machine
    instead of re-hashed per scan.
    """
    return dfa.fingerprint


def _pool_init(table_bytes, shape, start, accepting) -> None:
    global _WORKER_DFA
    table = np.frombuffer(table_bytes, dtype=np.int32).reshape(shape)
    _WORKER_DFA = Dfa(table, start, accepting)


def _pool_run_segment(partition, segment, backend, collect=False,
                      seg_index=None, trace_id=None):
    """Worker-side segment execution, optionally with local telemetry.

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


# ----------------------------------------------------------------------
# zero-copy input dispatch: one shared-memory segment per scan
# ----------------------------------------------------------------------


def _share_symbols(syms: np.ndarray):
    """Place the scan's symbol array into shared memory once.

    Returns the :class:`~multiprocessing.shared_memory.SharedMemory`
    handle, or ``None`` when shared memory is unavailable on this
    platform — callers fall back to pickling segment slices, the
    pre-shared-memory behavior.  The populate is one dtype-preserving
    ndarray write: uint8 byte views (memoryview/mmap-backed input) land in
    shared memory at byte width without an intermediate ``bytes()`` copy
    or int64 widening.
    """
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, syms.nbytes))
    except (ImportError, OSError, PermissionError):
        obs.counter("software_shm_fallbacks_total").inc()
        return None
    try:
        view = np.frombuffer(shm.buf, dtype=syms.dtype, count=syms.size)
        view[:] = syms
        del view
        obs.counter("software_shm_scans_total").inc()
        obs.counter("software_shm_bytes_total").inc(int(syms.nbytes))
    except BaseException:
        # the segment exists but was never handed out: close and unlink
        # here or it outlives the scan as a stray /dev/shm file
        shm.close()
        shm.unlink()
        raise
    return shm


def _release_shared(shm) -> None:
    """Close + unlink the parent's handle; errors are non-fatal."""
    for call in (shm.close, shm.unlink):
        try:
            call()
        except (OSError, FileNotFoundError, BufferError):
            pass


def _attach_worker_shm(name: str):
    """Attach (and cache) the scan's shared-memory segment in a worker.

    Workers hold exactly one attachment: a new segment name closes the
    previous one, so a long-lived pool never accumulates mappings.
    Attaches with ``track=False`` where available (3.13+); on older
    Pythons the worker's register collapses into the process-tree-shared
    resource tracker's name set, and the parent's ``unlink`` performs the
    single balanced unregister — so no extra bookkeeping is needed.
    """
    global _WORKER_SHM
    if _WORKER_SHM is not None and _WORKER_SHM[0] == name:
        return _WORKER_SHM[1]
    from multiprocessing import shared_memory

    if _WORKER_SHM is not None:
        try:
            _WORKER_SHM[1].close()
        except (OSError, BufferError):
            pass
        _WORKER_SHM = None
    # attach-side handles are cached for the pool's lifetime on purpose:
    # the parent's _release_shared performs the one balanced unlink
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # repro: noqa(R102)
    except TypeError:  # Python < 3.13: no track flag
        shm = shared_memory.SharedMemory(name=name)  # repro: noqa(R102)
    _WORKER_SHM = (name, shm)
    return shm


def _pool_run_segment_shm(
    partition, shm_name, start, stop, backend, dtype="int64", collect=False,
    seg_index=None, trace_id=None,
):
    """Worker-side execution of a ``(shm_name, offset, length)`` segment.

    The symbol data is read directly out of the scan's shared-memory
    segment — nothing but the coordinates (and the dtype, so uint8 byte
    views round-trip at byte width) crosses the process boundary.
    """
    shm = _attach_worker_shm(shm_name)
    symbols = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=stop)[start:stop]
    return _pool_run_segment(partition, symbols, backend, collect, seg_index,
                             trace_id)


# ----------------------------------------------------------------------
# mmap input dispatch: workers map the input file themselves
# ----------------------------------------------------------------------

#: the one mapped input file a worker keeps open ``(path, mmap, file)``;
#: replaced (old mapping closed) when a scan ships a new path
_WORKER_MMAP: Optional[Tuple[str, "object", "object"]] = None


def _attach_worker_mmap(path: str):
    """Map (and cache) the scan's input file in a worker.

    The worker-side twin of :func:`_attach_worker_shm` for file-backed
    :class:`repro.ingest.InputView` inputs: one mapping per worker,
    swapped when a scan names a different file.
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


def _pool_run_segment_mmap(
    partition, path, start, stop, backend, collect=False, seg_index=None,
    trace_id=None,
):
    """Worker-side execution of a ``(path, offset, length)`` mmap segment.

    ``start``/``stop`` are absolute byte offsets into the file.  The
    worker maps the file once (page-cache shared with the parent) and
    aliases the segment as a uint8 view — zero copies anywhere: nothing
    but the coordinates crosses the process boundary, and no populate
    step exists at all, unlike the shared-memory path.
    """
    mapped = _attach_worker_mmap(path)
    symbols = np.frombuffer(
        mapped, dtype=np.uint8, count=stop - start, offset=start
    )
    return _pool_run_segment(partition, symbols, backend, collect, seg_index,
                             trace_id)


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
    pool._repro_dfa_fingerprint = dfa_fingerprint(dfa)
    return pool


@dataclass
class SoftwareRun:
    """Measured outcome of a software CSE scan."""

    final_state: int
    n_symbols: int
    n_segments: int
    sequential_seconds: float
    segment_seconds: List[float]
    repair_seconds: float
    elapsed_seconds: float
    reexec_segments: int
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
    def work_speedup(self) -> float:
        """Speedup a machine with one core per segment would achieve."""
        if self.critical_path_seconds <= 0:
            return float("inf")
        return self.sequential_seconds / self.critical_path_seconds

    @property
    def work_efficiency(self) -> float:
        """work_speedup / n_segments: 1.0 means CSE added zero overhead."""
        return self.work_speedup / self.n_segments


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
    use_shared_memory: Optional[bool] = None,
) -> SoftwareRun:
    """Scan an input with software CSE; verify against the tight loop.

    ``executor`` (e.g. a pool from :func:`segment_pool`) runs segments
    truly in parallel when cores exist; without one, segments run serially
    but are timed individually, so :attr:`SoftwareRun.work_speedup` still
    reports the parallel-machine number faithfully.  With a kernel
    ``backend`` and no executor, all enumerative segments execute in one
    batched pass (:func:`repro.kernels.run_segments_batch`); its elapsed
    time is attributed evenly across segments, which is the honest
    amortized figure for a SIMD realization of the parallel machine.

    ``verify=False`` skips the sequential oracle pass (the composed result
    is exact by construction — re-execution repairs any failed
    speculation); callers on the hot path (streaming) use it, at the price
    of ``sequential_seconds`` reading 0.

    ``compiled`` optionally supplies a
    :class:`repro.compilecache.CompiledDfa` artifact whose prebuilt tables
    (scalar rows, dense table, prefilter certificate) are reused instead
    of being derived per scan; results are bit-identical with or without
    it.  ``use_shared_memory`` controls how segments reach a
    fingerprint-matched process pool: ``None`` (auto) and ``True`` place
    the symbol array in one :mod:`multiprocessing.shared_memory` segment
    and ship ``(name, offset, length)`` coordinates, falling back to
    pickled slices when shared memory is unavailable; ``False`` forces the
    pickle path.

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
            start_state, verify, compiled, use_shared_memory,
        )
    with obs.trace() as trace_id:
        run = _software_cse_scan(
            dfa, symbols, partition, n_segments, executor, policy, backend,
            start_state, verify, compiled, use_shared_memory,
        )
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
    use_shared_memory: Optional[bool] = None,
) -> SoftwareRun:
    """The scan body; trace scoping/flight summary live in the wrapper."""
    if compiled is not None:
        requested = compiled.requested_backend
        backend = compiled.backend if backend in (None, "auto") else backend
        backend = resolve_backend(dfa, backend, partition, n_segments)
        rows = compiled.rows
    else:
        requested = "auto" if backend in (None, "auto") else str(backend)
        backend = resolve_backend(dfa, backend, partition, n_segments)
        rows = _table_rows(dfa)
    pf_tables = None
    if backend == "prefilter":
        pf_tables = (
            compiled.prefilter_tables() if compiled is not None
            else certify_prefilter(dfa)
        )
        if pf_tables is None:
            # explicit request on an uncertifiable machine: the scan must
            # still be exact, so degrade to the dense frontier (the
            # resolve_backend auto path never lands here — it only picks
            # prefilter when certification succeeded)
            obs.counter("kernels_prefilter_fallbacks_total").inc()
            backend = "native" if native_available() else "dense"
    # byte-width input stays at byte width where it can: the prefilter's
    # anchor sweep, the native frontier core and the concrete walks
    # (segment 0, re-execution) read the uint8 view directly
    view8 = byte_view(symbols)
    if backend in ("prefilter", "native") and view8 is not None:
        syms = view8
    else:
        syms = as_symbols(symbols)
    walk_syms = view8 if view8 is not None else syms
    bounds = even_boundaries(int(syms.size), n_segments)
    # python-backend segments run here walk a list (shared with the
    # verify oracle, which otherwise converts when it runs)
    syms_list: Optional[List[int]] = (
        syms.tolist() if executor is None and backend == "python" else None
    )
    # the dense tables serve the dense/native kernels, the prefilter (and
    # its frontier fallback) and the compiled concrete walks (segment 0,
    # re-execution); an artifact builds them once
    dense: Optional[DenseTables] = None
    if compiled is not None:
        dense = compiled.dense_tables()
    elif backend in ("dense", "native") or native_available():
        dense = DenseTables(dfa)

    def concrete_walk(segment: np.ndarray, state: Optional[int]) -> int:
        if pf_tables is not None:
            # a proven reset erases the prefix before it: walk the tail
            return prefilter_walk(dfa, pf_tables, segment, state, rows, dense)
        return walk(dfa, segment, state, tables=dense, rows=rows)[0]

    collect = obs.is_enabled()
    trace_id = obs.current_trace_id() if collect else None
    scan_wall = time.time()
    begin_all = time.perf_counter()

    # segment 1: concrete scan
    a0, b0 = bounds[0]
    if backend == "prefilter":
        begin0 = time.perf_counter()
        first_final, _walked = prefilter_scan_scalar(
            dfa, pf_tables, syms[a0:b0], start_state=start_state, rows=rows,
            dense=dense,
        )
        first_seconds = time.perf_counter() - begin0
    else:
        begin0 = time.perf_counter()
        first_final = concrete_walk(walk_syms[a0:b0], start_state)
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
        coords = symbols.coords() if isinstance(symbols, InputView) else None
        shm = None
        if (
            pooled and coords is not None and use_shared_memory is not False
            and enum_bounds
        ):
            # file-backed input: workers mmap the file themselves; only
            # (path, offset, length) coordinates cross the boundary and
            # there is no populate step at all
            path, base, _length = coords
            if collect:
                obs.counter("software_mmap_scans_total").inc()
                obs.counter("software_mmap_bytes_total").inc(int(syms.nbytes))
            futures = [
                executor.submit(_pool_run_segment_mmap, partition, path,
                                base + a, base + b, backend, collect, i + 1,
                                trace_id)
                for i, (a, b) in enumerate(enum_bounds)
            ]
            timed = [f.result() for f in futures]
        else:
            if pooled and use_shared_memory is not False and enum_bounds:
                shm = _share_symbols(syms)
            try:
                if shm is not None:
                    futures = [
                        executor.submit(_pool_run_segment_shm, partition,
                                        shm.name, a, b, backend,
                                        str(syms.dtype), collect, i + 1,
                                        trace_id)
                        for i, (a, b) in enumerate(enum_bounds)
                    ]
                elif pooled:
                    futures = [
                        executor.submit(_pool_run_segment, partition,
                                        syms[a:b], backend, collect, i + 1,
                                        trace_id)
                        for i, (a, b) in enumerate(enum_bounds)
                    ]
                else:
                    futures = [
                        executor.submit(run_segment, dfa, partition,
                                        syms[a:b], backend)
                        for a, b in enum_bounds
                    ]
                timed = [f.result() for f in futures]
            finally:
                if shm is not None:
                    _release_shared(shm)
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
        kernel_wall = time.time()
        kernel_begin = time.perf_counter()
        functions = run_segments_batch(
            dfa, partition, [syms[a:b] for a, b in enum_bounds], backend=backend,
            dense=dense,
            prefilter=pf_tables,
        )
        kernel_elapsed = time.perf_counter() - kernel_begin
        enum_seconds = [kernel_elapsed / max(1, len(enum_bounds))] * len(enum_bounds)
        if collect:
            # the batched kernel runs all segments in one pass; attribute
            # an even share to each so the trace still shows one span per
            # segment (flagged as attributed, not individually measured)
            for i, sec in enumerate(enum_seconds):
                obs.record_span("software.segment", kernel_wall, sec,
                                segment=i + 1, backend=backend,
                                attributed=True)
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
        dfa, walk_syms, enum_bounds, functions, first_final, policy=policy,
        walk=concrete_walk,
    )
    repair_seconds = time.perf_counter() - repair_begin
    elapsed = time.perf_counter() - begin_all

    if collect:
        obs.record_span("software.repair", repair_wall, repair_seconds,
                        policy=policy,
                        reexecuted=len(stats.reexecuted_segments))
        obs.record_span("software.scan", scan_wall, elapsed,
                        backend=backend, n_segments=n_segments,
                        n_symbols=int(syms.size))
        obs.counter("software_scans_total", backend=backend).inc()
        obs.counter("software_symbols_total").inc(int(syms.size))
        # pre-create one re-exec counter per enumerative segment so a
        # clean scan still exports the full per-segment series at 0
        for i in range(len(enum_bounds)):
            obs.counter("software_segment_reexec_total", segment=i + 1)
        for i in stats.reexecuted_segments:
            obs.counter("software_segment_reexec_total", segment=i + 1).inc()
        reexecuted = set(stats.reexecuted_segments)
        obs.counter("software_reexec_segments_total").inc(len(reexecuted))
        obs.counter("software_speculation_hits_total").inc(
            len(enum_bounds) - len(reexecuted)
        )
        obs.counter("software_speculation_misses_total").inc(len(reexecuted))
        obs.counter("software_reeval_passes_total").inc(stats.reeval_passes)
        obs.counter("software_diverged_segments_total").inc(
            stats.diverged_segments
        )
        obs.histogram("software_scan_seconds", backend=backend).observe(elapsed)

    sequential_seconds = 0.0
    if verify:
        oracle, sequential_seconds = scan_sequential(
            dfa, syms, start_state=start_state, rows=rows, symbol_list=syms_list
        )
        if final != oracle:
            raise AssertionError("software CSE diverged from the tight loop")
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
