"""The compile-once artifact: everything a scan otherwise rebuilds.

A :class:`CompiledDfa` bundles the products of the paper's *offline* phase
(random-input profiling census + merged convergence partition) together
with every per-scan table the software path derives from the transition
matrix:

- the scalar table rows the interpreted walk indexes
  (:func:`repro.kernels.tables.table_rows`),
- the dtype-narrowed dense table the compiled kernels read
  (:class:`repro.kernels.DenseTables`, built eagerly when the resolved
  backend is ``"native"``, lazily otherwise),
- the literal-prefilter certificate — anchor LUT, home state and proven
  skip width (:class:`repro.kernels.PrefilterTables`, built eagerly when
  the resolved backend is ``"prefilter"``; ``None`` when the machine is
  not literal-certifiable),
- the resolved kernel backend (:func:`repro.kernels.resolve_backend`),
- for an ``auto`` artifact, the measured per-byte costs of its scan
  plans (:class:`PlanCosts`) and its lazily grown SFA
  (:class:`repro.kernels.sfa.LazySfa`): kept in memory only, never
  stored.

Content addressing lives in :func:`cache_key`: the key is a digest of the
DFA fingerprint (table bytes + dtype + shape + start + accepting) and of
every parameter that can change the artifact — the profiling knobs, the
merge cutoff/budget, and the kernel parameters (requested backend,
segment count).  Two calls agreeing on all of those may share an artifact;
any disagreement derives a different key.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from collections import deque
from dataclasses import astuple, dataclass, field
from typing import Counter as CounterT, Deque, Dict, List, Optional, Set, Tuple

from repro.core.partition import StatePartition
from repro.core.profiling import (
    MergeResult,
    ProfilingConfig,
    merge_to_cutoff,
    profile_partitions,
)
from repro.automata.dfa import Dfa
from repro.kernels import (
    DenseTables,
    PrefilterTables,
    resolve_backend,
)
from repro.kernels.sfa import LazySfa
from repro.kernels.tables import LazyTables, table_rows

__all__ = ["CompiledDfa", "PlanCosts", "cache_key", "compile_dfa"]

#: the walk plan must measure this much cheaper per byte than the CSE
#: plan before an ``auto`` scan switches to it; near-ties stay put
PLAN_MARGIN = 1.2
#: samples each running median keeps
PLAN_WINDOW = 5
#: samples both plans need before a switch.  ``numpy.ma`` is imported
#: with :mod:`repro.core.transition` now, so a process's first random64
#: scan no longer reads 12-17 ns/B against 2-3 warm; it still reads up to
#: 1.15x its warm scans, and one sample swings more than ``PLAN_MARGIN``
#: on a busy host, which a median of three outlasts
PLAN_MIN_SAMPLES = 3
#: serializes creating an artifact's SFA, so threads share one
_SFA_CREATE = threading.Lock()


def cache_key(
    fingerprint: Tuple,
    profiling: ProfilingConfig,
    cutoff: float,
    max_blocks: Optional[int],
    backend: str,
    n_segments: int,
) -> str:
    """Content address of a compilation: hex digest of every input knob."""
    payload = repr((
        fingerprint,
        astuple(profiling),
        float(cutoff),
        max_blocks,
        str(backend),
        int(n_segments),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanCosts:
    """Measured ns per input byte of an ``auto`` scan's three plans.

    ``"cse"`` is the artifact's CSE plan, timed whole
    (:attr:`repro.software.SoftwareRun.elapsed_seconds`); ``"walk"`` is
    one compiled walk of the whole input, sampled by every CSE scan's
    segment 0 (a plain walk outside the prefilter) and by every
    walk-plan scan itself; ``"sfa"`` is the SFA plan, one lane per
    segment over the artifact's lazily grown SFA, sampled only by scans
    that grew no row.  Each ``(plan, pooled)`` pair keeps a short running
    median, since a pool changes what the CSE plan costs.

    The walk plan replaces the CSE plan once it is :data:`PLAN_MARGIN`
    cheaper.  After :data:`PLAN_MIN_SAMPLES` walk-plan scans, so that the
    walk's median rests on whole-input walks, a scan that may run the SFA
    (``sfa=True``: the native library loads and the SFA is not abandoned)
    tries it until it has as many samples; it then replaces the walk plan
    if it is :data:`PLAN_MARGIN` cheaper, and is never tried again
    otherwise.  Every switch and rejection is sticky.  Threads scanning
    one artifact share it without a lock: each step is one container
    call, and a race at worst counts one switch twice.
    """

    def __init__(self) -> None:
        self._samples: Dict[Tuple[str, bool], Deque[float]] = {}
        self._switched: Set[bool] = set()
        self._walks: Dict[bool, int] = {}
        self._sfa_switched: Set[bool] = set()
        self._sfa_rejected: Set[bool] = set()

    def record(self, plan: str, pooled: bool, ns_per_byte: float) -> None:
        window = self._samples.setdefault(
            (plan, pooled), deque(maxlen=PLAN_WINDOW))
        window.append(ns_per_byte)

    def _window(self, plan: str, pooled: bool) -> List[float]:
        return list(self._samples.get((plan, pooled), ()))

    def median(self, plan: str, pooled: bool) -> Optional[float]:
        """The running median of ``plan``'s cost, ``None`` before a sample."""
        window = self._window(plan, pooled)
        return float(statistics.median(window)) if window else None

    def choose(self, pooled: bool, sfa: bool = False) -> Tuple[str, str]:
        """``(plan, reason)`` for the next scan."""
        if pooled not in self._switched:
            walk = self._window("walk", pooled)
            cse = self._window("cse", pooled)
            if min(len(walk), len(cse)) < PLAN_MIN_SAMPLES:
                return "cse", "unmeasured"
            if statistics.median(walk) * PLAN_MARGIN > statistics.median(cse):
                return "cse", "walk-not-cheaper"
            self._switched.add(pooled)
            return self._walk(pooled, "walk-cheaper")
        if not sfa or pooled in self._sfa_rejected \
                or self._walks.get(pooled, 0) < PLAN_MIN_SAMPLES:
            return self._walk(pooled, "switched")
        if pooled in self._sfa_switched:
            return "sfa", "switched"
        lanes = self._window("sfa", pooled)
        if len(lanes) < PLAN_MIN_SAMPLES:
            return "sfa", "unmeasured"
        if statistics.median(lanes) * PLAN_MARGIN \
                > statistics.median(self._window("walk", pooled)):
            self._sfa_rejected.add(pooled)
            return self._walk(pooled, "sfa-not-cheaper")
        self._sfa_switched.add(pooled)
        return "sfa", "sfa-cheaper"

    def _walk(self, pooled: bool, reason: str) -> Tuple[str, str]:
        self._walks[pooled] = self._walks.get(pooled, 0) + 1
        return "walk", reason


@dataclass
class CompiledDfa(LazyTables):
    """A compile-once, scan-many execution plan for one DFA.

    Its dense tables and prefilter certificate are built on first use
    (:class:`repro.kernels.tables.LazyTables`), or at compile time for
    the backend that reads them.
    """

    dfa: Dfa
    fingerprint: Tuple
    key: str
    #: scalar table rows (nested lists), the interpreted walk's format
    rows: List[List[int]]
    #: profiling census the partition was merged from
    census: CounterT[StatePartition]
    #: merge outcome; ``merge.partition`` is the scan partition
    merge: MergeResult
    profiling: ProfilingConfig
    merge_cutoff: float
    max_blocks: Optional[int]
    #: backend the compiler was asked for (may be ``"auto"``)
    requested_backend: str
    #: backend :func:`repro.kernels.resolve_backend` settled on
    backend: str
    n_segments: int
    build_seconds: float = 0.0
    _dense: Optional[DenseTables] = field(default=None, repr=False)
    _prefilter: Optional[PrefilterTables] = field(default=None, repr=False)
    _prefilter_built: bool = field(default=False, repr=False)
    #: the plan costs ``auto`` scans measure; in memory only
    plans: PlanCosts = field(default_factory=PlanCosts, repr=False,
                             compare=False)
    #: the SFA plan's lazily grown SFA, built on first use; in memory only
    _sfa: Optional[LazySfa] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> Dict[str, object]:
        # measured costs and the SFA grown from this process's traffic
        # belong to it: never stored
        state = dict(self.__dict__)
        del state["plans"]
        del state["_sfa"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.plans = PlanCosts()
        self._sfa = None

    @property
    def partition(self) -> StatePartition:
        """The merged convergence partition scans speculate on."""
        return self.merge.partition

    @property
    def num_convergence_sets(self) -> int:
        return self.partition.num_blocks

    def sfa(self) -> LazySfa:
        """The lazily grown SFA of the machine, created on first use."""
        if self._sfa is None:
            with _SFA_CREATE:
                if self._sfa is None:
                    self._sfa = LazySfa(self.dfa)
        return self._sfa

    @property
    def sfa_abandoned(self) -> bool:
        """Whether the SFA outgrew its budget (never true before it exists)."""
        return self._sfa is not None and self._sfa.abandoned

    @property
    def nbytes(self) -> int:
        """Approximate artifact footprint (tables only)."""
        total = int(self.dfa.transitions.nbytes)
        if self._dense is not None:
            total += self._dense.nbytes
        if self._prefilter is not None:
            total += self._prefilter.nbytes
        return total


def compile_dfa(
    dfa: Dfa,
    profiling: Optional[ProfilingConfig] = None,
    cutoff: float = 0.99,
    max_blocks: Optional[int] = None,
    backend: str = "auto",
    n_segments: int = 16,
) -> CompiledDfa:
    """Run the offline phase once and bundle every scan-time table.

    Profiling runs through the vectorized profiler
    (:func:`repro.core.profiling.profile_partitions`).  The census
    and merged partition are exactly what the un-cached pipeline computes
    for the same :class:`ProfilingConfig` — caching changes *when* the
    work happens, never its value.
    """
    profiling = profiling or ProfilingConfig()
    begin = time.perf_counter()
    census = profile_partitions(dfa, profiling)
    merge = merge_to_cutoff(census, cutoff=cutoff, max_blocks=max_blocks)
    requested = "auto" if backend in (None, "auto") else str(backend)
    resolved = resolve_backend(dfa, backend)
    compiled = CompiledDfa(
        dfa=dfa,
        fingerprint=dfa.fingerprint,
        key=cache_key(
            dfa.fingerprint, profiling, cutoff, max_blocks, requested, n_segments
        ),
        rows=table_rows(dfa),
        census=census,
        merge=merge,
        profiling=profiling,
        merge_cutoff=float(cutoff),
        max_blocks=max_blocks,
        requested_backend=requested,
        backend=resolved,
        n_segments=int(n_segments),
    )
    if resolved == "native":
        compiled.dense_tables()
    elif resolved == "prefilter":
        compiled.prefilter_tables()
    compiled.build_seconds = time.perf_counter() - begin
    return compiled
