"""The compile-once artifact: everything a scan otherwise rebuilds.

A :class:`CompiledDfa` bundles the products of the paper's *offline* phase
(random-input profiling census + merged convergence partition) together
with every per-scan table the software path derives from the transition
matrix:

- the scalar table rows the interpreted walk indexes
  (``repro.software._table_rows``),
- the dense kernel's dtype-narrowed table + per-symbol column offsets
  (:class:`repro.kernels.DenseTables`, built eagerly when the resolved
  backend is ``"dense"`` or ``"native"``, lazily otherwise),
- the literal-prefilter certificate — anchor LUT, home state and proven
  skip width (:class:`repro.kernels.PrefilterTables`, built eagerly when
  the resolved backend is ``"prefilter"``; ``None`` when the machine is
  not literal-certifiable),
- the resolved kernel backend hint for the artifact's segment count.

Content addressing lives in :func:`cache_key`: the key is a digest of the
DFA fingerprint (table bytes + dtype + shape + start + accepting) and of
every parameter that can change the artifact — the profiling knobs, the
merge cutoff/budget, and the kernel parameters (requested backend,
segment count).  Two calls agreeing on all of those may share an artifact;
any disagreement derives a different key.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import astuple, dataclass, field
from typing import Counter as CounterT, List, Optional, Tuple

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
    certify_prefilter,
    resolve_backend,
)

__all__ = ["CompiledDfa", "cache_key", "compile_dfa"]


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


@dataclass
class CompiledDfa:
    """A compile-once, scan-many execution plan for one DFA."""

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
    #: whether the prefilter certificate has been derived yet (it is
    #: legitimately ``None`` for uncertifiable machines, so presence
    #: cannot double as the built flag)
    _prefilter_built: bool = field(default=False, repr=False)

    @property
    def partition(self) -> StatePartition:
        """The merged convergence partition scans speculate on."""
        return self.merge.partition

    @property
    def num_convergence_sets(self) -> int:
        return self.partition.num_blocks

    def dense_tables(self) -> DenseTables:
        """Dtype-narrowed dense table + column offsets, built on first use."""
        if self._dense is None:
            self._dense = DenseTables(self.dfa)
        return self._dense

    def prefilter_tables(self) -> Optional[PrefilterTables]:
        """Literal-skip certificate, derived on first use.

        ``None`` means the machine is not literal-certifiable — scans
        requesting ``backend="prefilter"`` degrade to the dense kernel.
        """
        if not self._prefilter_built:
            self._prefilter = certify_prefilter(self.dfa)
            self._prefilter_built = True
        return self._prefilter

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
    resolved = resolve_backend(dfa, backend, merge.partition, n_segments)
    compiled = CompiledDfa(
        dfa=dfa,
        fingerprint=dfa.fingerprint,
        key=cache_key(
            dfa.fingerprint, profiling, cutoff, max_blocks, requested, n_segments
        ),
        rows=[row.tolist() for row in dfa.transitions],
        census=census,
        merge=merge,
        profiling=profiling,
        merge_cutoff=float(cutoff),
        max_blocks=max_blocks,
        requested_backend=requested,
        backend=resolved,
        n_segments=int(n_segments),
    )
    if resolved in ("dense", "native"):
        # the native tier reads the dense tables as-is: one artifact
        # serves both, and a toolchain-less load still scans with dense
        compiled.dense_tables()
    elif resolved == "prefilter":
        compiled.prefilter_tables()
    compiled.build_seconds = time.perf_counter() - begin
    return compiled
