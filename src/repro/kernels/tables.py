"""The tables a scan derives from one machine's transition matrix.

- the scalar rows the interpreted walk indexes (:func:`table_rows`),
- the dtype-narrowed dense table the compiled kernels read
  (:class:`repro.kernels.dense.DenseTables`),
- the literal-prefilter certificate
  (:func:`repro.kernels.prefilter.certify_prefilter`).

:class:`LazyTables` builds the last two on first use, for
:class:`repro.compilecache.CompiledDfa` and :class:`ScanTables` alike.
"""

from __future__ import annotations

from typing import List, Optional

from repro.automata.dfa import Dfa
from repro.kernels.dense import DenseTables
from repro.kernels.prefilter import PrefilterTables, certify_prefilter

__all__ = ["LazyTables", "ScanTables", "table_rows"]


def table_rows(dfa: Dfa) -> List[List[int]]:
    """Transition table as nested lists (fast scalar indexing)."""
    return [row.tolist() for row in dfa.transitions]


class LazyTables:
    """The dense tables and prefilter certificate of ``self.dfa``, each
    built on first use into ``_dense`` and ``_prefilter``."""

    dfa: Dfa
    _dense: Optional[DenseTables]
    _prefilter: Optional[PrefilterTables]
    #: whether the prefilter certificate has been derived yet (it is
    #: legitimately ``None`` for uncertifiable machines, so presence
    #: cannot double as the built flag)
    _prefilter_built: bool

    def dense_tables(self) -> DenseTables:
        """The dtype-narrowed dense table, built on first use."""
        if self._dense is None:
            self._dense = DenseTables(self.dfa)
        return self._dense

    def prefilter_tables(self) -> Optional[PrefilterTables]:
        """Literal-skip certificate, derived on first use.

        ``None`` means the machine is not literal-certifiable — scans
        requesting ``backend="prefilter"`` degrade to the native frontier
        (the interpreted loop without the library).
        """
        if not self._prefilter_built:
            self._prefilter = certify_prefilter(self.dfa)
            self._prefilter_built = True
        return self._prefilter


class ScanTables(LazyTables):
    """The tables scans of ``dfa`` on ``backend`` derive, built once.

    For callers that scan one machine many times without a
    :class:`repro.compilecache.CompiledDfa` (e.g. a
    :class:`repro.stream.FleetScanner` without a cache).  Pass it as
    ``compiled=``: it profiles nothing and makes no plan choice, so a
    scan with it is the scan without it, minus the rebuilding.
    """

    def __init__(self, dfa: Dfa, backend: str) -> None:
        self.dfa = dfa
        self.fingerprint = dfa.fingerprint
        self.backend = self.requested_backend = backend
        self._rows: Optional[List[List[int]]] = None
        self._dense = None
        self._prefilter = None
        self._prefilter_built = False

    @property
    def rows(self) -> List[List[int]]:
        if self._rows is None:
            self._rows = table_rows(self.dfa)
        return self._rows
