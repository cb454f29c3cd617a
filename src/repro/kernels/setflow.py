"""The interpreted set-flow loop: the ``python`` backend's body.

Each segment runs one set-flow per convergence set.  While a set has
more than one member a symbol is a vectorized gather + unique over it;
the moment it collapses the flow degrades to the scalar table walk over
nested lists, the software analogue of "M = 1 computes all paths at the
cost of one".

It is the oracle every compiled kernel is bit-identical to, and the
frontier wherever the native library does not load: the ``python``
backend (:func:`repro.software.run_segment`), a
:func:`repro.kernels.run_segments_batch` call for ``native`` without the
library, and the prefilter's unproven segments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome

__all__ = ["collapses", "run_segments_setflow", "setflows"]


def setflows(
    dfa: Dfa,
    partition: StatePartition,
    symbols: Sequence[int],
    rows: List[List[int]],
    table: Optional[np.ndarray] = None,
) -> List[CsOutcome]:
    """One segment's set-flows, one :class:`CsOutcome` per block.

    ``symbols`` is the admitted segment as a list of ints, ``rows`` the
    transition table as nested lists and ``table`` the int64 transition
    matrix (derived from ``dfa`` when not given).
    """
    if table is None:
        table = dfa.transitions.astype(np.int64)
    outcomes: List[CsOutcome] = []
    for block in partition.block_arrays():
        current = block
        scalar: Optional[int] = int(current[0]) if current.size == 1 else None
        for idx, sym in enumerate(symbols):
            if scalar is not None:
                # degraded to a single path: same cost as sequential
                scalar = rows[sym][scalar]
                continue
            current = np.unique(table[sym].take(current))
            if current.size == 1:
                scalar = int(current[0])
                # walk the remaining symbols scalar-fashion
                for tail_sym in symbols[idx + 1:]:
                    scalar = rows[tail_sym][scalar]
                break
        if scalar is not None:
            outcomes.append(
                CsOutcome(True, int(scalar),
                          np.asarray([scalar], dtype=np.int64))
            )
        else:
            outcomes.append(CsOutcome(False, None, current))
    return outcomes


def collapses(partition: StatePartition, outcomes: List[CsOutcome]) -> int:
    """Sets of more than one state that converged: the kernels' stat."""
    return sum(1 for block, out in zip(partition.block_arrays(), outcomes)
               if block.size > 1 and out.converged)


def run_segments_setflow(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    rows: Optional[List[List[int]]] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """:func:`setflows` over a batch of admitted segments.

    Returns ``(grid, stats)`` with the batched kernels' grid contract and
    stats keys ``positions`` (the longest segment) and ``collapses``.
    """
    if rows is None:
        rows = dfa.transitions.tolist()
    table = dfa.transitions.astype(np.int64)
    grid = [setflows(dfa, partition, seg.tolist(), rows, table)
            for seg in segments]
    stats = {
        "positions": max((int(seg.size) for seg in segments), default=0),
        "collapses": sum(collapses(partition, row) for row in grid),
    }
    return grid, stats
