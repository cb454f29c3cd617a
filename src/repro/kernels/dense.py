"""Dense-frontier enumeration kernel: one gather per symbol position.

The interpreted reference path pays Python per transition; a batched
kernel should pay it per symbol position, and as few NumPy calls per
position as possible.  The data-parallel-optimal form is the one
Simultaneous Finite Automata materializes: keep the **full**
``state -> state`` mapping per segment and advance it whole.  This module
realizes that form:

- one dense *frontier* vector of all N states per enumerative segment,
  flattened across segments, so every symbol position is exactly **one
  flat gather** of ``n_segments x N`` elements
  (``frontier = table[col_off[seg] + frontier]``) plus the offset
  add, both into preallocated buffers;
- the state dtype is narrowed to uint8/uint16 when N permits
  (:func:`dense_state_dtype`), so the gather table and the frontier stay
  cache-dense;
- collapse detection is a **strided** check every K positions (K adaptive
  unless pinned): per-CS uniqueness is read off the dense frontier with a
  blocked min/max ``reduceat``.  Correctness is unaffected by the stride —
  the dense step costs the same whether or not a set has collapsed, and
  the final per-CS outcomes are derived once at segment end;
- a segment whose *entire* frontier collapses to one state is an
  identity-composable singleton: every enumeration path is the same path.
  Such segments degrade out of the dense gather entirely and continue as
  one scalar flow each (the batched analogue of the paper's "M = 1
  computes all paths at the cost of one").

Outcomes are bit-identical to the interpreted reference and to the
native tier, which advances the same tables in C;
``benchmarks/bench_kernels.py`` gates the speedup (dense >= 5x python on
the 64-state/1 MB/16-segment acceptance config).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome

__all__ = ["DenseTables", "dense_state_dtype", "run_segments_dense"]

#: first gap between strided collapse checks in adaptive mode
STRIDE_MIN = 8
#: ceiling the adaptive stride doubles toward while checks find nothing
STRIDE_MAX = 512


def dense_state_dtype(num_states: int) -> np.dtype[Any]:
    """Narrowest unsigned dtype that can hold every state id.

    uint8 up to 256 states, uint16 up to 65536; beyond that the table
    falls back to int64, which the dense and native kernels both read.
    """
    if num_states <= (1 << 8):
        return np.dtype(np.uint8)
    if num_states <= (1 << 16):
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class DenseTables:
    """Dtype-narrowed dense transition table + per-symbol column offsets.

    ``table`` is the raveled transition matrix in :func:`dense_state_dtype`
    precision; ``offsets[c] == c * num_states`` is the column offset of
    symbol ``c`` into it (int64: offsets index the full table and must not
    narrow).  Built once per DFA — the compilation cache stores an
    instance inside :class:`repro.compilecache.CompiledDfa` so scans never
    re-derive it.
    """

    def __init__(self, dfa: Dfa) -> None:
        n = dfa.num_states
        self.num_states = n
        self.dtype = dense_state_dtype(n)
        self.table = dfa.transitions.astype(self.dtype).ravel()
        self.offsets = np.arange(dfa.alphabet_size, dtype=np.int64) * n
        #: the native tier's C view of ``table``, resolved on its first
        #: call (:mod:`repro.kernels.native`); never pickled, since it
        #: holds an address
        self.native_args: Optional[
            Tuple[np.ndarray, np.ndarray, int, int]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["native_args"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.native_args = None

    @property
    def nbytes(self) -> int:
        return int(self.table.nbytes) + int(self.offsets.nbytes)


def _compact(
    act: np.ndarray, frontier: np.ndarray, keep: np.ndarray,
    cs_starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drop dense rows; rebuild the step buffers and reduceat starts."""
    act = act[keep]
    frontier = np.ascontiguousarray(frontier[keep], dtype=frontier.dtype)
    idx = np.empty(frontier.shape, dtype=np.int64)
    buf = np.empty(frontier.shape, dtype=frontier.dtype)
    width = frontier.shape[1] if frontier.ndim == 2 else 0
    check_starts = (
        np.arange(act.size, dtype=np.int64)[:, None] * width
        + cs_starts[None, :]
    ).reshape(-1)
    return act, frontier, idx, buf, check_starts


def run_segments_dense(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: Optional[DenseTables] = None,
    stride: Optional[int] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Execute every segment's full enumeration frontier densely.

    Returns ``(grid, stats)``: ``grid[seg][block]`` is the
    :class:`CsOutcome` of convergence set ``block`` in segment ``seg``
    (bit-identical to the interpreted path), and ``stats`` carries the
    kernel's own telemetry (positions, dense gather positions, stride
    checks, degraded segments, collapses) for the orchestrator to record.

    ``stride`` pins the gap between collapse checks; ``None`` adapts it
    (start at :data:`STRIDE_MIN`, double toward :data:`STRIDE_MAX` while
    checks find nothing new, reset on progress).
    """
    from repro.engines.base import stack_segments

    if stride is not None and int(stride) < 1:
        raise ValueError("stride must be >= 1")
    tables = tables or DenseTables(dfa)
    n_seg = len(segments)
    blocks = partition.block_arrays()
    n_blocks = len(blocks)
    sizes = np.asarray([b.size for b in blocks], dtype=np.int64)
    multi_count = int((sizes > 1).sum())
    matrix, lengths = stack_segments(segments)
    max_len = int(lengths.max()) if n_seg else 0
    # (max_len, n_seg) C-order: position t's column offsets are one
    # contiguous row instead of a strided column slice
    off_rows = np.take(tables.offsets, matrix.T) if matrix.size else \
        np.zeros((max_len, n_seg), dtype=np.int64)

    # frontier columns are grouped by convergence set so a per-CS read is
    # a contiguous slice: column j tracks the path that started at perm[j]
    perm = np.concatenate(blocks).astype(np.int64) if n_blocks else \
        np.empty(0, dtype=np.int64)
    width = int(perm.size)
    cs_starts = np.zeros(n_blocks, dtype=np.int64)
    if n_blocks > 1:
        np.cumsum(sizes[:-1], out=cs_starts[1:])
    cs_ends = cs_starts + sizes

    frontier = np.tile(perm.astype(tables.dtype), (n_seg, 1))
    act = np.arange(n_seg, dtype=np.int64)
    idx = np.empty((n_seg, width), dtype=np.int64)
    buf = np.empty((n_seg, width), dtype=tables.dtype)
    check_starts = (
        np.arange(n_seg, dtype=np.int64)[:, None] * width
        + cs_starts[None, :]
    ).reshape(-1)

    final_rows: Dict[int, np.ndarray] = {}
    scalar_final: Dict[int, int] = {}
    # degraded (uniform) segments: one scalar flow each, stepped alongside
    scalar_seg = np.empty(0, dtype=np.int64)
    scalar_state = np.empty(0, dtype=tables.dtype)
    scalar_len = np.empty(0, dtype=np.int64)

    collapsed_seen = np.zeros((n_seg, n_blocks), dtype=bool)
    boundaries = np.unique(lengths)
    b_ptr = 0
    k = int(stride) if stride is not None else STRIDE_MIN
    next_check = k
    n_checks = 0
    n_degraded = 0
    dense_positions = 0

    rows: Optional[List[List[int]]] = None
    for t in range(max_len):
        if act.size == 0:
            # every remaining segment is one scalar path: the per-position
            # NumPy dispatch now costs more than the work, so finish with
            # the interpreted table walk (lists beat numpy scalar indexing
            # ~5x — the same trade scan_sequential exploits)
            if scalar_seg.size:
                if rows is None:
                    rows = [r.tolist() for r in dfa.transitions]
                for i in range(int(scalar_seg.size)):
                    seg = int(scalar_seg[i])
                    state = int(scalar_state[i])
                    for sym in matrix[seg, t:int(lengths[seg])].tolist():
                        state = rows[sym][state]
                    scalar_final[seg] = state
                scalar_seg = np.empty(0, dtype=np.int64)
                scalar_state = np.empty(0, dtype=tables.dtype)
                scalar_len = np.empty(0, dtype=np.int64)
            break
        if b_ptr < boundaries.size and int(boundaries[b_ptr]) <= t:
            while b_ptr < boundaries.size and int(boundaries[b_ptr]) <= t:
                b_ptr += 1
            # segments ending here leave the gather with their final row
            if act.size:
                keep = lengths[act] > t
                if not keep.all():
                    for row in np.flatnonzero(~keep).tolist():
                        final_rows[int(act[row])] = frontier[row].copy()
                    act, frontier, idx, buf, check_starts = _compact(
                        act, frontier, keep, cs_starts
                    )
            if scalar_seg.size:
                s_keep = scalar_len > t
                if not s_keep.all():
                    for i in np.flatnonzero(~s_keep).tolist():
                        scalar_final[int(scalar_seg[i])] = int(scalar_state[i])
                    scalar_seg = scalar_seg[s_keep]
                    scalar_state = scalar_state[s_keep]
                    scalar_len = scalar_len[s_keep]

        if act.size:
            row = off_rows[t]
            if act.size != n_seg:
                row = row[act]
            # the whole frontier advances: one offset add + one flat
            # gather into preallocated buffers, no per-position allocation
            np.add(row[:, None], frontier, out=idx)
            np.take(tables.table, idx, out=buf, mode="clip")
            frontier, buf = buf, frontier
            dense_positions += 1

        if scalar_seg.size:
            scalar_state = np.take(
                tables.table, np.take(off_rows[t], scalar_seg) + scalar_state
            )

        if act.size and n_blocks and t + 1 >= next_check:
            n_checks += 1
            flat = frontier.reshape(-1)
            mins = np.minimum.reduceat(flat, check_starts)
            maxs = np.maximum.reduceat(flat, check_starts)
            eq = (mins == maxs).reshape(act.size, n_blocks)
            fresh = bool((eq & ~collapsed_seen[act]).any())
            if fresh:
                collapsed_seen[act] |= eq
            row_min = mins.reshape(act.size, n_blocks).min(axis=1)
            row_max = maxs.reshape(act.size, n_blocks).max(axis=1)
            uniform = row_min == row_max
            if uniform.any():
                segs = act[uniform]
                n_degraded += int(segs.size)
                scalar_seg = np.concatenate([scalar_seg, segs])
                scalar_state = np.concatenate(
                    [scalar_state, row_min[uniform].astype(tables.dtype)]
                )
                scalar_len = np.concatenate([scalar_len, lengths[segs]])
                act, frontier, idx, buf, check_starts = _compact(
                    act, frontier, ~uniform, cs_starts
                )
            if stride is None:
                k = STRIDE_MIN if fresh or bool(uniform.any()) \
                    else min(k * 2, STRIDE_MAX)
            next_check = t + 1 + k

    for row in range(int(act.size)):
        final_rows[int(act[row])] = frontier[row]
    for i in range(int(scalar_seg.size)):
        scalar_final[int(scalar_seg[i])] = int(scalar_state[i])

    n_collapsed = 0
    grid: List[List[CsOutcome]] = []
    for seg in range(n_seg):
        if seg in scalar_final:
            # the whole frontier collapsed: every convergence set maps to
            # the one surviving path's final state
            state = scalar_final[seg]
            states = np.asarray([state], dtype=np.int64)
            grid.append([CsOutcome(True, state, states)] * n_blocks)
            n_collapsed += multi_count
            continue
        fr = final_rows[seg].astype(np.int64)
        outcomes: List[CsOutcome] = []
        for b in range(n_blocks):
            uniq = np.unique(fr[cs_starts[b]:cs_ends[b]])
            if uniq.size == 1:
                outcomes.append(CsOutcome(True, int(uniq[0]), uniq))
                if sizes[b] > 1:
                    n_collapsed += 1
            else:
                outcomes.append(CsOutcome(False, None, uniq))
        grid.append(outcomes)

    stats = {
        "positions": max_len,
        "dense_positions": dense_positions,
        "stride_checks": n_checks,
        "degraded_segments": n_degraded,
        "collapses": n_collapsed,
    }
    return grid, stats
