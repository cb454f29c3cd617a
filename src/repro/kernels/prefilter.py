"""Literal-prefilter fast path: skip the frontier between anchor hits.

For literal-heavy rulesets (ExactMatch/Snort-like families) almost every
input position provably cannot move the machine anywhere interesting: the
DFA sits on a *home* state that self-loops on most bytes, and only a small
set of *anchor* bytes (the required factors of the patterns — first bytes
of literals and their in-pattern continuations) can hold it away from
home.  This module derives that structure from the transition table at
compile time and exploits it at scan time, the same dead-work skip that
Simultaneous Finite Automata and factor-based regex prefilters formalize.

Certification (:func:`derive_prefilter`) is a compile-time proof, not a
heuristic.  It establishes three facts about ``(home, anchors,
skip_width)``:

1. **Home invariance** — every non-anchor byte maps ``home`` to ``home``
   (by construction: anchors are exactly the bytes that move home).
2. **Bounded absorption** — the non-anchor transition graph restricted to
   states other than home is acyclic, and ``skip_width`` is the longest
   non-anchor path before absorption at home.  Therefore **any**
   ``skip_width`` consecutive non-anchor bytes drive *every* state to
   home, after which fact 1 pins it there.  Cycles are broken by greedily
   promoting the byte carrying the most cycle edges to an anchor; if the
   anchor set grows past :data:`MAX_ANCHOR_FRACTION` of the alphabet the
   table is not literal-skippable and certification fails.
3. **Anchor soundness** — no accepting state is reachable from the start
   or home state through non-anchor bytes alone, so a scan that sees no
   anchor byte can never report: every accepting path contains an anchor.
   (``repro check`` re-verifies all three facts as K130–K132.)

The scan consequence: within a segment, only the suffix after the *last*
``>= skip_width`` run of non-anchor bytes can influence the final state —
everything before it is erased by that run (every enumeration path sits at
home when the run ends).  So a scan is a sweep plus a tail walk.  With the
native library (:func:`repro.kernels.native.native_prefilter`) a whole
batch of segments is one C call: each segment is scanned *backward* from
its end to the first ``skip_width`` run of non-anchor symbols (the
rightmost one, so the erased prefix is never read) and the tail after it
is walked from home over the dense tables, each segment read at its own
width.  Without the library the reference does one vectorized anchor-LUT
sweep (``np.flatnonzero(lut[segment])``), finds the last qualifying run
(:func:`_last_reset`) and walks the tail with the interpreted table;
both read admitted input (:func:`repro.ingest.admit`).  Segments
with no qualifying run (adversarially dense matches, or shorter than the
skip width) fall back to the native frontier, batched in one call, or to
the interpreted set-flow loop without the library, so correctness never
depends on the prefilter being profitable.

Outcomes are bit-identical to the interpreted reference
(:mod:`repro.kernels.setflow`): a proven reset collapses every
convergence set to the one surviving path, exactly the outcome of a
whole frontier that collapsed.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome
from repro.ingest import Segments, admit
from repro.kernels.dense import DenseTables
from repro.kernels.native import (
    native_available,
    native_prefilter,
    run_segments_native,
)
from repro.kernels.setflow import run_segments_setflow

__all__ = [
    "MAX_ANCHOR_FRACTION",
    "MIN_HOME_LOOP_FRACTION",
    "PrefilterTables",
    "certify_prefilter",
    "derive_prefilter",
    "prefilter_scan_scalar",
    "prefilter_walk",
    "run_segments_prefilter",
]

#: home must self-loop on at least this fraction of the alphabet —
#: below it the "skip" erases too little input to be worth certifying
MIN_HOME_LOOP_FRACTION = 0.5
#: give up when cycle-breaking pushes anchors past this alphabet fraction:
#: the sweep would hit on most bytes and the walk would dominate
MAX_ANCHOR_FRACTION = 0.5
#: certification results memoized by DFA fingerprint (success *and*
#: failure — failed certification must stay O(1) on re-scan so an explicit
#: ``backend="prefilter"`` fallback costs nothing measurable)
_CERT_CACHE_MAX = 128
_CERT_CACHE: "OrderedDict[Tuple[object, ...], Optional[PrefilterTables]]" = \
    OrderedDict()


class PrefilterTables:
    """Compile-time literal-skip certificate for one DFA.

    ``anchor_lut`` is a bool LUT over the alphabet (True = anchor byte),
    ``home`` the absorbing rest state and ``skip_width`` the proven
    absorption bound: any ``skip_width`` consecutive non-anchor symbols
    send every state to ``home``.  Stored inside
    :class:`repro.compilecache.CompiledDfa` so scans never re-derive it.
    """

    __slots__ = ("home", "skip_width", "anchor_lut", "num_states",
                 "alphabet_size", "native_args")

    def __init__(
        self,
        home: int,
        skip_width: int,
        anchor_lut: np.ndarray,
        num_states: int,
        alphabet_size: int,
    ) -> None:
        self.home = int(home)
        self.skip_width = int(skip_width)
        self.anchor_lut = np.asarray(anchor_lut, dtype=bool)
        self.num_states = int(num_states)
        self.alphabet_size = int(alphabet_size)
        #: the native tier's C view of ``anchor_lut``, resolved on its
        #: first call (:mod:`repro.kernels.native`); never pickled, since
        #: it holds an address
        self.native_args: Optional[Tuple[np.ndarray, np.ndarray, int]] = None

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # pickle's own layout for slotted objects, less the C view
        return None, {name: getattr(self, name) for name in self.__slots__
                      if name != "native_args"}

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.native_args = None

    @property
    def anchors(self) -> np.ndarray:
        """Sorted int64 array of anchor symbols."""
        return np.flatnonzero(self.anchor_lut).astype(np.int64)

    @property
    def n_anchors(self) -> int:
        return int(self.anchor_lut.sum())

    @property
    def nbytes(self) -> int:
        return int(self.anchor_lut.nbytes)

    def summary(self) -> Dict[str, object]:
        """Envelope-stable digest for artifact cross-checks (K133)."""
        return {
            "home": self.home,
            "skip_width": self.skip_width,
            "n_anchors": self.n_anchors,
            "anchor_digest": hashlib.sha256(
                np.packbits(self.anchor_lut).tobytes()
            ).hexdigest()[:16],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PrefilterTables(home={self.home}, skip_width={self.skip_width}, "
            f"anchors={self.n_anchors}/{self.alphabet_size})"
        )


def _absorption_depths(
    table: np.ndarray, home: int, anchor: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Longest-path-to-home DP over the non-anchor transition graph.

    Returns ``(depth, finite)``: ``depth[q]`` is the longest chain of
    non-anchor steps from ``q`` before reaching home (0 for home itself),
    valid only where ``finite[q]``.  States left non-finite sit on a
    non-anchor cycle away from home.  Vectorized reverse topological peel:
    a state's depth is final once every non-anchor successor's is.
    """
    n = table.shape[1]
    finite = np.zeros(n, dtype=bool)
    finite[home] = True
    depth = np.zeros(n, dtype=np.int64)
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        finite[:] = True
        return depth, finite
    sub = table[non_anchor]  # (k', n) successor matrix
    for _ in range(n):
        ready = ~finite & finite[sub].all(axis=0)
        if not ready.any():
            break
        depth[ready] = 1 + depth[sub[:, ready]].max(axis=0)
        finite[ready] = True
    return depth, finite


def _cycle_byte(
    table: np.ndarray, anchor: np.ndarray, cyclic: np.ndarray
) -> Optional[int]:
    """Non-anchor byte carrying the most edges inside the cyclic region."""
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        return None
    sub = table[non_anchor][:, cyclic]  # (k', n_cyclic) targets
    in_cycle = np.zeros(table.shape[1], dtype=bool)
    in_cycle[cyclic] = True
    counts = in_cycle[sub].sum(axis=1)
    best = int(np.argmax(counts))
    if int(counts[best]) == 0:
        return None
    return int(non_anchor[best])


def _non_anchor_closure(table: np.ndarray, anchor: np.ndarray, root: int) -> np.ndarray:
    """Bool mask of states reachable from ``root`` via non-anchor bytes."""
    n = table.shape[1]
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        return seen
    sub = table[non_anchor]
    frontier = np.asarray([root], dtype=np.int64)
    while frontier.size:
        nxt = np.unique(sub[:, frontier])
        fresh = nxt[~seen[nxt]]
        seen[fresh] = True
        frontier = fresh
    return seen


def derive_prefilter(dfa: Dfa) -> Optional[PrefilterTables]:
    """Derive a literal-skip certificate, or ``None`` if uncertifiable.

    See the module docstring for the three facts this establishes.  Pure
    compile-time analysis over ``dfa.transitions``; cost is a few
    vectorized passes over the ``(alphabet, states)`` table.
    """
    n = dfa.num_states
    k = dfa.alphabet_size
    if n < 1 or k < 2:
        return None
    table = dfa.transitions
    # home: the state that self-loops on the most bytes (the "rest" state
    # of a literal machine); certify only if it absorbs most of the input
    self_loops = (table == np.arange(n, dtype=table.dtype)[None, :]).sum(axis=0)
    home = int(np.argmax(self_loops))
    if int(self_loops[home]) < k * MIN_HOME_LOOP_FRACTION:
        return None
    # anchors: exactly the bytes that move home (fact 1 by construction)
    anchor = table[:, home] != home
    max_anchors = int(k * MAX_ANCHOR_FRACTION)
    # overwritten on the first pass; typed placeholders keep the for/else
    depth = np.empty(0, dtype=np.int64)
    finite = np.empty(0, dtype=bool)
    for _ in range(k):
        if int(anchor.sum()) > max_anchors:
            return None
        depth, finite = _absorption_depths(table, home, anchor)
        if bool(finite.all()):
            break
        extra = _cycle_byte(table, anchor, np.flatnonzero(~finite))
        if extra is None:
            return None
        anchor[extra] = True
    else:
        return None
    if not bool(finite.all()):
        return None
    # fact 3: no accepting state on a non-anchor-only path from start/home
    acc = dfa.accepting_mask
    if bool(acc[home]) or bool((acc & _non_anchor_closure(table, anchor, dfa.start)).any()):
        return None
    skip_width = max(1, int(depth.max()))
    return PrefilterTables(home, skip_width, anchor, n, k)


def certify_prefilter(dfa: Dfa) -> Optional[PrefilterTables]:
    """Memoized :func:`derive_prefilter` keyed by the DFA fingerprint."""
    fp = dfa.fingerprint
    if fp in _CERT_CACHE:
        _CERT_CACHE.move_to_end(fp)
        return _CERT_CACHE[fp]
    tables = derive_prefilter(dfa)
    if len(_CERT_CACHE) >= _CERT_CACHE_MAX:
        _CERT_CACHE.popitem(last=False)
    _CERT_CACHE[fp] = tables
    return tables


def _last_reset(
    hits: np.ndarray, length: int, skip_width: int
) -> Tuple[bool, int]:
    """Locate the last ``>= skip_width`` non-anchor run in a segment.

    Given the sorted anchor-hit positions, returns ``(proven, walk_from)``:
    ``proven`` is False when no qualifying run exists; otherwise
    ``walk_from`` is the position to resume the interpreted walk from
    ``home`` (``== length`` when the trailing run qualifies, i.e. the
    segment provably ends at home with nothing left to walk).
    """
    if hits.size == 0:
        if length >= skip_width:
            return True, length
        return False, 0
    if length - 1 - int(hits[-1]) >= skip_width:
        return True, length
    gaps = np.diff(hits) - 1
    qual = np.flatnonzero(gaps >= skip_width)
    if qual.size:
        return True, int(hits[int(qual[-1]) + 1])
    if int(hits[0]) >= skip_width:
        return True, int(hits[0])
    return False, 0


def prefilter_scan_scalar(
    dfa: Dfa,
    tables: PrefilterTables,
    segment: np.ndarray,
    start_state: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    dense: Optional[DenseTables] = None,
) -> Tuple[int, int]:
    """Concrete-flow prefilter scan (segment 0 / sequential fallback).

    Returns ``(final_state, walked)`` where ``walked`` is the number of
    positions actually stepped through the table; the rest of the segment
    was erased by a proven reset run.  Bit-identical to
    ``dfa.run(segment, start_state)``, and like it admits the input first
    (:func:`repro.ingest.admit`).  Runs as one ``cse_native_prefilter``
    call over ``dense`` (built from ``dfa`` when not given) when the
    native library loads, else as the anchor sweep plus the interpreted
    tail walk over ``rows``.
    """
    state = dfa.start if start_state is None else int(start_state)
    seg = admit(segment, dfa.alphabet_size, state, dfa.num_states)
    length = int(seg.size)
    if length == 0:
        return state, 0
    done = native_prefilter(dfa, tables, [seg], [state], dense)
    if done is not None:
        final, resume = done
        return int(final[0]), length - max(0, int(resume[0]))
    state, walk_from = _sweep_and_walk(dfa, tables, seg, state, rows)
    return state, length - walk_from


def _sweep_and_walk(
    dfa: Dfa,
    tables: PrefilterTables,
    seg: np.ndarray,
    state: int,
    rows: Optional[List[List[int]]],
) -> Tuple[int, int]:
    """The interpreted prefilter of one segment: ``(final, walk_from)``.

    The anchor sweep finds the last proven reset; the tail after it is
    walked from ``home``.  With no reset, a concrete ``state`` (``>= 0``)
    is walked from position 0; an enumerative one (``-1``) returns
    ``(-1, -1)`` for the frontier kernel to run.
    """
    length = int(seg.size)
    hits = np.flatnonzero(tables.anchor_lut[seg])
    proven, walk_from = _last_reset(hits, length, tables.skip_width)
    if proven:
        state = tables.home
    elif state < 0:
        return -1, -1
    else:
        walk_from = 0
    if walk_from < length:
        table = rows if rows is not None else dfa.transitions.tolist()
        for sym in seg[walk_from:].tolist():
            state = table[sym][state]
    return state, walk_from


def prefilter_walk(
    dfa: Dfa,
    tables: PrefilterTables,
    segment: np.ndarray,
    state: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    dense: Optional[DenseTables] = None,
) -> int:
    """Final state of :func:`prefilter_scan_scalar`: the re-execution walk."""
    return prefilter_scan_scalar(dfa, tables, segment, state, rows, dense)[0]


def run_segments_prefilter(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: PrefilterTables,
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    start: Optional[int] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Enumerative prefilter scan over a batch of segments.

    For each segment, find its last ``>= skip_width`` non-anchor run: every
    enumeration path provably sits at ``home`` when it ends, so the whole
    frontier is one scalar flow from there — only the tail after the run
    is walked, and every convergence set collapses to its final state.
    With the native library this is one ``cse_native_prefilter`` call for
    the batch over ``dense`` (built from ``dfa`` when not given); without
    it, an anchor sweep per segment and an interpreted tail walk.
    Segments with no qualifying run are batched through the native
    frontier unchanged (``dense``/``stride`` are its optional precomputed
    tables and collapse-check stride), or through the interpreted
    set-flow loop without the library.

    ``start`` makes ``segments[0]`` a concrete segment walked from that
    state in the same pass (a scan's segment 0): with no qualifying run
    it is walked whole instead of enumerated, and its row of the grid
    maps every set to the state it reached from ``start``.

    Returns ``(grid, stats)`` with the same grid contract as the native
    frontier and stats keys ``positions, walked_positions, skipped_bytes,
    windows, fallback_segments, collapses``.
    """
    if dense is None and native_available():
        # one build serves the compiled scan and the frontier fallback
        dense = DenseTables(dfa)
    if isinstance(segments, Segments):
        lengths = segments.lengths
    else:
        # dtype deliberately inherited: uint8 views stay uint8 (zero-copy)
        segments = [np.asarray(s) for s in segments]  # repro: noqa(R101)
        lengths = [s.size for s in segments]
    n_seg = len(segments)
    blocks = partition.block_arrays()
    n_blocks = len(blocks)
    multi_count = sum(1 for b in blocks if b.size > 1)
    starts = [-1] * n_seg
    if start is not None and n_seg:
        starts[0] = int(start)

    compiled = native_prefilter(dfa, tables, segments, starts, dense)
    if compiled is not None:
        finals, resumes = compiled[0].tolist(), compiled[1].tolist()
    rows: Optional[List[List[int]]] = None
    # collapsed segments that end on one state share its outcome row
    collapsed: Dict[int, List[CsOutcome]] = {}

    grid: List[Optional[List[CsOutcome]]] = [None] * n_seg
    fallback_idx: List[int] = []
    walked = 0
    skipped = 0
    windows = 0
    n_collapsed = 0

    for i, length in enumerate(lengths):
        if length == 0 and starts[i] < 0:
            # each set maps to itself
            grid[i] = [
                CsOutcome(b.size == 1, int(b[0]) if b.size == 1 else None, b)
                for b in blocks
            ]
            continue
        if compiled is not None:
            state, walk_from = finals[i], resumes[i]
        else:
            if rows is None:
                rows = [r.tolist() for r in dfa.transitions]
            state, walk_from = _sweep_and_walk(
                dfa, tables, segments[i], starts[i], rows)
        if state < 0:
            fallback_idx.append(i)
            continue
        walk_from = max(0, walk_from)
        if walk_from < length:
            walked += length - walk_from
            windows += 1
        skipped += walk_from
        row = collapsed.get(state)
        if row is None:
            states = np.asarray([state], dtype=np.int64)
            row = collapsed[state] = [CsOutcome(True, state, states)] * n_blocks
        grid[i] = row
        n_collapsed += multi_count

    if fallback_idx:
        # unproven segments run the whole frontier: the compiled native
        # tier when its library loads, else the interpreted set-flow loop
        # (identical outcomes either way)
        unproven = [segments[i] for i in fallback_idx]
        if native_available():
            sub_grid, sub_stats = run_segments_native(
                dfa, partition, unproven, tables=dense, stride=stride)
        else:
            sub_grid, sub_stats = run_segments_setflow(
                dfa, partition, unproven, rows)
        for j, i in enumerate(fallback_idx):
            grid[i] = sub_grid[j]
        walked += sub_stats["positions"] * len(fallback_idx)
        n_collapsed += sub_stats["collapses"]

    stats = {
        "positions": max(lengths, default=0),
        "walked_positions": walked,
        "skipped_bytes": skipped,
        "windows": windows,
        "fallback_segments": len(fallback_idx),
        "collapses": n_collapsed,
    }
    return grid, stats  # type: ignore[return-value]
