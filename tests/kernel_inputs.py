"""Shared inputs for the kernel tests.

Random DFAs over the discrete partition collapse to one state, so they
never exercise a frontier that settles on *several* distinct states for
good.  A disjoint union (:func:`disjoint_union_dfa`) does: each
component's convergence set collapses on its own reset symbol, and no
symbol ever merges two components.

:func:`lane_schedule` is the native core's collapse-check schedule
computed the long way, one lane per start state: it is what the core's
counters must read however the core stores its frontier.
:func:`python_grid` is the interpreted reference every kernel's grid
must equal, and :func:`grid_collapses` the collapse count read off a
grid.  :func:`symbols_of` gives a word at each symbol width the kernels
read, and :func:`outcome` captures a call's value or exception type.
:func:`native_tier` runs a body with the native tier loaded or forced
absent.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional, Sequence

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.ingest import from_bytes
from repro.kernels.native import ENV_DISABLE, reset_native
from repro.software import run_segment

#: the native core's adaptive collapse-check ladder
STRIDE_MIN = 8
STRIDE_MAX = 512


def disjoint_union_dfa(
    sizes: Sequence[int], extra: int, rng: np.random.Generator
) -> Dfa:
    """Components of ``sizes`` states side by side, never merging.

    The alphabet is ``len(sizes) + extra`` symbols.  Symbol ``i`` below
    ``len(sizes)`` resets component ``i`` to its first state; every other
    (symbol, component) pair permutes that component's states.
    """
    k = len(sizes)
    bases = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    table = np.empty((k + extra, int(sum(sizes))), dtype=np.int64)
    for c in range(k + extra):
        for comp, (base, size) in enumerate(zip(bases, sizes)):
            if c == comp:
                table[c, base:base + size] = base
            else:
                table[c, base:base + size] = base + rng.permutation(size)
    return Dfa(table, 0, [])


def component_partition(sizes: Sequence[int]) -> StatePartition:
    """One convergence set per component of :func:`disjoint_union_dfa`."""
    return StatePartition.from_labels(
        [comp for comp, size in enumerate(sizes) for _ in range(size)]
    )


def lane_schedule(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[object],
    stride: Optional[int] = None,
) -> Dict[str, int]:
    """The native core's counters, from one lane per start state.

    Every position advances each lane; every ``K`` positions (``stride``,
    or the adaptive ladder: back to :data:`STRIDE_MIN` when a convergence
    set collapsed for the first time, else doubled up to
    :data:`STRIDE_MAX`) a check reads the sets and stops the segment once
    all lanes share one state.  ``frontier_steps`` counts the distinct
    states as of the last check (every lane before the first), per
    position.
    """
    blocks = partition.block_arrays()
    lanes0 = np.concatenate(blocks).astype(np.int64)
    bounds = np.cumsum([0] + [b.size for b in blocks])
    multi = sum(1 for b in blocks if b.size > 1)
    table = dfa.transitions.astype(np.int64)
    stats = dict.fromkeys(
        ("native_positions", "stride_checks", "degraded_segments",
         "scalar_positions", "frontier_steps", "collapses"), 0)
    for seg in segments:
        syms = np.asarray(seg).astype(np.int64)
        lanes, m, seen = lanes0.copy(), lanes0.size, set()
        k = stride or STRIDE_MIN
        next_check, degraded = k, False
        for t, sym in enumerate(syms.tolist()):
            lanes = table[sym][lanes]
            stats["native_positions"] += 1
            stats["frontier_steps"] += m
            if not lanes.size or t + 1 < next_check:
                continue
            stats["stride_checks"] += 1
            m = np.unique(lanes).size
            fresh = False
            for b in range(len(blocks)):
                if b not in seen and np.unique(
                    lanes[bounds[b]:bounds[b + 1]]
                ).size == 1:
                    seen.add(b)
                    fresh = True
            if m == 1:
                stats["degraded_segments"] += 1
                stats["scalar_positions"] += syms.size - (t + 1)
                degraded = True
                break
            if stride is None:
                k = STRIDE_MIN if fresh else min(2 * k, STRIDE_MAX)
            next_check = t + 1 + k
        if degraded:
            stats["collapses"] += multi
            continue
        lanes = dfa.run_all_states(syms)[lanes0]
        stats["collapses"] += sum(
            1 for b in range(len(blocks))
            if blocks[b].size > 1
            and np.unique(lanes[bounds[b]:bounds[b + 1]]).size == 1
        )
    return stats


def python_grid(dfa: Dfa, partition: StatePartition, segments) -> list:
    """Each segment's outcomes from the interpreted ``run_segment``."""
    return [run_segment(dfa, partition, seg)[0].outcomes for seg in segments]


def grid_collapses(partition: StatePartition, grid) -> int:
    """Convergence sets of more than one state that converged, per grid."""
    sizes = [block.size for block in partition.block_arrays()]
    return sum(1 for row in grid for size, out in zip(sizes, row)
               if size > 1 and out.converged)


def symbols_of(word, kind):
    """``word`` as int64 / uint8 symbols or a zero-copy InputView."""
    if kind == "int64":
        return word.astype(np.int64)
    raw = word.astype(np.uint8)
    return raw if kind == "uint8" else from_bytes(raw.tobytes())


def outcome(call):
    """A call's value, or the type of the exception it raised."""
    try:
        return "value", call()
    except Exception as exc:
        return "raised", type(exc)


@contextmanager
def native_tier(absent):
    """Run the body with the native tier loaded, or forced absent."""
    saved = os.environ.get(ENV_DISABLE)
    if absent:
        os.environ[ENV_DISABLE] = "0"
    reset_native()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_DISABLE, None)
        else:
            os.environ[ENV_DISABLE] = saved
        reset_native()
