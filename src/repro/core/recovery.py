"""Report and state-path recovery (Section IV-A).

``set(N) -> set(M)`` deliberately discards per-state paths, so a CSE run
yields the final state but not the intermediate report stream.  The paper:
"we can still recover such path information with another sequential
execution ... computing the terminal state is latency sensitive while
state transition path is not."

:func:`recover_reports` implements that second pass: once composition has
fixed the concrete start state of every segment, each segment can be
re-scanned *independently and in parallel* from its known start state to
emit the exact ``(offset, state)`` report events.  The recovery therefore
costs one more parallel pass (not a sequential one over the whole input),
and only for the segments that can produce reports at all — segments whose
convergence-set flow never touched an accepting state are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.engines.base import even_boundaries
from repro.ingest import admit

__all__ = ["RecoveredRun", "recover_reports", "segment_start_states"]


@dataclass
class RecoveredRun:
    """Outcome of a recovery pass."""

    final_state: int
    reports: List[Tuple[int, int]]
    #: concrete state entering each segment (index 0 = overall start state)
    boundary_states: List[int]
    #: segments that were actually re-scanned (had report potential)
    scanned_segments: List[int]
    #: extra cycles of the recovery pass on the parallel cost model
    recovery_cycles: int


def segment_start_states(
    dfa: Dfa, syms: np.ndarray, n_segments: int, start_state: Optional[int] = None
) -> List[int]:
    """Concrete state entering each segment (plus the final state last).

    Runs sequentially; used as the oracle for recovery tests and as the
    fallback when no engine run is available.
    """
    bounds = even_boundaries(int(syms.size), n_segments)
    state = dfa.start if start_state is None else int(start_state)
    states = [state]
    for a, b in bounds:
        state = dfa.run(syms[a:b], state)
        states.append(state)
    return states


def recover_reports(
    dfa: Dfa,
    symbols,
    n_segments: int,
    start_state: Optional[int] = None,
    boundary_states: Optional[Sequence[int]] = None,
    skip_reportless: bool = True,
) -> RecoveredRun:
    """Second-pass recovery of the exact report stream.

    Parameters
    ----------
    boundary_states:
        Concrete per-segment entry states, e.g. assembled from a CSE run's
        composition.  When omitted they are recomputed (sequentially) —
        callers holding a finished CSE run should pass them in to keep the
        pass embarrassingly parallel.
    skip_reportless:
        Skip segments whose entry state is *dead* (no accepting state
        reachable): they provably produce no report, so the rescan is
        unnecessary.  Results are identical either way.
    """
    syms = admit(symbols, dfa.alphabet_size, start_state, dfa.num_states)
    bounds = even_boundaries(int(syms.size), n_segments)
    if boundary_states is None:
        boundary_states = segment_start_states(dfa, syms, n_segments, start_state)
    if len(boundary_states) != len(bounds) + 1:
        raise ValueError(
            f"need {len(bounds) + 1} boundary states, got {len(boundary_states)}"
        )

    from repro.automata.analysis import dead_states  # local: avoids cycle

    dead = dead_states(dfa) if skip_reportless else None
    acc = dfa.accepting_mask
    reports: List[Tuple[int, int]] = []
    scanned: List[int] = []
    max_segment_cycles = 0
    for i, (a, b) in enumerate(bounds):
        entry = int(boundary_states[i])
        segment = syms[a:b]
        if dead is not None and dead[entry]:
            continue
        scanned.append(i)
        max_segment_cycles = max(max_segment_cycles, int(segment.size))
        state = entry
        table = dfa.transitions
        for offset, sym in enumerate(segment):
            state = int(table[sym, state])
            if acc[state]:
                reports.append((a + offset, state))
        if state != int(boundary_states[i + 1]):
            raise AssertionError(
                "boundary states inconsistent with the input — recovery "
                "needs the states produced by the same run"
            )
    return RecoveredRun(
        final_state=int(boundary_states[-1]),
        reports=reports,
        boundary_states=[int(s) for s in boundary_states],
        scanned_segments=scanned,
        recovery_cycles=max_segment_cycles,
    )
