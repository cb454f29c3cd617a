"""Segment transition functions ``T: ST -> ST`` (Section IV-C).

Executing one enumerative segment under CSE means running one set-flow per
convergence set.  The result is the segment's *transition function*: each
convergence set either converged (maps to a concrete state — all its
enumeration paths are now known) or diverged (maps to a set of possible
states).  :func:`execute_segment` produces that function together with the
flow-count trace the cost model integrates.

Set-flows are dynamically merged when their current state sets become
identical (two convergence sets that have collapsed onto the same states
evolve identically forever) and a flow parked on an absorbing dead sink is
free — these are the convergence/deactivation checks at set granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# np.unique imports numpy.ma on its first call; paying that here, at
# import, keeps about 15 ms out of the first scan a process times
import numpy.ma  # noqa: F401

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition

__all__ = ["CsOutcome", "SegmentFunction", "execute_segment"]


@dataclass(frozen=True)
class CsOutcome:
    """Where one convergence set ended up after a segment.

    ``converged`` means the set collapsed to the single ``state`` — the
    paper's M = 1 case, in which every member's enumeration path is known.
    Otherwise ``states`` holds the diverged final set.
    ``report_ambiguous`` marks the footnote condition: the set touched two
    or more accepting states at once, so its report stream cannot be
    attributed to a single path even if the final states converged.
    """

    converged: bool
    state: Optional[int]
    states: np.ndarray
    report_ambiguous: bool = False


@dataclass
class SegmentFunction:
    """The transition function of one executed segment.

    ``outcomes[i]`` is the result for convergence set ``i``;
    ``cs_of_state[q]`` locates the convergence set of any state, so the
    function can be applied to arbitrary state-set values during
    composition and opportunistic re-evaluation.
    """

    outcomes: List[CsOutcome]
    cs_of_state: np.ndarray

    def apply(self, value: np.ndarray) -> np.ndarray:
        """Apply ``T`` to a possible-state set (the composition rules).

        For a concrete value ``{q}`` this is exactly the paper's selection:
        look up q's convergence set; a converged set yields its concrete
        state.  For a wider value the result is the union of the outcomes
        of every convergence set the value touches — a sound
        over-approximation that always contains the true state (rule (1)
        and (2) of Section IV-C).
        """
        value = np.asarray(value, dtype=np.int64)
        touched = np.unique(self.cs_of_state[value])
        parts: List[np.ndarray] = []
        for cs in touched.tolist():
            outcome = self.outcomes[cs]
            if outcome.converged:
                parts.append(np.asarray([outcome.state], dtype=np.int64))
            elif outcome.states.size:
                # outcome arrays are int64 end-to-end; this is a no-op view
                parts.append(outcome.states.astype(np.int64, copy=False))
            # empty outcome: the set was proven infeasible (hybrid pruning)
        if not parts:
            raise AssertionError(
                "transition function applied to a provably infeasible value"
            )
        return np.unique(np.concatenate(parts))

    def concrete_for(self, state: int) -> Optional[int]:
        """The concrete image of ``state`` if its convergence set converged."""
        outcome = self.outcomes[int(self.cs_of_state[int(state)])]
        return outcome.state if outcome.converged else None

    @property
    def all_converged(self) -> bool:
        return all(o.converged for o in self.outcomes)


def _flow_key(states: np.ndarray) -> bytes:
    return states.tobytes()


def execute_segment(
    dfa: Dfa,
    partition: StatePartition,
    segment: np.ndarray,
    inactive_mask: Optional[np.ndarray] = None,
    track_reports: bool = False,
    blocks: Optional[List[np.ndarray]] = None,
) -> Tuple[SegmentFunction, List[int]]:
    """Run one enumerative segment with one set-flow per convergence set.

    Returns ``(function, r_trace)``.  ``r_trace`` has one entry per symbol
    plus a trailing entry: the number of *chargeable* flows entering each
    symbol (merged flows counted once, flows fully parked on absorbing dead
    sinks counted zero) and the final RT.

    ``blocks`` optionally overrides the starting set of each convergence
    set (one array per partition block, aligned by index; empty arrays
    allowed) — the hook the CSE+lookback hybrid uses to start each set
    from only its *feasible* members.  The resulting function still
    answers for every state via the full partition's labels; a block
    emptied by the override yields an empty divergent outcome, which
    :meth:`SegmentFunction.apply` skips.
    """
    if blocks is None:
        blocks = partition.block_arrays()
    elif len(blocks) != partition.num_blocks:
        raise ValueError("need exactly one block override per partition block")
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    acc = dfa.accepting_mask
    # flow pool: distinct current sets; each CS points at a flow
    flow_sets: List[np.ndarray] = []
    flow_of_cs: List[int] = []
    pool: Dict[bytes, int] = {}
    for block in blocks:
        key = _flow_key(block)
        if key not in pool:
            pool[key] = len(flow_sets)
            flow_sets.append(block)
        flow_of_cs.append(pool[key])
    ambiguous = [False] * len(blocks)

    def live_count() -> int:
        live = 0
        for states in flow_sets:
            if states.size == 0:
                continue  # pruned-empty set: no flow to run
            if (
                inactive_mask is not None
                and states.size == 1
                and inactive_mask[int(states[0])]
            ):
                continue
            live += 1
        return live

    # int64 table keeps stepped sets int64 end-to-end (pool keys comparable)
    table = dfa.transitions.astype(np.int64)
    r_trace: List[int] = [live_count()]
    for sym in segment:
        new_sets: List[np.ndarray] = []
        new_pool: Dict[bytes, int] = {}
        remap: List[int] = []
        for states in flow_sets:
            stepped = np.unique(table[sym].take(states))
            key = _flow_key(stepped)
            if key not in new_pool:
                new_pool[key] = len(new_sets)
                new_sets.append(stepped)
            remap.append(new_pool[key])
        flow_of_cs = [remap[f] for f in flow_of_cs]
        flow_sets = new_sets
        if track_reports:
            for cs, flow in enumerate(flow_of_cs):
                if not ambiguous[cs]:
                    states = flow_sets[flow]
                    if int(np.count_nonzero(acc[states])) > 1:
                        ambiguous[cs] = True
        r_trace.append(live_count())

    outcomes: List[CsOutcome] = []
    for cs, flow in enumerate(flow_of_cs):
        states = flow_sets[flow]
        if states.size == 1:
            outcomes.append(
                CsOutcome(True, int(states[0]), states, ambiguous[cs])
            )
        else:
            outcomes.append(CsOutcome(False, None, states, ambiguous[cs]))
    return SegmentFunction(outcomes, partition.labels()), r_trace
