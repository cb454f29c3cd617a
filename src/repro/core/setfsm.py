"""The ``set(N) -> set(M)`` computation primitive (Section III).

On one-hot hardware, stepping an active mask with many bits set costs the
same as stepping a single state — but the per-state ``state -> state``
mapping is lost: from ``{S0, S1} -> {S2, S3}`` nobody can tell which source
produced which target.  The primitive becomes *useful* exactly when the
output collapses to a single state (M = 1): then every input state provably
mapped to that state, and N enumeration paths were computed for the price
of one.

:class:`SetFsm` wraps a DFA with this set-level stepping plus the two
convenience passes the engines need: a full segment run with size tracing,
and a lookback pass (LBE's use of the primitive, Section III-B).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.ingest import admit

__all__ = ["SetFsm"]


class SetFsm:
    """Set-transition view of a DFA.

    State sets are represented as sorted, duplicate-free ``np.int32``
    arrays — the software analogue of a one-hot active mask.
    """

    def __init__(self, dfa: Dfa):
        self.dfa = dfa

    @property
    def num_states(self) -> int:
        return self.dfa.num_states

    def full_set(self) -> np.ndarray:
        """The set of all states (the start of a lookback pass)."""
        return np.arange(self.dfa.num_states, dtype=np.int32)

    def make_set(self, states: Iterable[int]) -> np.ndarray:
        """Normalize an iterable of state ids into set representation."""
        return np.unique(np.asarray(list(states), dtype=np.int32))

    def step(self, states: np.ndarray, symbol: int) -> np.ndarray:
        """One ``set(N) -> set(M)`` transition.  Guarantees ``M <= N``.

        The shrink is the paper's convergence property: a deterministic
        transition function can only merge states, never split them.
        """
        return np.unique(self.dfa.transitions[symbol].take(states))

    def run(
        self,
        states: np.ndarray,
        symbols,
        record_sizes: bool = False,
    ):
        """Run a whole symbol sequence.

        Returns the final set, or ``(final_set, sizes)`` when
        ``record_sizes`` is true (``sizes[t]`` is ``M`` after symbol ``t``).
        """
        cur = self.make_set(states)
        table = self.dfa.transitions
        sizes: List[int] = []
        for sym in admit(symbols, self.dfa.alphabet_size):
            cur = np.unique(table[sym].take(cur))
            if record_sizes:
                sizes.append(int(cur.size))
        if record_sizes:
            return cur, sizes
        return cur

    def converged(self, states: np.ndarray) -> bool:
        """True when the set has collapsed to a single state (M = 1)."""
        return states.size == 1

    def lookback(self, suffix) -> np.ndarray:
        """LBE's application: reduce all N states through a suffix.

        One set-flow over ``suffix`` yields every state the machine can
        possibly be in at the segment boundary — with the cost of a single
        enumeration path instead of N.
        """
        return self.run(self.full_set(), suffix)

    def run_with_reports(
        self, states: np.ndarray, symbols
    ) -> Tuple[np.ndarray, List[int], bool]:
        """Segment run that also watches accepting-state occupancy.

        Returns ``(final_set, sizes, report_ambiguous)`` where
        ``report_ambiguous`` is true if at any step the active set contained
        two or more accepting states — the footnote condition of Section
        IV-A: such a convergence set cannot attribute its reports to a
        single path and must be treated as divergent when exact report
        streams are required.
        """
        cur = self.make_set(states)
        table = self.dfa.transitions
        acc = self.dfa.accepting_mask
        sizes: List[int] = []
        ambiguous = False
        for sym in admit(symbols, self.dfa.alphabet_size):
            cur = np.unique(table[sym].take(cur))
            sizes.append(int(cur.size))
            if not ambiguous and int(np.count_nonzero(acc[cur])) > 1:
                ambiguous = True
        return cur, sizes, ambiguous
