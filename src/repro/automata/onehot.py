"""One-hot active-mask automata — the Automata Processor abstraction.

The AP (Section III-A of the paper) holds the current state *set* as an
N-bit active mask and, per input symbol, ANDs a match vector with the mask
and ORs selected rows of the state-transition matrix into the next mask.
Crucially the hardware cost of a step does not depend on how many bits are
set: stepping a single state and stepping a whole set cost the same.  That
observation is exactly what makes ``set(N) -> set(M)`` free, and CSE
possible.

Two functionally identical backends are provided:

- :class:`OneHotAutomaton` — numpy boolean-mask scatter (fast).
- :class:`PySetAutomaton` — pure-Python frozensets (slow, used to
  cross-check the numpy backend in tests).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.ingest import admit

__all__ = ["OneHotAutomaton", "PySetAutomaton"]


class OneHotAutomaton:
    """Active-mask view of a :class:`Dfa` (numpy backend)."""

    def __init__(self, dfa: Dfa):
        self.dfa = dfa

    @property
    def num_states(self) -> int:
        return self.dfa.num_states

    def mask_from_states(self, states: Iterable[int]) -> np.ndarray:
        """Build an N-bit active mask with the given bits set."""
        mask = np.zeros(self.num_states, dtype=bool)
        idx = list(states)
        if idx:
            mask[idx] = True
        return mask

    def states_from_mask(self, mask: np.ndarray) -> np.ndarray:
        """Sorted array of set bits."""
        return np.flatnonzero(mask).astype(np.int32)

    def step_mask(self, mask: np.ndarray, symbol: int) -> np.ndarray:
        """One transition of the active mask under ``symbol``.

        Equivalent to OR-ing transition-matrix rows of all active, matching
        states — i.e. one AP cycle, regardless of how many bits are set.
        """
        active = np.flatnonzero(mask)
        nxt = np.zeros_like(mask)
        if active.size:
            nxt[self.dfa.transitions[symbol].take(active)] = True
        return nxt

    def run_mask(
        self, mask: np.ndarray, symbols, record_sizes: bool = False
    ) -> Tuple[np.ndarray, List[int]]:
        """Run a full symbol sequence; optionally record per-step set sizes."""
        sizes: List[int] = []
        table = self.dfa.transitions
        active = np.flatnonzero(mask).astype(np.int32)
        for sym in admit(symbols, self.dfa.alphabet_size):
            active = np.unique(table[sym].take(active))
            if record_sizes:
                sizes.append(int(active.size))
        out = np.zeros_like(mask)
        out[active] = True
        return out, sizes


class PySetAutomaton:
    """Reference active-set machine built on Python frozensets.

    Semantically identical to :class:`OneHotAutomaton`; exists so property
    tests can diff the two implementations on random automata and inputs.
    """

    def __init__(self, dfa: Dfa):
        self.dfa = dfa
        # transition rows as plain lists for cheap scalar indexing
        self._rows: List[List[int]] = [row.tolist() for row in dfa.transitions]

    @property
    def num_states(self) -> int:
        return self.dfa.num_states

    def step_set(self, states: FrozenSet[int], symbol: int) -> FrozenSet[int]:
        row = self._rows[symbol]
        return frozenset(row[q] for q in states)

    def run_set(
        self, states: Iterable[int], symbols, record_sizes: bool = False
    ) -> Tuple[FrozenSet[int], List[int]]:
        cur = frozenset(int(q) for q in states)
        sizes: List[int] = []
        for sym in admit(symbols, self.dfa.alphabet_size):
            cur = self.step_set(cur, int(sym))
            if record_sizes:
                sizes.append(len(cur))
        return cur, sizes
