"""Vectorized NFA execution (the Automata Processor's native mode).

PAP (Section II-D) targets NFAs, where multiple states are active at once
and — unlike the DFA case — the active count ``R`` is *not* monotonically
decreasing: one active state can fan out to several.  The paper leans on
the empirical observation that R still trends down over long inputs.

:class:`CompiledNfa` precompiles an :class:`~repro.automata.nfa.Nfa` into
flat numpy edge arrays (epsilon closures folded in) so that stepping an
active mask is two vector ops, mirroring the AP's one-cycle mask update.
It exists to (a) execute benchmark rulesets in their NFA form, (b) expose
the R-dynamics the paper discusses, and (c) cross-check the subset
construction (NFA and determinized DFA must agree everywhere).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.automata.nfa import EPSILON, Nfa
from repro.ingest import admit

__all__ = ["CompiledNfa"]


class CompiledNfa:
    """Flat-array NFA executor with active-mask semantics."""

    def __init__(self, nfa: Nfa):
        if nfa.start < 0:
            raise ValueError("NFA start state not set")
        self.num_states = nfa.num_states
        self.alphabet_size = nfa.alphabet_size
        closures = [nfa.epsilon_closure([q]) for q in range(nfa.num_states)]
        # per-symbol flat edges, with targets closure-expanded
        sources: List[List[int]] = [[] for _ in range(nfa.alphabet_size)]
        targets: List[List[int]] = [[] for _ in range(nfa.alphabet_size)]
        for src, edges in enumerate(nfa.transitions):
            for symbol, raw_targets in edges.items():
                if symbol == EPSILON:
                    continue
                expanded = set()
                for t in raw_targets:
                    expanded.update(closures[t])
                for t in expanded:
                    sources[symbol].append(src)
                    targets[symbol].append(t)
        self._sources = [np.asarray(s, dtype=np.int64) for s in sources]
        self._targets = [np.asarray(t, dtype=np.int64) for t in targets]
        self.start_mask = np.zeros(nfa.num_states, dtype=bool)
        self.start_mask[sorted(closures[nfa.start])] = True
        self.accepting_mask = np.zeros(nfa.num_states, dtype=bool)
        if nfa.accepting:
            self.accepting_mask[sorted(nfa.accepting)] = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step_mask(self, mask: np.ndarray, symbol: int) -> np.ndarray:
        """One active-mask transition (one AP cycle)."""
        src = self._sources[symbol]
        nxt = np.zeros_like(mask)
        if src.size:
            fired = mask[src]
            nxt[self._targets[symbol][fired]] = True
        return nxt

    def run(
        self,
        symbols,
        mask: Optional[np.ndarray] = None,
        record_counts: bool = False,
    ):
        """Run a symbol sequence from ``mask`` (default: the start mask).

        Returns the final mask, or ``(final_mask, counts)`` where
        ``counts[t]`` is the number of active states after symbol ``t`` —
        the R trace whose non-monotonicity distinguishes NFAs from DFAs.
        """
        cur = self.start_mask.copy() if mask is None else mask.copy()
        counts: List[int] = []
        for sym in admit(symbols, self.alphabet_size):
            cur = self.step_mask(cur, int(sym))
            if record_counts:
                counts.append(int(np.count_nonzero(cur)))
        if record_counts:
            return cur, counts
        return cur

    def accepts(self, symbols) -> bool:
        """Whether the run ends with an accepting state active."""
        final = self.run(symbols)
        return bool((final & self.accepting_mask).any())

    def run_reports(self, symbols) -> List[Tuple[int, int]]:
        """Scan-style reports: offsets where an accepting state is active.

        One event per (offset, state) pair, matching the DFA convention
        closely enough for cross-checking multi-pattern rulesets.
        """
        cur = self.start_mask.copy()
        out: List[Tuple[int, int]] = []
        for offset, sym in enumerate(admit(symbols, self.alphabet_size)):
            cur = self.step_mask(cur, int(sym))
            hits = np.flatnonzero(cur & self.accepting_mask)
            for state in hits.tolist():
                out.append((offset, int(state)))
        return out

    def active_count_trace(self, symbols) -> List[int]:
        """The R trace alone (Section II-D analysis helper)."""
        _, counts = self.run(symbols, record_counts=True)
        return counts
