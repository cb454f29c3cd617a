"""Alphabet compression: symbol equivalence classes.

Real rulesets distinguish only a handful of byte behaviours — in a
lowercase-literal DFA, all 200+ bytes that appear in no pattern share one
transition column.  Grouping identical columns (what RE2 calls *byte
classes*) shrinks the transition table from ``256 x N`` to ``C x N`` with
C often under 30, which matters for the AP analogy too: the paper's
hardware stores one row per symbol.

:func:`compress_alphabet` returns the compressed machine plus the
byte-to-class map; :class:`CompressedDfa` bundles them with input
translation so engines can run on the small table transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.ingest import admit

__all__ = ["CompressedDfa", "compress_alphabet", "symbol_classes"]


def symbol_classes(dfa: Dfa) -> np.ndarray:
    """Class id per symbol: symbols with identical columns share a class.

    Class ids are assigned in first-appearance order, so the mapping is
    deterministic for a given machine.
    """
    _, first_index, inverse = np.unique(
        dfa.transitions, axis=0, return_index=True, return_inverse=True
    )
    # renumber classes by first appearance to make ids stable/readable
    order = np.argsort(first_index)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return renumber[inverse.ravel()].astype(np.int64)


@dataclass
class CompressedDfa:
    """A DFA over symbol classes plus the byte-to-class translation."""

    dfa: Dfa
    class_of_symbol: np.ndarray
    original_alphabet_size: int

    @property
    def num_classes(self) -> int:
        return self.dfa.alphabet_size

    @property
    def compression_ratio(self) -> float:
        """Original table width over compressed width (>= 1)."""
        return self.original_alphabet_size / self.num_classes

    def translate(self, symbols) -> np.ndarray:
        """Map a raw input string onto class symbols (input admitted first)."""
        syms = admit(symbols, self.original_alphabet_size)
        return self.class_of_symbol[syms]

    def run(self, symbols, state=None) -> int:
        """Run raw input through the compressed machine."""
        return self.dfa.run(self.translate(symbols), state)

    def run_reports(self, symbols, state=None):
        return self.dfa.run_reports(self.translate(symbols), state)


def compress_alphabet(dfa: Dfa) -> CompressedDfa:
    """Build the class-compressed equivalent of ``dfa``.

    The compressed machine is exactly language-equivalent modulo the
    byte-to-class translation: for any input ``w``,
    ``compressed.run(w) == dfa.run(w)``.
    """
    classes = symbol_classes(dfa)
    n_classes = int(classes.max()) + 1 if classes.size else 1
    representatives = np.empty(n_classes, dtype=np.int64)
    for symbol, cls in enumerate(classes.tolist()):
        representatives[cls] = symbol
    table = dfa.transitions[representatives, :]
    compressed = Dfa(table, dfa.start, dfa.accepting)
    return CompressedDfa(compressed, classes, dfa.alphabet_size)
