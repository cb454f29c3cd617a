"""Byte classes: the one class map of the compiler and the SFA.

Real rulesets distinguish only a handful of byte behaviours: in a
lowercase-literal ruleset, all 200+ bytes that appear in no pattern act
alike.  Grouping them (what RE2 calls *byte classes*) lets the work
that loops over the alphabet loop over classes instead:

- the compiler (:func:`nfa_to_dfa`) groups bytes by their NFA edges
  (:func:`nfa_byte_classes`), determinizes and minimizes the class NFA,
  and expands the class columns back to bytes;
- the lazily grown SFA (:class:`repro.kernels.sfa.LazySfa`) builds each
  row over the DFA's column classes (:func:`symbol_classes`) and writes
  it back byte-wide.

Both layers keep every table byte-wide, so no fingerprint, stored
artifact or C entry point sees a class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.automata.minimize import minimize as minimize_dfa
from repro.automata.nfa import EPSILON, Nfa
from repro.automata.subset import determinize

__all__ = ["nfa_byte_classes", "class_nfa", "nfa_to_dfa", "symbol_classes"]


def _first_appearance(keys: List) -> np.ndarray:
    """Class id per key, numbered by first appearance."""
    ids: Dict = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys],
                    dtype=np.int64)


def symbol_classes(dfa: Dfa) -> np.ndarray:
    """Class id per symbol: symbols with identical columns share a class.

    Class ids are assigned in first-appearance order, so class ``c``'s
    first symbol precedes class ``c + 1``'s.
    """
    table = np.ascontiguousarray(dfa.transitions)
    return _first_appearance([column.tobytes() for column in table])


def nfa_byte_classes(nfa: Nfa) -> np.ndarray:
    """Class id per symbol: symbols with the same NFA edges share a class.

    A symbol's signature is the set of non-epsilon ``(source, target)``
    edges that carry it; symbols with equal signatures move every state
    set alike, so subset construction and minimization cannot tell them
    apart.  Ids are numbered by first appearance.
    """
    signature: List[List[Tuple[int, Tuple[int, ...]]]] = [
        [] for _ in range(nfa.alphabet_size)]
    for q, edges in enumerate(nfa.transitions):
        for sym, targets in edges.items():
            if sym != EPSILON:
                signature[sym].append((q, tuple(sorted(targets))))
    return _first_appearance([tuple(sig) for sig in signature])


def class_nfa(nfa: Nfa, class_of: np.ndarray) -> Nfa:
    """``nfa`` over the classes of ``class_of`` (one symbol per class).

    Each state keeps one edge per class, taken from the first byte of
    that class in its own edge dict, so the classes appear in the order
    their first bytes do.  :func:`determinize` numbers subsets in that
    discovery order, which is what makes the class DFA's expansion equal
    the byte-wide DFA array for array.  The target sets are shared with
    ``nfa``, not copied.
    """
    classes = class_of.tolist()
    out = Nfa(max(classes) + 1)
    for edges in nfa.transitions:
        row: Dict[int, set] = {}
        for sym, targets in edges.items():
            key = EPSILON if sym == EPSILON else classes[sym]
            if key not in row:
                row[key] = targets
        out.transitions.append(row)
    out.start = nfa.start
    out.accepting = set(nfa.accepting)
    return out


def nfa_to_dfa(nfa: Nfa, minimize: bool = True,
               max_states: Optional[int] = None) -> Dfa:
    """The (minimal) DFA of ``nfa``, built over its byte classes.

    Equal, array for array, to ``minimize(determinize(nfa))`` (or to
    ``determinize(nfa)`` with ``minimize=False``), at a fraction of the
    cost: both loops run over classes, not symbols.
    """
    class_of = nfa_byte_classes(nfa)
    dfa = determinize(class_nfa(nfa, class_of), max_states=max_states)
    if minimize:
        dfa = minimize_dfa(dfa)
    return Dfa(dfa.transitions[class_of], dfa.start, dfa.accepting)
