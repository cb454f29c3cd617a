"""Automata-theory substrate: DFA/NFA structures and algorithms.

This subpackage is the foundation every engine in :mod:`repro` builds on.
It provides:

- :class:`~repro.automata.dfa.Dfa` — dense, numpy-backed deterministic
  automata with vectorized single-state, all-state and set-of-state stepping.
- :class:`~repro.automata.nfa.Nfa` — sparse nondeterministic automata with
  epsilon transitions.
- :func:`~repro.automata.subset.determinize` — NFA to DFA subset construction.
- :func:`~repro.automata.minimize.minimize` — Hopcroft DFA minimization.
- :func:`~repro.automata.alphabet.nfa_to_dfa` — the compiler's NFA to
  minimal DFA step, run over byte classes
  (:mod:`~repro.automata.alphabet`, which also holds
  :func:`~repro.automata.alphabet.symbol_classes`, the SFA's class map).
- :class:`~repro.automata.onehot.OneHotAutomaton` — the Automata-Processor
  style one-hot active-mask machine used to realize ``set(N) -> set(M)``.
- :mod:`~repro.automata.analysis` — dead states, feasible symbol ranges,
  connected components, common parents (the building blocks of PAP's static
  optimizations).
- :mod:`~repro.automata.builders` — random and structured DFA generators.
"""

from repro.automata.dfa import Dfa
from repro.automata.nfa import EPSILON, Nfa
from repro.automata.subset import determinize
from repro.automata.minimize import minimize
from repro.automata.onehot import OneHotAutomaton, PySetAutomaton
from repro.automata.nfa_exec import CompiledNfa
from repro.automata.alphabet import nfa_to_dfa, symbol_classes
from repro.automata.io import save_dfa, load_dfa
from repro.automata.ops import (
    complement,
    difference,
    distinguishing_word,
    equivalent,
    intersect,
    union,
)

__all__ = [
    "Dfa",
    "Nfa",
    "EPSILON",
    "determinize",
    "minimize",
    "OneHotAutomaton",
    "PySetAutomaton",
    "CompiledNfa",
    "nfa_to_dfa",
    "symbol_classes",
    "save_dfa",
    "load_dfa",
    "complement",
    "difference",
    "distinguishing_word",
    "equivalent",
    "intersect",
    "union",
]
