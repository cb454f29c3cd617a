"""Dense deterministic finite automata.

A :class:`Dfa` stores its transition function as a dense numpy table
``transitions[symbol, state] -> state`` which makes three operations cheap:

- stepping a single state (the sequential baseline engine),
- stepping *all* states at once (enumeration-path oracles, profiling),
- stepping an arbitrary *set* of states (the paper's ``set(N) -> set(M)``
  primitive, see :mod:`repro.core.setfsm`).

Symbols are small integers ``0 .. alphabet_size-1``; text workloads map bytes
onto this range. States are ``0 .. num_states-1``.  Execution methods
admit their input first (:func:`repro.ingest.admit`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ingest import admit, as_symbols

__all__ = ["Dfa", "as_symbols"]


class Dfa:
    """A deterministic finite automaton over a byte-like alphabet.

    Parameters
    ----------
    transitions:
        Array-like of shape ``(alphabet_size, num_states)``; entry
        ``transitions[c, q]`` is the state reached from ``q`` on symbol ``c``.
    start:
        The initial state.
    accepting:
        Iterable of accepting/reporting state ids.
    """

    __slots__ = ("transitions", "start", "accepting", "accepting_mask",
                 "_fingerprint")

    def __init__(self, transitions, start: int, accepting: Iterable[int]):
        table = np.ascontiguousarray(transitions, dtype=np.int32)
        if table.ndim != 2:
            raise ValueError("transitions must be 2-D (alphabet, states)")
        n_sym, n_state = table.shape
        if n_state == 0:
            raise ValueError("a DFA needs at least one state")
        if n_sym == 0:
            raise ValueError("a DFA needs at least one symbol")
        if table.min() < 0 or table.max() >= n_state:
            raise ValueError("transition targets out of range")
        if not (0 <= start < n_state):
            raise ValueError(f"start state {start} out of range")
        acc = frozenset(int(a) for a in accepting)
        for a in acc:
            if not (0 <= a < n_state):
                raise ValueError(f"accepting state {a} out of range")
        self.transitions = table
        self.start = int(start)
        self.accepting = acc
        mask = np.zeros(n_state, dtype=bool)
        if acc:
            mask[sorted(acc)] = True
        self.accepting_mask = mask
        self._fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states."""
        return self.transitions.shape[1]

    @property
    def alphabet_size(self) -> int:
        """Number of input symbols."""
        return self.transitions.shape[0]

    def __repr__(self) -> str:
        return (
            f"Dfa(states={self.num_states}, alphabet={self.alphabet_size}, "
            f"start={self.start}, accepting={len(self.accepting)})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.start == other.start
            and self.accepting == other.accepting
            and self.transitions.shape == other.transitions.shape
            and bool(np.array_equal(self.transitions, other.transitions))
        )

    def __hash__(self) -> int:
        return hash(
            (self.start, self.accepting, self.transitions.shape, self.transitions.tobytes())
        )

    @property
    def fingerprint(self) -> Tuple:
        """A stable content identity for this machine.

        Covers the transition table bytes *and dtype* (identical bytes under
        different dtypes are different tables), the shape, the start state
        and the accepting set.  Computed once and memoized — this is the
        cache key every layer shares (pool matching in
        :func:`repro.software.segment_pool`, compilation-cache addressing in
        :mod:`repro.compilecache`) instead of re-hashing the table per use.
        """
        if self._fingerprint is None:
            table = self.transitions
            self._fingerprint = (
                table.shape,
                str(table.dtype),
                self.start,
                tuple(sorted(self.accepting)),
                hashlib.sha1(table.tobytes()).hexdigest(),
            )
        return self._fingerprint

    def validate(self, deep: bool = False) -> List:
        """Re-check the constructor's invariants; raise on violations.

        Instances restored through pickle bypass ``__init__``, so a
        corrupted-but-well-formed payload can carry an out-of-range
        table, a stale accepting mask, or a bad start state.  Delegates
        to :func:`repro.check.verify_dfa`; raises :class:`ValueError`
        on any error-severity finding and returns the non-fatal
        diagnostics (``deep=True`` adds unreachable/dead-state
        analysis).  Called by :mod:`repro.compilecache` at artifact-load
        time.
        """
        from repro.check import verify_dfa

        diagnostics = verify_dfa(self, deep=deep)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            raise ValueError(
                "invalid DFA: "
                + "; ".join(f"{d.code}: {d.message}" for d in errors)
            )
        return diagnostics

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, state: int, symbol: int) -> int:
        """Single ``state -> state`` transition."""
        return int(self.transitions[symbol, state])

    def run(self, symbols, state: Optional[int] = None) -> int:
        """Run the DFA sequentially, returning the final state.

        ``state`` defaults to the DFA's start state.  This is the paper's
        Figure 1 loop: ``state = T[in][state]``.
        """
        cur = self.start if state is None else int(state)
        table = self.transitions
        for sym in admit(symbols, self.alphabet_size, cur, self.num_states):
            cur = table[sym, cur]
        return int(cur)

    def run_trace(self, symbols, state: Optional[int] = None) -> List[int]:
        """Like :meth:`run` but returns the full state path (length+1)."""
        cur = self.start if state is None else int(state)
        path = [cur]
        table = self.transitions
        for sym in admit(symbols, self.alphabet_size, cur, self.num_states):
            cur = int(table[sym, cur])
            path.append(cur)
        return path

    def run_reports(self, symbols, state: Optional[int] = None) -> List[Tuple[int, int]]:
        """Run sequentially and collect ``(offset, state)`` report events.

        A report fires at offset ``i`` when the state reached *after*
        consuming symbol ``i`` is accepting.  This is the output a pattern
        matcher (NIDS, virus scanner) actually consumes.
        """
        cur = self.start if state is None else int(state)
        table = self.transitions
        acc = self.accepting_mask
        out: List[Tuple[int, int]] = []
        syms = admit(symbols, self.alphabet_size, cur, self.num_states)
        for i, sym in enumerate(syms):
            cur = int(table[sym, cur])
            if acc[cur]:
                out.append((i, cur))
        return out

    def run_all_states(self, symbols) -> np.ndarray:
        """Compute the enumeration-path endpoints for *every* state.

        Returns ``f`` with ``f[q] = delta*(q, symbols)`` — the oracle the
        enumerative engines must reproduce, and the source of convergence
        partitions in profiling (one profiling input produces the partition
        of states by their ``f`` value).
        """
        cur = np.arange(self.num_states, dtype=np.int32)
        table = self.transitions
        for sym in admit(symbols, self.alphabet_size):
            cur = table[sym].take(cur)
        return cur

    def set_step(self, states: np.ndarray, symbol: int) -> np.ndarray:
        """One ``set(N) -> set(M)`` step: image of a state set under a symbol.

        ``states`` must be a sorted, duplicate-free int array; the result is
        too.  The mapping of which input state went to which output state is
        deliberately *not* retained — that is the whole point of the
        primitive (Section III of the paper).
        """
        return np.unique(self.transitions[symbol].take(states))

    def set_run(self, states, symbols, record_sizes: bool = False):
        """Run ``set(N) -> set(M)`` across a symbol sequence.

        Parameters
        ----------
        states:
            Initial state set (iterable of ints).
        symbols:
            Input string.
        record_sizes:
            When true, also return the list of set sizes after each symbol
            (the ``R`` trace used for cycle accounting).

        Returns
        -------
        final_set, or ``(final_set, sizes)`` when ``record_sizes`` is set.
        """
        cur = np.unique(np.asarray(list(states), dtype=np.int32))
        table = self.transitions
        sizes: List[int] = []
        for sym in admit(symbols, self.alphabet_size):
            cur = np.unique(table[sym].take(cur))
            if record_sizes:
                sizes.append(int(cur.size))
        if record_sizes:
            return cur, sizes
        return cur

    # ------------------------------------------------------------------
    # language probes
    # ------------------------------------------------------------------
    def accepts(self, symbols) -> bool:
        """Whether the run from the start state ends in an accepting state."""
        return self.run(symbols) in self.accepting

    def matches_anywhere(self, symbols) -> bool:
        """Whether any prefix run visits an accepting state (scan semantics)."""
        cur = self.start
        if cur in self.accepting:
            return True
        table = self.transitions
        acc = self.accepting_mask
        for sym in admit(symbols, self.alphabet_size):
            cur = int(table[sym, cur])
            if acc[cur]:
                return True
        return False

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def reachable_states(self, roots: Optional[Iterable[int]] = None) -> np.ndarray:
        """States reachable from ``roots`` (default: the start state)."""
        seen = np.zeros(self.num_states, dtype=bool)
        frontier = np.unique(
            np.asarray([self.start] if roots is None else list(roots), dtype=np.int32)
        )
        seen[frontier] = True
        while frontier.size:
            nxt = np.unique(self.transitions[:, frontier])
            frontier = nxt[~seen[nxt]]
            seen[frontier] = True
        return np.flatnonzero(seen)

    def state_depths(self) -> np.ndarray:
        """BFS depth of each state from the start (-1 when unreachable).

        Used by the Becchi-style trace generator to bias inputs toward
        "deeper" (more-matched) states.
        """
        depths = np.full(self.num_states, -1, dtype=np.int64)
        depths[self.start] = 0
        frontier = np.asarray([self.start], dtype=np.int32)
        level = 0
        while frontier.size:
            level += 1
            nxt = np.unique(self.transitions[:, frontier])
            nxt = nxt[depths[nxt] < 0]
            depths[nxt] = level
            frontier = nxt
        return depths

    def reverse_edges(self) -> List[List[Tuple[int, int]]]:
        """Adjacency of the reversed transition graph.

        ``result[q]`` lists ``(p, c)`` pairs with ``delta(p, c) == q``.
        """
        rev: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_states)]
        table = self.transitions
        for c in range(self.alphabet_size):
            row = table[c]
            for p in range(self.num_states):
                rev[int(row[p])].append((p, c))
        return rev

    def restrict_alphabet(self, symbols: Sequence[int]) -> "Dfa":
        """A DFA over the sub-alphabet ``symbols`` (renumbered 0..k-1)."""
        symbols = list(symbols)
        return Dfa(self.transitions[symbols, :], self.start, self.accepting)

    def renumbered(self, order: Sequence[int]) -> "Dfa":
        """Return an isomorphic DFA with states permuted by ``order``.

        ``order[i]`` is the old id of new state ``i``.
        """
        order = np.asarray(order, dtype=np.int32)
        if sorted(order.tolist()) != list(range(self.num_states)):
            raise ValueError("order must be a permutation of all states")
        inverse = np.empty(self.num_states, dtype=np.int32)
        inverse[order] = np.arange(self.num_states, dtype=np.int32)
        table = inverse[self.transitions[:, order]]
        start = int(inverse[self.start])
        accepting = [int(inverse[a]) for a in self.accepting]
        return Dfa(table, start, accepting)

    def iter_transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(state, symbol, target)`` triples."""
        for c in range(self.alphabet_size):
            row = self.transitions[c]
            for q in range(self.num_states):
                yield q, c, int(row[q])

    @classmethod
    def from_transition_dict(
        cls,
        num_states: int,
        alphabet_size: int,
        mapping,
        start: int,
        accepting: Iterable[int],
        default: str = "self",
    ) -> "Dfa":
        """Build a DFA from a sparse ``{(state, symbol): target}`` dict.

        ``default`` chooses what unlisted transitions do: ``"self"`` loops in
        place, ``"start"`` falls back to the start state, or an integer state
        id may be given as a string-free int via ``default=<int>``.
        """
        if default == "self":
            table = np.tile(np.arange(num_states, dtype=np.int32), (alphabet_size, 1))
        elif default == "start":
            table = np.full((alphabet_size, num_states), int(start), dtype=np.int32)
        else:
            table = np.full((alphabet_size, num_states), int(default), dtype=np.int32)
        for (q, c), t in mapping.items():
            table[c, q] = t
        return cls(table, start, accepting)
