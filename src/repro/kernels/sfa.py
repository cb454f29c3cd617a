"""A lazily grown simultaneous finite automaton (SFA) for one DFA.

An SFA (Sin'ya & Matsuzaki 2014) is a DFA whose states are the segment
functions ``state -> state`` reachable from the identity: its transition
on symbol ``a`` from function ``f`` is ``T[a] o f``.  One walk of it over
a segment, from the identity, gives that segment's exact function, so a
scan is one independent lane per segment and a composition of their
functions -- CSE's enumeration with all convergence precomputed: no
frontier, no speculation, no re-execution.

The closure can be large (3065 functions for Dotstar06) while traffic
touches a small corner of it, so it is grown lazily:

- ``funcs`` holds the function rows, one per SFA state, at the dense
  tables' dtype; row 0 is the identity.
- ``table`` is the state-major int32 SFA table, ``rows x alphabet``:
  entry ``[s, a]`` is the row offset ``fid * alphabet`` of the function
  ``fid`` that symbol ``a`` leads to from SFA state ``s`` (an offset keeps
  a multiply off each lane's chain of loads), and ``-1`` marks an entry
  whose row was not built yet.
- :meth:`LazySfa.scan` walks the lanes in C (:func:`repro.kernels.native.
  native_lanes`); a lane that reads ``-1`` pauses, the row of its SFA
  state is built whole in one gather ``T[:, funcs[s]]`` and the lanes
  resume.  The gather and the deduplication run over ``T``'s byte
  classes (:func:`repro.automata.alphabet.symbol_classes`), since every
  byte of a class leads to the same function; the row is written back
  256 wide, so the lanes never see a class.

Growth takes one lock.  A function row exists before its offset is
written into the table, ids are append-only, and a table that grows is
copied, never written again, so a lane still reading an old table sees
only rows that its composition can resolve.  Past :data:`SFA_MAX_FUNCTIONS`
functions the SFA is abandoned for good (:attr:`LazySfa.abandoned`) and
its rows are dropped; so is one whose offsets would not fit int32.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.alphabet import symbol_classes
from repro.automata.dfa import Dfa
from repro.kernels.dense import dense_state_dtype
from repro.kernels.native import Lanes, native_lanes

__all__ = ["SFA_MAX_FUNCTIONS", "LazySfa"]

#: functions an SFA may hold; reaching past it abandons the SFA for good
SFA_MAX_FUNCTIONS = 4096
#: rows allocated up front; the arrays double when they fill
_INITIAL_ROWS = 64


class LazySfa:
    """The SFA of ``dfa``, grown row by row as lanes reach new functions."""

    def __init__(self, dfa: Dfa) -> None:
        n = dfa.num_states
        self.num_states = n
        self.alphabet_size = dfa.alphabet_size
        dtype = dense_state_dtype(n)
        # the byte classes of T, numbered by first appearance; a row is
        # built over them and written back byte-wide
        self._class_of = symbol_classes(dfa)
        _, firsts = np.unique(self._class_of, return_index=True)
        # its own copy of T's class columns, not the artifact's dense
        # tables: K118 then certifies the SFA apart from them (K111)
        self._trans = dfa.transitions[firsts].astype(dtype)
        self.funcs = np.empty((_INITIAL_ROWS, n), dtype=dtype)
        self.funcs[0] = np.arange(n, dtype=dtype)
        self.table = np.full((_INITIAL_ROWS, self.alphabet_size), -1,
                             dtype=np.int32)
        self._index: Dict[bytes, int] = {self.funcs[0].tobytes(): 0}
        self._built: List[bool] = [False] * _INITIAL_ROWS
        self.functions = 1
        self.rows = 0
        self.abandoned = False
        self._lock = threading.Lock()
        if SFA_MAX_FUNCTIONS * self.alphabet_size > np.iinfo(np.int32).max:
            self._abandon()

    def scan(self, spans: Sequence[np.ndarray], state: int
             ) -> Optional[Tuple[List[int], bool]]:
        """The boundary states of ``spans`` from ``state``, and whether it grew.

        ``spans`` are admitted input (uint8 or int64), walked as one lane
        each from the identity; their functions are then applied in turn.
        The boundaries are ``len(spans) + 1`` states: ``state``, then the
        state after each span, so the last is the final state.  They are
        returned, never kept here, since several threads may scan one SFA.
        The flag is true when some lane paused on a row not built yet
        (built by this scan, or meanwhile by another thread).  ``None``
        when the SFA was, or became, abandoned: the caller falls back to
        another plan.
        """
        lanes = Lanes(spans, 0)
        paused = False
        while True:
            # the local keeps the table alive for the call, even if
            # another thread grows a new one meanwhile
            table = self.table
            if self.abandoned:
                return None
            if native_lanes(table, lanes) == 0:
                break
            paused = True
            rows = lanes.state[lanes.paused()] // self.alphabet_size
            if not self.build(rows):
                return None
        with self._lock:
            if self.abandoned:
                return None
            # every row a table ever named is a row of this array
            funcs = self.funcs
        boundaries = [int(state)]
        for fid in (lanes.state // self.alphabet_size).tolist():
            boundaries.append(int(funcs[fid, boundaries[-1]]))
        return boundaries, paused

    def build(self, states: Iterable[int]) -> bool:
        """Build the rows of SFA ``states``; ``False`` once abandoned."""
        with self._lock:
            for s in sorted(set(int(q) for q in states)):
                if self.abandoned:
                    return False
                if not self._built[s]:
                    self._build_row(s)
            return not self.abandoned

    def grown(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(funcs, built, rows)`` copied at one instant under the lock.

        ``funcs`` are the function rows, ``built`` the ids of the SFA
        states whose rows are built and ``rows`` their table rows.
        """
        with self._lock:
            built = np.flatnonzero(
                np.asarray(self._built[:self.functions], dtype=np.bool_))
            return (self.funcs[:self.functions].copy(), built,
                    self.table[built].copy())

    def _build_row(self, s: int) -> None:
        # row s of the SFA: T[c] o funcs[s] for every byte class c at
        # once; classes run in the order of their first bytes, so new
        # functions get the ids a byte-by-byte build would give them
        succ = self._trans[:, self.funcs[s]]
        width = succ.shape[1] * succ.itemsize
        raw = succ.tobytes()
        crow = np.empty(succ.shape[0], dtype=np.int32)
        for c in range(succ.shape[0]):
            key = raw[c * width:(c + 1) * width]
            fid = self._index.get(key)
            if fid is None:
                fid = self.functions
                if fid >= SFA_MAX_FUNCTIONS:
                    self._abandon()
                    return
                self._reserve(fid + 1)
                self.funcs[fid] = succ[c]
                self._index[key] = fid
                self.functions = fid + 1
            crow[c] = fid * self.alphabet_size
        # the functions exist before any lane can read their offsets
        self.table[s] = crow[self._class_of]
        self._built[s] = True
        self.rows += 1

    def _reserve(self, need: int) -> None:
        cap = self.table.shape[0]
        if need <= cap:
            return
        grown = min(max(2 * cap, need), SFA_MAX_FUNCTIONS)
        funcs = np.empty((grown, self.num_states), dtype=self.funcs.dtype)
        funcs[:cap] = self.funcs
        table = np.full((grown, self.alphabet_size), -1, dtype=np.int32)
        table[:cap] = self.table
        self._built.extend([False] * (grown - cap))
        # funcs first: a composition must resolve every row a table holds
        self.funcs = funcs
        self.table = table

    def _abandon(self) -> None:
        self.abandoned = True
        self._index = {}
        self.funcs = self.funcs[:1].copy()
        self.table = np.full((1, self.alphabet_size), -1, dtype=np.int32)
        self._built = [False]
        self.functions = 1
