"""Dense transition tables: the dtype-narrowed table the kernels read.

:class:`DenseTables` holds the transition matrix raveled symbol-major
(``table[c * num_states + q]`` is the state after symbol ``c`` from
``q``) in the narrowest unsigned dtype that holds every state id
(:func:`dense_state_dtype`), so it stays cache-dense.  The native tier's
frontier, walks and prefilter read it in C (:mod:`repro.kernels.native`);
the SFA builds its rows at its dtype (:mod:`repro.kernels.sfa`), and the
compilation cache stores one per artifact.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.automata.dfa import Dfa

__all__ = ["DenseTables", "dense_state_dtype"]


def dense_state_dtype(num_states: int) -> np.dtype[Any]:
    """Narrowest unsigned dtype that can hold every state id.

    uint8 up to 256 states, uint16 up to 65536; beyond that the table
    falls back to int64, which the native kernels also read.
    """
    if num_states <= (1 << 8):
        return np.dtype(np.uint8)
    if num_states <= (1 << 16):
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class DenseTables:
    """The dtype-narrowed, raveled transition table of one DFA.

    ``table`` is the raveled transition matrix in :func:`dense_state_dtype`
    precision.  Built once per DFA — the compilation cache stores an
    instance inside :class:`repro.compilecache.CompiledDfa` so scans never
    re-derive it.
    """

    def __init__(self, dfa: Dfa) -> None:
        n = dfa.num_states
        self.num_states = n
        self.dtype = dense_state_dtype(n)
        self.table = dfa.transitions.astype(self.dtype).ravel()
        #: the native tier's C view of ``table``, resolved on its first
        #: call (:mod:`repro.kernels.native`); never pickled, since it
        #: holds an address
        self.native_args: Optional[
            Tuple[np.ndarray, np.ndarray, int, int]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["native_args"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.native_args = None

    @property
    def nbytes(self) -> int:
        return int(self.table.nbytes)
