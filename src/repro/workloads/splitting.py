"""Delimiter splitting of structured inputs (Section V-B).

The paper argues PAP's "one file = one input string" methodology is
unrealistic: Brill text cannot match across sentence boundaries, Snort
packets are independent, so real deployments split the input and process
pieces in parallel.  Dependent sequences rarely exceed ten thousand
symbols — which is why initial enumeration overhead (R0) matters.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ingest import admit

__all__ = ["split_by_delimiter", "insert_delimiters"]

# the delimiters these utilities cut at are bytes
BYTE_ALPHABET = 256


def split_by_delimiter(
    symbols,
    delimiter: int,
    keep_delimiter: bool = False,
    drop_empty: bool = True,
) -> List[np.ndarray]:
    """Cut an input at every occurrence of ``delimiter``.

    Each returned piece is independent: an FSM restarted at each piece
    produces the same reports as one sequential pass, provided no pattern
    can match across the delimiter (the property Brill sentences and Snort
    packet boundaries guarantee).  The input is admitted first
    (:func:`repro.ingest.admit`): a symbol outside ``[0, 256)`` raises
    :class:`repro.ingest.InputError`, and byte input is cut into
    zero-copy uint8 views.
    """
    syms = admit(symbols, BYTE_ALPHABET)
    cut_positions = np.flatnonzero(syms == int(delimiter))
    pieces: List[np.ndarray] = []
    prev = 0
    for cut in cut_positions.tolist():
        end = cut + 1 if keep_delimiter else cut
        piece = syms[prev:end]
        if piece.size or not drop_empty:
            pieces.append(piece)
        prev = cut + 1
    tail = syms[prev:]
    if tail.size or not drop_empty:
        pieces.append(tail)
    return pieces


def insert_delimiters(
    pieces: List[np.ndarray],
    delimiter: int,
) -> np.ndarray:
    """Inverse of :func:`split_by_delimiter` (for corpus assembly).

    Every piece is admitted (:func:`repro.ingest.admit`) as bytes; the
    joined symbols are int64.
    """
    if not pieces:
        return np.empty(0, dtype=np.int64)
    joined: List[np.ndarray] = []
    delim = np.asarray([int(delimiter)], dtype=np.int64)
    for i, piece in enumerate(pieces):
        if i:
            joined.append(delim)
        joined.append(admit(piece, BYTE_ALPHABET))
    return np.concatenate(joined).astype(np.int64, copy=False)
