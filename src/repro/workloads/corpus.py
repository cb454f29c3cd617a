"""Structured corpora: inputs with the statistics of real data.

Becchi-style traces (:mod:`traces`) are automaton-guided; real deployments
see *domain-structured* data instead — English-like sentences for a
tagger, keyword-bearing packet payloads for a NIDS, amino-acid sequences
for protein scanners.  Structured inputs matter for the evaluation: they
exercise partial-match behaviour that uniform random profiling inputs do
not, which is exactly what makes convergence-set *prediction* non-trivial
(Figures 8 and 18 of the paper).

Every corpus comes out through the input contract
(:func:`repro.ingest.admit`) against the byte alphabet: the sentence
text as a uint8 array, the packet and protein streams as int64, and a
symbol outside ``[0, 256)`` (a packet delimiter of -1, say) raises
:class:`repro.ingest.InputError` here instead of in a later scan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ingest import admit
from repro.workloads.rulesets import _WORDS
from repro.workloads.splitting import BYTE_ALPHABET

__all__ = [
    "sentence_corpus",
    "packet_corpus",
    "protein_corpus",
    "mixed_corpus",
]


def sentence_corpus(
    rng: np.random.Generator,
    length: int,
    vocabulary: Optional[Sequence[str]] = None,
    words_per_sentence: int = 12,
    period: str = ".",
) -> np.ndarray:
    """English-like text: space-separated dictionary words in sentences.

    The vocabulary defaults to the same word list the Brill ruleset
    generator draws from, so rule words appear with realistic frequency —
    including *adjacent pairs* that partially match rules, the situation
    uniform random characters essentially never produce.
    """
    vocabulary = list(vocabulary or _WORDS)
    parts: List[str] = []
    count = 0
    word_budget = 0
    # overshoot slightly: joining drops the trailing separator, so the
    # assembled text can come out a few characters short of `count`
    while count < length + 64:
        word = vocabulary[int(rng.integers(len(vocabulary)))]
        parts.append(word)
        count += len(word) + 1
        word_budget += 1
        if word_budget >= words_per_sentence:
            parts.append(period)
            count += 2
            word_budget = 0
    text = " ".join(parts)[:length]
    # a writable byte buffer, so the array is too
    return admit(bytearray(text, "latin-1"), BYTE_ALPHABET)


def packet_corpus(
    rng: np.random.Generator,
    length: int,
    keywords: Optional[Sequence[str]] = None,
    keyword_rate: float = 0.02,
    delimiter: int = 0,
    packet_len: int = 400,
) -> np.ndarray:
    """A NIDS-flavoured byte stream: packets of printable payload.

    Protocol keywords (the same ones the Snort ruleset generator uses) are
    injected at ``keyword_rate`` per position, so rules frequently *start*
    matching — arming enumeration state — without necessarily completing.
    Packets are separated by ``delimiter`` bytes.
    """
    keywords = list(
        keywords
        or ["GET", "POST", "HEAD", "HTTP", "admin", "login", "passwd",
            "cmd", "exec", "shell", "root", "select", "union", "script"]
    )
    out: List[int] = []
    position_in_packet = 0
    while len(out) < length:
        if position_in_packet >= packet_len:
            out.append(int(delimiter))
            position_in_packet = 0
            continue
        if rng.random() < keyword_rate:
            word = keywords[int(rng.integers(len(keywords)))]
            out.extend(ord(c) for c in word)
            position_in_packet += len(word)
        else:
            out.append(int(rng.integers(32, 127)))
            position_in_packet += 1
    return admit(np.asarray(out[:length], dtype=np.int64), BYTE_ALPHABET)


def protein_corpus(
    rng: np.random.Generator,
    length: int,
    motif_fragments: Optional[Sequence[str]] = None,
    fragment_rate: float = 0.01,
) -> np.ndarray:
    """Amino-acid sequences with occasional conserved fragments."""
    amino = "ACDEFGHIKLMNPQRSTVWY"
    fragments = list(motif_fragments or ["CAAC", "NGS", "LKKKKKKL"])
    out: List[int] = []
    while len(out) < length:
        if rng.random() < fragment_rate:
            fragment = fragments[int(rng.integers(len(fragments)))]
            out.extend(ord(c) for c in fragment)
        else:
            out.append(ord(amino[int(rng.integers(len(amino)))]))
    return admit(np.asarray(out[:length], dtype=np.int64), BYTE_ALPHABET)


def mixed_corpus(
    rng: np.random.Generator,
    length: int,
    pieces: Sequence[np.ndarray],
) -> np.ndarray:
    """Concatenate random picks from precomputed corpus pieces."""
    if not pieces:
        raise ValueError("need at least one corpus piece")
    out: List[np.ndarray] = []
    total = 0
    while total < length:
        piece = pieces[int(rng.integers(len(pieces)))]
        out.append(piece)
        total += piece.size
    return admit(np.concatenate(out)[:length], BYTE_ALPHABET)
