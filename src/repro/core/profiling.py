"""Convergence set prediction (Section IV-B).

The pipeline:

1. :func:`profile_partitions` — run ``n_inputs`` random strings (length and
   symbol range mimic the real workload, Section IV-B1) through the DFA's
   all-state oracle; each input induces one convergence partition; count
   distinct partitions.
2. :func:`maximum_frequency_partition` — the MFP alone is often weak
   (Figure 8: e.g. ClamAV 61%).
3. :func:`merge_to_cutoff` — refine the MFP with further partitions, in
   frequency order, until the merged partition *covers* at least the
   cut-off fraction of profiled inputs (Section IV-B2, Figures 9/16).

:func:`predict_convergence_sets` bundles the three for the engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Counter as CounterT, List, Optional, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition

__all__ = [
    "ProfilingConfig",
    "profile_inputs",
    "profile_finals",
    "profile_partitions",
    "maximum_frequency_partition",
    "covered_fraction",
    "merge_to_cutoff",
    "MergeResult",
    "predict_convergence_sets",
]


@dataclass(frozen=True)
class ProfilingConfig:
    """Random-input profiling knobs.

    ``symbol_low``/``symbol_high`` bound the sampled symbol range — the
    paper samples "a subset of ASCII" when the FSM only accepts visible
    characters.  ``input_len`` should match the segment lengths the engine
    will run (real applications split input into similar-length pieces).
    """

    n_inputs: int = 1000
    input_len: int = 200
    symbol_low: int = 0
    symbol_high: int = 255
    seed: int = 20180623  # MICRO 2018 submission-ish; any fixed seed works

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")
        if self.input_len < 1:
            raise ValueError("input_len must be >= 1")
        if not (0 <= self.symbol_low <= self.symbol_high):
            raise ValueError("bad symbol range")

    def random_input(self, rng: np.random.Generator, alphabet_size: int) -> np.ndarray:
        high = min(self.symbol_high, alphabet_size - 1)
        low = min(self.symbol_low, high)
        return rng.integers(low, high + 1, size=self.input_len, dtype=np.int64)


def profile_inputs(dfa: Dfa, config: ProfilingConfig) -> np.ndarray:
    """The ``(n_inputs, input_len)`` profiling words, in generation order.

    Words are drawn one at a time from a generator seeded with
    ``config.seed`` — the exact RNG consumption of the original
    interpreted loop, so both profiler paths see identical inputs.
    """
    rng = np.random.default_rng(config.seed)
    return np.stack(
        [config.random_input(rng, dfa.alphabet_size) for _ in range(config.n_inputs)]
    )


def profile_finals(
    dfa: Dfa,
    config: Optional[ProfilingConfig] = None,
    vectorized: bool = True,
) -> np.ndarray:
    """All-state endpoints of every profiling input: ``(n_inputs, n_states)``.

    Row ``i`` is ``dfa.run_all_states(word_i)``.  The vectorized path
    advances every state of every profiling input in lockstep — one flat
    gather per symbol position instead of ``n_inputs * input_len``
    interpreted ``take`` calls — and is bit-identical to the interpreted
    loop (``vectorized=False``, kept as the differential baseline).
    The gather runs in int32, where every index fits
    (``alphabet_size * num_states`` is bounded by the int32 table the
    :class:`Dfa` stores).
    """
    config = config or ProfilingConfig()
    words = profile_inputs(dfa, config)
    if not vectorized:
        return np.stack([dfa.run_all_states(word) for word in words])
    n_states = dfa.num_states
    flat = dfa.transitions.ravel()
    # offsets[i, t] = symbol_of(input i, position t) * n_states, so one
    # fancy-indexed gather advances all n_inputs * n_states flows at once;
    # int32 throughout halves the memory traffic of the hot loop
    offsets = (words * n_states).astype(np.int32)
    cur = np.tile(np.arange(n_states, dtype=np.int32), (config.n_inputs, 1))
    idx = np.empty_like(cur)
    for t in range(config.input_len):
        np.add(offsets[:, t, None], cur, out=idx)
        np.take(flat, idx, out=cur)
    return cur


def profile_partitions(
    dfa: Dfa,
    config: Optional[ProfilingConfig] = None,
    vectorized: bool = True,
) -> CounterT[StatePartition]:
    """Census of convergence partitions over random profiling inputs.

    The census is an exact value regardless of ``vectorized``: the batched
    profiler sees the same words (same seed, same RNG consumption) and the
    same endpoints, and :class:`Counter` equality ignores insertion order.
    The vectorized path additionally deduplicates identical endpoint rows
    before building partitions, so the Python-level partition construction
    is paid once per *distinct* outcome instead of once per input.
    """
    config = config or ProfilingConfig()
    census: CounterT[StatePartition] = Counter()
    if not vectorized:
        rng = np.random.default_rng(config.seed)
        for _ in range(config.n_inputs):
            word = config.random_input(rng, dfa.alphabet_size)
            finals = dfa.run_all_states(word)
            census[StatePartition.from_final_states(finals)] += 1
        return census
    finals = profile_finals(dfa, config)
    rows, counts = np.unique(finals, axis=0, return_counts=True)
    for row, count in zip(rows, counts.tolist()):
        census[StatePartition.from_final_states(row)] += int(count)
    return census


def maximum_frequency_partition(
    census: CounterT[StatePartition],
) -> Tuple[StatePartition, float]:
    """The MFP and its frequency as a fraction of profiled inputs."""
    if not census:
        raise ValueError("empty census")
    total = sum(census.values())
    partition, count = census.most_common(1)[0]
    return partition, count / total


def covered_fraction(partition: StatePartition, census: CounterT[StatePartition]) -> float:
    """Fraction of profiled inputs whose partition is covered.

    ``partition`` covers a census entry ``Q`` when it refines ``Q``; inputs
    that produced ``Q`` then provably converge under ``partition`` too.
    """
    total = sum(census.values())
    if total == 0:
        raise ValueError("empty census")
    covered = sum(
        count for entry, count in census.items() if partition.refines(entry)
    )
    return covered / total


@dataclass(frozen=True)
class MergeResult:
    """Outcome of the merge strategy."""

    partition: StatePartition
    covered: float
    merged_count: int

    @property
    def num_convergence_sets(self) -> int:
        """R0 of a CSE run using this partition."""
        return self.partition.num_blocks


def merge_to_cutoff(
    census: CounterT[StatePartition],
    cutoff: float = 0.99,
    max_blocks: Optional[int] = None,
) -> MergeResult:
    """The paper's heuristic merge strategy.

    - start from the MFP;
    - fold in further partitions from higher frequency to lower (each fold
      is a Figure-10 refinement; partitions already covered cost nothing —
      the "compatible check");
    - stop once the covered fraction reaches ``cutoff`` (or the census is
      exhausted, which is the "merge to 100%" strategy).

    ``max_blocks`` optionally aborts folds that would exceed a block
    budget — the guard the paper wants for Protomata, whose 100% merge
    explodes to 61 subsets.
    """
    if not (0.0 < cutoff <= 1.0):
        raise ValueError("cutoff must be in (0, 1]")
    ordered = [p for p, _ in census.most_common()]
    if not ordered:
        raise ValueError("empty census")
    merged = ordered[0]
    covered = covered_fraction(merged, census)
    merges = 0
    for candidate in ordered[1:]:
        if covered >= cutoff:
            break
        if merged.refines(candidate):
            continue  # already covered; frequency was already counted
        refined = merged.refine(candidate)
        if max_blocks is not None and refined.num_blocks > max_blocks:
            continue
        merged = refined
        merges += 1
        covered = covered_fraction(merged, census)
    return MergeResult(merged, covered, merges)


def predict_convergence_sets(
    dfa: Dfa,
    config: Optional[ProfilingConfig] = None,
    cutoff: float = 0.99,
    max_blocks: Optional[int] = None,
) -> MergeResult:
    """Profile + merge in one call — what :class:`CseEngine` does by default."""
    census = profile_partitions(dfa, config)
    return merge_to_cutoff(census, cutoff=cutoff, max_blocks=max_blocks)
