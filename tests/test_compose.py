"""Composition by selection: the same answer as the set-valued composition.

:func:`repro.core.reexec.compose_and_fix` composes a concrete state by
selecting its convergence set's outcome and takes the set-valued path
only where a selected set diverged.  These tests hold it to the
set-valued composition it replaced (kept below as the reference), under
every policy, on random segment-function chains with converged,
diverged and empty (infeasible) outcomes; and they check the cached
partition arrays the composition reads.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import StatePartition
from repro.core.reexec import POLICIES, ReexecutionStats, compose_and_fix
from repro.core.transition import CsOutcome, SegmentFunction
from repro.hardware.ap import APConfig


def reference_compose_and_fix(syms, enum_bounds, functions, first_final,
                              policy, walk):
    """The set-valued composition: every value an array, every step apply."""
    config = APConfig()
    stats = ReexecutionStats()
    stats.diverged_segments = sum(1 for fn in functions
                                  if not fn.all_converged)
    if not functions:
        return int(first_final), stats
    values: List[np.ndarray] = []
    current = np.asarray([first_final], dtype=np.int64)
    for fn in functions:
        current = fn.apply(current)
        values.append(current)
    if values[-1].size == 1:
        return int(values[-1][0]), stats

    def last_concrete() -> int:
        for i in range(len(functions) - 1, -1, -1):
            if values[i].size == 1:
                return i
        return -1

    if policy == "basic":
        state = int(first_final)
        for i, (a, b) in enumerate(enum_bounds):
            state = walk(syms[a:b], state)
            stats.reexecuted_segments.append(i)
            stats.extra_cycles += (b - a) * config.symbol_cycles
        return state, stats
    if policy == "last_concrete":
        r = last_concrete()
        state = int(values[r][0]) if r >= 0 else int(first_final)
        for i in range(r + 1, len(functions)):
            a, b = enum_bounds[i]
            state = walk(syms[a:b], state)
            stats.reexecuted_segments.append(i)
            stats.extra_cycles += (b - a) * config.symbol_cycles
        return state, stats
    while values[-1].size != 1:
        r = last_concrete()
        state = int(values[r][0]) if r >= 0 else int(first_final)
        target = r + 1
        a, b = enum_bounds[target]
        state = walk(syms[a:b], state)
        stats.reexecuted_segments.append(target)
        stats.extra_cycles += (b - a) * config.symbol_cycles
        values[target] = np.asarray([state], dtype=np.int64)
        current = values[target]
        for i in range(target + 1, len(functions)):
            current = functions[i].apply(current)
            values[i] = current
            stats.extra_cycles += (
                config.reeval_cycles_per_cs * len(functions[i].outcomes))
        stats.reeval_passes += 1
    return int(values[-1][0]), stats


def fake_walk(n_states: int):
    """A deterministic re-execution: any walk both sides call alike."""
    def walk(symbols: np.ndarray, state: int) -> int:
        return (3 * int(state) + int(symbols.sum()) + 1) % n_states
    return walk


@st.composite
def chains(draw):
    """A partition, a segment-function chain over it, bounds and a start.

    Each set's outcome is converged, diverged (two or more states, or one
    state flagged diverged, as a report-ambiguous set is), or empty (a
    set proven infeasible).
    """
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    partition = StatePartition.from_labels(labels)
    kinds = st.sampled_from(["converged"] * 3 + ["diverged", "single",
                                                 "empty"])
    functions = []
    for _ in range(draw(st.integers(0, 7))):
        outcomes = []
        for _block in partition.blocks:
            kind = draw(kinds)
            if kind == "converged":
                q = draw(st.integers(0, n - 1))
                outcomes.append(CsOutcome(True, q, np.asarray([q])))
            elif kind == "empty":
                outcomes.append(CsOutcome(False, None,
                                          np.empty(0, dtype=np.int64)))
            else:
                size = 1 if kind == "single" or n == 1 else 2
                states = draw(st.lists(st.integers(0, n - 1), min_size=size,
                                       max_size=n, unique=True))
                outcomes.append(CsOutcome(False, None,
                                          np.asarray(sorted(states))))
        functions.append(SegmentFunction(outcomes, partition.labels()))
    lengths = draw(st.lists(st.integers(0, 5), min_size=len(functions),
                            max_size=len(functions)))
    bounds: List[Tuple[int, int]] = []
    pos = 3
    for length in lengths:
        bounds.append((pos, pos + length))
        pos += length
    syms = np.arange(pos, dtype=np.int64)
    first = draw(st.integers(0, n - 1))
    return n, syms, bounds, functions, first


def run_both(n: int, syms, bounds, functions: Sequence[SegmentFunction],
             first: int, policy: str):
    walk = fake_walk(n)
    outcomes = []
    for compose in (
        lambda: compose_and_fix(None, syms, bounds, functions, first,
                                policy=policy, walk=walk),
        lambda: reference_compose_and_fix(syms, bounds, functions, first,
                                          policy, walk),
    ):
        try:
            outcomes.append(compose())
        except AssertionError:
            outcomes.append("infeasible")
    return outcomes


@given(chains(), st.sampled_from(POLICIES))
@settings(max_examples=300, deadline=None)
def test_selection_matches_the_set_valued_composition(chain, policy):
    got, want = run_both(*chain, policy=policy)
    assert got == want


@pytest.mark.parametrize("policy", POLICIES)
def test_an_empty_selected_set_still_raises(policy):
    partition = StatePartition([[0, 1], [2]], 3)
    labels = partition.labels()
    infeasible = SegmentFunction(
        [CsOutcome(False, None, np.empty(0, dtype=np.int64)),
         CsOutcome(True, 2, np.asarray([2]))], labels)
    converged = SegmentFunction(
        [CsOutcome(True, 0, np.asarray([0])),
         CsOutcome(True, 1, np.asarray([1]))], labels)
    syms = np.zeros(8, dtype=np.int64)
    with pytest.raises(AssertionError, match="infeasible"):
        compose_and_fix(None, syms, [(0, 4), (4, 8)],
                        [converged, infeasible], 2, policy=policy,
                        walk=fake_walk(3))


def test_converged_selections_never_run_unique(monkeypatch):
    """The common case is one lookup per segment: no set arithmetic."""
    partition = StatePartition([[0, 1], [2, 3], [4]], 5)
    labels = partition.labels()
    # the selected sets converge; a set the chain never selects diverged
    chain = [
        SegmentFunction([CsOutcome(True, 2, np.asarray([2])),
                         CsOutcome(True, 4, np.asarray([4])),
                         CsOutcome(False, None, np.asarray([0, 3]))],
                        labels),
        SegmentFunction([CsOutcome(False, None, np.asarray([1, 2])),
                         CsOutcome(True, 4, np.asarray([4])),
                         CsOutcome(True, 0, np.asarray([0]))], labels),
        SegmentFunction([CsOutcome(True, 3, np.asarray([3])),
                         CsOutcome(False, None, np.asarray([0, 4])),
                         CsOutcome(True, 1, np.asarray([1]))], labels),
    ]
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda *a, **k: calls.append(1) or unique(*a, **k))
    bounds = [(0, 1), (1, 2), (2, 3)]
    for policy in POLICIES:
        # 0 -> set 0 -> 2 -> set 1 -> 4 -> set 2 -> 1
        final, stats = compose_and_fix(None, np.zeros(3), bounds, chain, 0,
                                       policy=policy, walk=fake_walk(5))
        assert final == 1
        assert stats.reexecuted_segments == []
        assert stats.diverged_segments == 3
    assert calls == []


class TestCachedPartitionArrays:
    def partition(self):
        return StatePartition([[0, 3], [1], [2, 4, 5]], 6)

    def test_equal_across_calls(self):
        p = self.partition()
        first_labels, first_blocks = p.labels(), p.block_arrays()
        assert first_labels.tolist() == [0, 1, 2, 0, 2, 2]
        assert [b.tolist() for b in first_blocks] == [[0, 3], [1], [2, 4, 5]]
        assert p.labels() is first_labels
        again = p.block_arrays()
        assert all(a is b for a, b in zip(again, first_blocks))
        layout = p.frontier_layout()
        assert layout.perm.tolist() == [0, 3, 1, 2, 4, 5]
        assert layout.starts.tolist() == [0, 2, 3]
        assert layout.sizes.tolist() == [2, 1, 3]
        assert layout.ends.tolist() == [2, 3, 6]
        assert layout.multi == 2
        assert p.frontier_layout() is layout

    def test_read_only(self):
        p = self.partition()
        with pytest.raises(ValueError):
            p.labels()[0] = 1
        with pytest.raises(ValueError):
            p.block_arrays()[0][0] = 1
        for arr in p.frontier_layout()[:4]:
            with pytest.raises(ValueError):
                arr[0] = 1
        # the list itself is the caller's
        blocks = p.block_arrays()
        blocks.pop()
        assert len(p.block_arrays()) == 3

    def test_pickle_carries_no_cache(self):
        p = self.partition()
        cold = pickle.dumps(p)
        p.labels(), p.block_arrays(), p.frontier_layout()
        warm = pickle.dumps(p)
        assert warm == cold
        back = pickle.loads(warm)
        assert back == p
        assert back._labels is None and back._arrays is None
        assert back._layout is None
        assert back.labels().tolist() == p.labels().tolist()
        assert back.block_of(4) == 2
