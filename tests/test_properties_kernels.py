"""Property-based tests: the vectorized kernels are exact.

Every backend of the software CSE path must produce bit-identical
segment transition functions on arbitrary machines, inputs and
partitions, and the end-to-end scan must equal the sequential oracle.
The concrete walk (:func:`repro.kernels.walk`) is additionally diffed
against :meth:`Dfa.run` /
:meth:`Dfa.run_reports`, with the native tier present and forced absent.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.kernels import (
    KERNEL_BACKENDS,
    DenseTables,
    certify_prefilter,
    run_segments_batch,
    walk,
)
from repro.kernels.native import ENV_DISABLE, reset_native
from repro.software import run_segment, software_cse_scan
from tests.kernel_inputs import (
    component_partition,
    disjoint_union_dfa,
    lane_schedule,
    outcome,
    symbols_of,
)


@st.composite
def dfas(draw, min_states=1, max_states=12, max_alphabet=4):
    n = draw(st.integers(min_states, max_states))
    k = draw(st.integers(1, max_alphabet))
    table = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
    start = draw(st.integers(0, n - 1))
    accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Dfa(np.asarray(table, dtype=np.int32), start, accepting)


@st.composite
def dfa_word_partition(draw, max_len=100):
    dfa = draw(dfas())
    word = draw(
        st.lists(st.integers(0, dfa.alphabet_size - 1), min_size=0, max_size=max_len)
    )
    labels = draw(
        st.lists(st.integers(0, 3), min_size=dfa.num_states, max_size=dfa.num_states)
    )
    return dfa, np.asarray(word, dtype=np.int64), StatePartition.from_labels(labels)


def assert_functions_equal(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.converged == ob.converged
        assert oa.state == ob.state
        assert oa.states.dtype == ob.states.dtype == np.int64
        assert np.array_equal(oa.states, ob.states)


class TestBackendEquivalence:
    @given(dfa_word_partition(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_python_per_segment(self, dwp, n_segments):
        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        for backend in KERNEL_BACKENDS:
            functions = run_segments_batch(dfa, partition, segments, backend)
            for ref, fn in zip(reference, functions):
                assert_functions_equal(ref, fn)

    @given(dfa_word_partition(), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_scan_matches_oracle_all_backends(self, dwp, n_segments):
        dfa, word, partition = dwp
        want = dfa.run(word)
        for backend in ("python", "dense", "native", "prefilter", "auto"):
            run = software_cse_scan(
                dfa, word, partition, n_segments=n_segments, backend=backend
            )
            assert run.final_state == want

    @given(dfas(min_states=1, max_states=1), st.lists(st.integers(0, 0), max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_single_state_dfa(self, dfa, word):
        word = np.asarray(word, dtype=np.int64)
        partition = StatePartition.trivial(1)
        reference = run_segment(dfa, partition, word)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [word], backend)[0]
            assert_functions_equal(reference, fn)

    @given(dfas())
    @settings(max_examples=30, deadline=None)
    def test_empty_segments(self, dfa):
        partition = StatePartition.discrete(dfa.num_states)
        empty = np.empty(0, dtype=np.int64)
        reference = run_segment(dfa, partition, empty)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [empty, empty], backend)[0]
            assert_functions_equal(reference, fn)

    @given(st.integers(2, 10), st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_all_dead_sink(self, n, word):
        """Symbol 0 sends everything to the sink; symbol 1 is identity."""
        sink = n - 1
        table = np.stack(
            [np.full(n, sink, dtype=np.int32), np.arange(n, dtype=np.int32)]
        )
        dfa = Dfa(table, 0, [sink])
        word_arr = np.asarray(word, dtype=np.int64)
        partition = StatePartition.trivial(n)
        reference = run_segment(dfa, partition, word_arr)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [word_arr], backend)[0]
            assert_functions_equal(reference, fn)
        if word.count(0):
            assert reference.outcomes[0].converged
            assert reference.outcomes[0].state == sink


class TestDenseEquivalence:
    """The dense-frontier kernel is exact for every stride and dtype."""

    @given(dfa_word_partition(), st.integers(1, 5),
           st.sampled_from([1, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_stride_matches_python(self, dwp, n_segments, stride):
        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        # the native tier shares the dense contract: every stride places
        # collapse checks differently yet the outcomes never move
        for backend in ("dense", "native"):
            functions = run_segments_batch(
                dfa, partition, segments, backend, stride=stride
            )
            for ref, fn in zip(reference, functions):
                assert_functions_equal(ref, fn)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4),
           st.sampled_from([1, 7, 64]))
    @settings(max_examples=15, deadline=None)
    def test_uint16_machines_match(self, seed, n_segments, stride):
        # > 256 states forces the uint16 narrowing path
        from repro.kernels import DenseTables, dense_state_dtype

        rng = np.random.default_rng(seed)
        n = int(rng.integers(257, 400))
        k = int(rng.integers(2, 4))
        table = rng.integers(0, n, size=(k, n)).astype(np.int32)
        dfa = Dfa(table, 0, {0})
        assert dense_state_dtype(n) == np.uint16
        assert DenseTables(dfa).dtype == np.uint16
        labels = rng.integers(0, 4, size=n).tolist()
        partition = StatePartition.from_labels(labels)
        word = rng.integers(0, k, size=int(rng.integers(1, 150)))
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        for backend in ("dense", "native"):
            functions = run_segments_batch(
                dfa, partition, segments, backend, stride=stride
            )
            for ref, fn in zip(reference, functions):
                assert_functions_equal(ref, fn)

    @given(dfa_word_partition(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_collapse_counter_parity(self, dwp, n_segments):
        # every backend must report the same number of collapsed
        # convergence sets (positions_total is *not* invariant: the
        # interpreted path sums per-segment lengths, the batched kernels
        # count the padded maximum)
        from repro import obs

        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        from repro.kernels import native_available

        backends = ["python", "dense"]
        if native_available():
            backends.append("native")
        counts = {}
        for backend in backends:
            with obs.using() as registry:
                if backend == "python":
                    for s in segments:
                        run_segment(dfa, partition, s, backend="python")
                else:
                    run_segments_batch(dfa, partition, segments, backend)
            counts[backend] = registry.get(
                "kernels_collapses_total", backend=backend
            ).value
        assert len(set(counts.values())) == 1, counts


@st.composite
def union_machines(draw):
    """A disjoint union, a partition over it and its component count.

    Symbol ``i`` below the count resets component ``i``.  Half the
    draws take one convergence set per component, so sets collapse to
    different states and never merge; the rest label states at random,
    so sets straddle components and may never collapse.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    extra = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    dfa = disjoint_union_dfa(sizes, extra, np.random.default_rng(seed))
    if draw(st.booleans()):
        partition = component_partition(sizes)
    else:
        partition = StatePartition.from_labels(draw(st.lists(
            st.integers(0, 3), min_size=dfa.num_states,
            max_size=dfa.num_states,
        )))
    return dfa, partition, len(sizes)


class TestNativeFrontierEquivalence:
    """The native core's distinct-state frontier on partly converged sets.

    Grids must equal the dense kernel's and :meth:`Dfa.run_all_states`,
    and the core's counters the one-lane-per-start-state schedule, at
    every segment length, stride and symbol width.
    """

    @given(union_machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_frontiers_match_dense_and_run_all_states(self, mp, data):
        from repro.kernels import native_available
        from repro.kernels.dense import run_segments_dense
        from repro.kernels.native import run_segments_native

        if not native_available():
            return
        dfa, partition, k = mp
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        lengths = data.draw(st.lists(
            st.sampled_from([0, 1, 5, 7, 8, 600, 1500]),
            min_size=1, max_size=4,
        ))
        words = []
        for n in lengths:
            word = rng.integers(0, dfa.alphabet_size, size=n)
            if data.draw(st.booleans()):
                # lead with the resets: every component collapses at once
                word[:k] = np.arange(min(n, k))
            words.append(word)
        stride = data.draw(st.sampled_from([None, 1, 3, 64]))
        kind = data.draw(st.sampled_from(["uint8", "int64", "view"]))
        got, stats = run_segments_native(
            dfa, partition, [symbols_of(w, kind) for w in words],
            stride=stride,
        )
        want, _stats = run_segments_dense(dfa, partition, words, stride=stride)
        for row_got, row_want, word in zip(got, want, words):
            finals = dfa.run_all_states(word)
            for a, b, block in zip(row_got, row_want,
                                   partition.block_arrays()):
                assert (a.converged, a.state) == (b.converged, b.state)
                assert np.array_equal(a.states, b.states)
                assert np.array_equal(a.states, np.unique(finals[block]))
        model = lane_schedule(dfa, partition, words, stride)
        assert {key: stats[key] for key in model} == model


@contextmanager
def native_tier(absent):
    """Run the body with the native tier loaded, or forced absent."""
    saved = os.environ.get(ENV_DISABLE)
    if absent:
        os.environ[ENV_DISABLE] = "0"
    reset_native()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_DISABLE, None)
        else:
            os.environ[ENV_DISABLE] = saved
        reset_native()


def tables_of(dfa, kind):
    """Dense tables at an explicit table kind (uint8 / uint16 / int64)."""
    tables = DenseTables(dfa)
    tables.table = dfa.transitions.astype(kind).ravel()
    return tables


@st.composite
def reset_machines(draw):
    """A random machine the literal prefilter certifies.

    Home is state 0.  Non-anchor symbols keep home at home and send any
    other state to a lower one, so every non-anchor run ends at home;
    anchors move states anywhere.  Accepting states sit away from home.
    """
    n = draw(st.integers(2, 10))
    k = draw(st.sampled_from([4, 6, 9, 256]))
    n_anchors = draw(st.integers(1, max(1, k // 4)))
    table = np.zeros((k, n), dtype=np.int32)
    for c in range(k):
        for q in range(1, n):
            table[c, q] = (
                draw(st.integers(0, n - 1)) if c < n_anchors
                else draw(st.integers(0, q - 1))
            )
        if c < n_anchors:
            table[c, 0] = draw(st.integers(1, n - 1))
    accepting = draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
    dfa = Dfa(table, 0, accepting)
    assume(certify_prefilter(dfa) is not None)
    return dfa


class TestPrefilterEquivalence:
    """The prefilter kernel, compiled or swept, on certified machines."""

    @given(reset_machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefilter_matches_python_per_segment(self, dfa, data):
        tables = certify_prefilter(dfa)
        anchor_heavy = st.sampled_from(
            [0, 0, 0] + np.flatnonzero(~tables.anchor_lut)[:3].tolist())
        word = np.asarray(data.draw(st.lists(
            st.one_of(anchor_heavy, st.integers(0, dfa.alphabet_size - 1)),
            max_size=120,
        )), dtype=np.int64)
        labels = data.draw(st.lists(st.integers(0, 2), min_size=dfa.num_states,
                                    max_size=dfa.num_states))
        partition = StatePartition.from_labels(labels)
        n_segments = data.draw(st.integers(1, 6))
        kind = data.draw(st.sampled_from(["uint8", "int64", "view"]))
        segments = [word[a:b] for a, b in even_boundaries(word.size, n_segments)]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        for absent in (False, True):
            with native_tier(absent):
                functions = run_segments_batch(
                    dfa, partition,
                    [np.asarray(symbols_of(s, kind)) for s in segments],
                    "prefilter", prefilter=tables,
                )
                run = software_cse_scan(
                    dfa, symbols_of(word, kind), partition,
                    n_segments=n_segments, backend="prefilter",
                )
            for ref, fn in zip(reference, functions):
                assert_functions_equal(ref, fn)
            assert run.final_state == dfa.run(word)


class TestWalkEquivalence:
    """The concrete walk is the interpreted walk, compiled or not."""

    @given(
        dfa_word_partition(),
        st.data(),
        st.sampled_from(["uint8", "uint16", "int64"]),
        st.sampled_from(["uint8", "int64", "view"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_run_and_run_reports(
        self, dwp, data, table_kind, symbol_kind
    ):
        dfa, word, _partition = dwp
        state = data.draw(st.integers(0, dfa.num_states - 1))
        want_final = dfa.run(word, state)
        want_reports = dfa.run_reports(word, state)
        for absent in (False, True):
            with native_tier(absent):
                syms = symbols_of(word, symbol_kind)
                tables = tables_of(dfa, table_kind)
                final, reports = walk(
                    dfa, syms, state, tables=tables, reports=True
                )
                bare = walk(dfa, syms, state, tables=tables)
            assert (final, reports) == (want_final, want_reports)
            assert bare == (want_final, [])

    @given(
        dfas(),
        st.lists(st.integers(-6, 9), max_size=30),
        st.data(),
        st.sampled_from(["uint8", "int64"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_out_of_range_symbols_match_interpreted(
        self, dfa, word, data, symbol_kind
    ):
        state = data.draw(st.integers(0, dfa.num_states - 1))
        if symbol_kind == "uint8":
            word = [abs(sym) for sym in word]  # over-range only
        syms = np.asarray(word, dtype=symbol_kind)
        want = outcome(lambda: (
            dfa.run(syms, state), dfa.run_reports(syms, state)
        ))
        for absent in (False, True):
            with native_tier(absent):
                got = outcome(lambda: walk(dfa, syms, state, reports=True))
            assert got == want
