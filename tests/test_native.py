"""Compiled native set-flow tier: equivalence, degradation, certification.

The native tier is optional by contract: every test here must pass both
on a host where the library builds (the common case in CI, which also
runs the whole suite once with ``REPRO_NATIVE=0``) and on a
toolchain-less host where it never loads.  Tests that need the library
skip when it is absent; tests of the degradation path force it absent
via the env kill-switch and the loader reset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.automata.builders import random_dfa
from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.reexec import POLICIES, compose_and_fix
from repro.engines.base import even_boundaries
from repro.ingest import InputError, from_bytes
from repro.kernels import (
    DenseTables,
    native_available,
    resolve_backend,
    run_segments_batch,
    walk,
)
from repro.kernels.native import (
    ENV_DISABLE,
    WALK_REPORT_CAP,
    native_build_info,
    native_table_view,
    native_unavailable_reason,
    native_walk,
    native_walks,
    reset_native,
    run_segments_native,
)
from repro.software import run_segment, software_cse_scan
from tests.kernel_inputs import (
    component_partition,
    disjoint_union_dfa,
    grid_collapses,
    lane_schedule,
    native_tier,
    python_grid,
    symbols_of,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="native library not loadable here"
)


@pytest.fixture
def no_native(monkeypatch):
    """Force the native tier absent for the duration of a test."""
    monkeypatch.setenv(ENV_DISABLE, "0")
    reset_native()
    yield
    reset_native()


@pytest.fixture(params=["present", "absent"])
def tier(request, monkeypatch):
    """Run the test with the native tier as loaded, then forced absent."""
    if request.param == "absent":
        monkeypatch.setenv(ENV_DISABLE, "0")
    reset_native()
    yield request.param
    reset_native()


@pytest.fixture(autouse=True)
def _restore_loader():
    """Never leak a poisoned loader memo into other test modules."""
    yield
    reset_native()


def grids_equal(g1, g2):
    assert len(g1) == len(g2)
    for o1, o2 in zip(g1, g2):
        assert len(o1) == len(o2)
        for a, b in zip(o1, o2):
            assert a.converged == b.converged
            assert a.state == b.state
            assert np.array_equal(a.states, b.states)


class TestEquivalence:
    @needs_native
    @pytest.mark.parametrize("n_states,alphabet", [(8, 4), (64, 16), (300, 8)])
    @pytest.mark.parametrize("stride", [None, 1, 7])
    def test_matches_dense_across_dtypes_and_strides(
        self, rng, n_states, alphabet, stride
    ):
        dfa = random_dfa(n_states, alphabet, rng)
        partition = StatePartition.discrete(n_states)
        segments = [
            rng.integers(0, alphabet, size=k) for k in (0, 3, 500, 1, 250)
        ]
        want = python_grid(dfa, partition, segments)
        got, stats = run_segments_native(dfa, partition, segments,
                                         stride=stride)
        grids_equal(got, want)
        assert stats["collapses"] == grid_collapses(partition, want)
        assert stats["positions"] == 500

    @needs_native
    def test_matches_interpreter_on_coarse_partition(self, rng):
        dfa = random_dfa(40, 6, rng)
        partition = StatePartition.from_labels(
            [i % 5 for i in range(40)]
        )
        word = rng.integers(0, 6, size=2000)
        segments = [word[a:b] for a, b in even_boundaries(word.size, 6)]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        functions = run_segments_batch(
            dfa, partition, segments, backend="native"
        )
        for ref, fn in zip(reference, functions):
            assert len(ref.outcomes) == len(fn.outcomes)
            for a, b in zip(ref.outcomes, fn.outcomes):
                assert a.converged == b.converged
                assert a.state == b.state
                assert np.array_equal(a.states, b.states)

    @needs_native
    def test_scan_final_state(self, rng):
        dfa = random_dfa(64, 16, rng)
        word = rng.integers(0, 16, size=5000)
        partition = StatePartition.discrete(64)
        run = software_cse_scan(
            dfa, word, partition, n_segments=8, backend="native"
        )
        assert run.backend == "native"
        assert run.requested_backend == "native"
        assert run.final_state == dfa.run(word)

    @needs_native
    def test_refuses_foreign_tables_and_unadmitted_segments(self, rng):
        dfa = random_dfa(8, 3, rng)
        partition = StatePartition.discrete(8)
        good = np.asarray([0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="admitted input"):
            run_segments_native(dfa, partition, [good.astype(np.int32)])
        with pytest.raises(ValueError, match="dense tables of this machine"):
            run_segments_native(dfa, partition, [good],
                                tables=DenseTables(random_dfa(9, 3, rng)))
        with pytest.raises(InputError, match="symbol 3"):
            run_segments_native(dfa, partition, [np.asarray([3], np.uint8)])

    @needs_native
    def test_reuses_compiled_dense_tables(self, rng):
        from repro.compilecache import compile_dfa

        dfa = random_dfa(32, 8, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert compiled.backend == "native"
        # the artifact eagerly built the dense tables the tier consumes
        assert compiled._dense is not None
        word = rng.integers(0, 8, size=3000)
        run = software_cse_scan(
            dfa, word, compiled.partition, n_segments=8,
            backend="auto", compiled=compiled,
        )
        assert run.backend == "native"
        assert run.final_state == dfa.run(word)


def permutation_dfa(rng, n_states, alphabet, accepting=()):
    """A machine that never converges: every symbol permutes the states."""
    table = np.stack([rng.permutation(n_states) for _ in range(alphabet)])
    return Dfa(table, 0, accepting)


SCHEDULE_KEYS = (
    "native_positions", "stride_checks", "degraded_segments",
    "scalar_positions", "frontier_steps", "collapses",
)


class TestPartiallyConvergedFrontier:
    """Convergence sets that collapse to different states and never merge."""

    @needs_native
    @pytest.mark.parametrize("sizes", [(3, 5), (4, 1, 6, 2), (7, 7, 7)])
    @pytest.mark.parametrize("stride", [None, 1, 5])
    @pytest.mark.parametrize("kind", ["uint8", "int64", "view"])
    def test_union_matches_dense_and_run_all_states(
        self, rng, sizes, stride, kind
    ):
        dfa = disjoint_union_dfa(sizes, 2, rng)
        partition = component_partition(sizes)
        resets = np.arange(len(sizes))
        words = [
            rng.integers(0, dfa.alphabet_size, size=n) for n in (0, 1, 6, 700)
        ] + [np.concatenate([resets, rng.integers(
            len(sizes), dfa.alphabet_size, size=1500)])]
        segments = [symbols_of(w, kind) for w in words]
        got, stats = run_segments_native(
            dfa, partition, segments, stride=stride
        )
        want = python_grid(dfa, partition, words)
        grids_equal(got, want)
        assert stats["collapses"] == grid_collapses(partition, want)
        for word, row in zip(words, got):
            finals = dfa.run_all_states(word)
            for block, out in zip(partition.block_arrays(), row):
                states = np.unique(finals[block])
                assert out.converged == (states.size == 1)
                assert np.array_equal(out.states, states)
        # the reset-led segment settles on one state per component for good
        last = got[-1]
        assert all(o.converged for o in last)
        assert len({o.state for o in last}) == len(sizes)
        model = lane_schedule(dfa, partition, words, stride)
        assert {key: stats[key] for key in SCHEDULE_KEYS} == model

    @needs_native
    @pytest.mark.parametrize("stride", [None, 1, 3])
    def test_frontier_steps_on_a_permutation_machine(self, rng, stride):
        # nothing ever merges: every lane is gathered at every position
        dfa = permutation_dfa(rng, 30, 5)
        partition = StatePartition.from_labels([q % 4 for q in range(30)])
        words = [rng.integers(0, 5, size=n) for n in (0, 9, 800)]
        _grid, stats = run_segments_native(
            dfa, partition, words, stride=stride
        )
        assert stats["native_positions"] == 809
        assert stats["frontier_steps"] == 30 * 809
        assert stats["degraded_segments"] == 0

    @needs_native
    @pytest.mark.parametrize("sizes", [(3, 5), (4, 1, 6, 2), (2,) * 8])
    @pytest.mark.parametrize("length", [8, 9, 1000])
    def test_frontier_steps_on_a_reset_led_union(self, rng, sizes, length):
        # every lane until the first check at position 8, then one live
        # state per component
        dfa = disjoint_union_dfa(sizes, 3, rng)
        k = len(sizes)
        word = np.concatenate([
            np.arange(k), rng.integers(k, dfa.alphabet_size, size=length - k)
        ])
        _grid, stats = run_segments_native(
            dfa, component_partition(sizes), [word.astype(np.uint8)]
        )
        width = sum(sizes)
        assert stats["frontier_steps"] == width * 8 + k * (length - 8)
        assert stats["native_positions"] == length
        assert stats["collapses"] == sum(1 for n in sizes if n > 1)

    @needs_native
    def test_schedule_matches_the_lane_model_on_random_machines(self, rng):
        for n_states, labels in ((12, 1), (40, 5), (64, 64)):
            dfa = random_dfa(n_states, 6, rng)
            partition = StatePartition.from_labels(
                [q % labels for q in range(n_states)]
            )
            words = [rng.integers(0, 6, size=n) for n in (3, 64, 2000)]
            for stride in (None, 2, 64):
                _grid, stats = run_segments_native(
                    dfa, partition, words, stride=stride
                )
                model = lane_schedule(dfa, partition, words, stride)
                assert {key: stats[key] for key in SCHEDULE_KEYS} == model


def reset_led_dfa(rng, n_states, alphabet):
    """A random machine whose symbol 0 sends every state to state 0."""
    table = rng.integers(0, n_states, size=(alphabet, n_states))
    table[0] = 0
    return Dfa(table, 0, [])


class TestTailLanes:
    """Collapsed segments' tails, walked eight lanes at a time.

    Every reset-led segment of eight or more symbols collapses at the
    first collapse check (position 8) and leaves its tail to the pass;
    batches around the lane count run partial and full rounds and the
    refills between them.
    """

    def run_both(self, dfa, partition, words, kinds, table_kind=None):
        tables = DenseTables(dfa)
        if table_kind is not None:
            tables.table = dfa.transitions.astype(table_kind).ravel()
        segments = [symbols_of(w, kind) for w, kind in zip(words, kinds)]
        got, stats = run_segments_native(
            dfa, partition, segments, tables=tables
        )
        grids_equal(got, python_grid(dfa, partition, words))
        assert {key: stats[key] for key in SCHEDULE_KEYS} == lane_schedule(
            dfa, partition, words
        )
        return stats

    @needs_native
    @pytest.mark.parametrize("n_seg", [0, 1, 7, 8, 9, 17, 33])
    @pytest.mark.parametrize("table_kind", ["uint8", "uint16", "int64"])
    def test_batch_sizes_around_the_lane_count(self, rng, n_seg, table_kind):
        dfa = reset_led_dfa(rng, 24, 6)
        partition = StatePartition.from_labels([q % 3 for q in range(24)])
        words = []
        for n in rng.integers(8, 700, size=n_seg):
            word = rng.integers(0, 6, size=int(n))
            word[0] = 0
            words.append(word)
        # uint8 and int64 segments mixed in one batch
        kinds = ["uint8", "int64", "view"] * n_seg
        stats = self.run_both(dfa, partition, words, kinds, table_kind)
        assert stats["degraded_segments"] == n_seg
        assert stats["scalar_positions"] == sum(w.size - 8 for w in words)

    @needs_native
    def test_empty_segments_and_empty_tails(self, rng):
        dfa = reset_led_dfa(rng, 16, 4)
        partition = StatePartition.discrete(16)
        lengths = [0, 8, 300, 0, 8, 8, 9, 1000, 8, 0, 40, 8, 8, 8, 2, 8, 500]
        words = []
        for n in lengths:
            word = rng.integers(0, 4, size=n)
            word[:1] = 0
            words.append(word)
        kinds = ["uint8", "int64"] * len(words)
        stats = self.run_both(dfa, partition, words, kinds)
        # every segment of eight symbols collapsed on its last position
        # and left an empty tail; shorter ones never reached a check
        assert stats["degraded_segments"] == sum(n >= 8 for n in lengths)
        assert stats["scalar_positions"] == sum(
            n - 8 for n in lengths if n >= 8
        )


class TestWalk:
    @pytest.mark.parametrize("table_kind", ["uint8", "uint16", "int64"])
    @pytest.mark.parametrize("symbol_kind", ["uint8", "int64", "view"])
    @pytest.mark.parametrize("n_reports", [
        0, WALK_REPORT_CAP - 1, WALK_REPORT_CAP, WALK_REPORT_CAP + 1,
        2 * WALK_REPORT_CAP + 3,
    ])
    def test_report_buffer_pause_and_resume(
        self, rng, tier, table_kind, symbol_kind, n_reports
    ):
        # every state accepting: one report per symbol, so the input
        # length puts the report count at, below and past the cap
        dfa = random_dfa(40, 7, rng)
        dfa = Dfa(dfa.transitions, 3, range(40))
        word = rng.integers(0, 7, size=n_reports)
        tables = DenseTables(dfa)
        tables.table = dfa.transitions.astype(table_kind).ravel()
        if symbol_kind == "int64":
            syms = word.astype(np.int64)
        else:
            syms = word.astype(np.uint8)
            if symbol_kind == "view":
                syms = from_bytes(syms.tobytes())
        final, reports = walk(dfa, syms, 5, tables=tables, reports=True)
        assert len(reports) == n_reports
        assert reports == dfa.run_reports(word, 5)
        assert final == dfa.run(word, 5)

    def test_sparse_reports_on_a_ruleset(self, tier):
        from repro.regex.compile import compile_ruleset

        dfa = compile_ruleset(["cat", "dog", "fi(sh|ne)"])
        data = b"the cat chased a fish; a fine dog " * 400
        assert walk(dfa, data, reports=True) == (
            dfa.run(data), dfa.run_reports(data)
        )

    def test_start_state_outside_machine_raises(self, rng, tier):
        dfa = random_dfa(8, 3, rng)
        word = np.asarray([1, 2, 0])
        for state in (8, -1):
            for w in (word, []):
                with pytest.raises(InputError, match="start state"):
                    dfa.run(w, state)
                with pytest.raises(InputError, match="start state"):
                    walk(dfa, w, state)

    def test_native_walk_absent_returns_none(self, rng, no_native):
        dfa = random_dfa(8, 3, rng)
        assert native_walk(dfa, np.asarray([0, 1]), 0) is None

    @needs_native
    def test_native_walk_declines_out_of_range(self, rng):
        # called directly, past walk's admission: the C walk's range
        # checks refuse, and the contract's error is what surfaces
        dfa = random_dfa(8, 3, rng)
        for syms, state in (([0, 3], 0), ([-1], 0), ([2, 1], 8),
                            ([2, 1], -1)):
            with pytest.raises(InputError):
                native_walk(dfa, np.asarray(syms), state)
        assert native_walk(dfa, np.asarray([2, 1]), 0) == (
            dfa.run([2, 1], 0), []
        )


@needs_native
class TestWalks:
    """``native_walks``: many spans, each from its own start state, walked
    as the tail pass's interleaved lanes."""

    @pytest.mark.parametrize("n_lanes", [1, 8, 9, 17])
    @pytest.mark.parametrize("table_kind", ["uint8", "uint16", "int64"])
    def test_every_span_ends_where_run_does(self, rng, n_lanes, table_kind):
        dfa = random_dfa(40, 7, rng)
        tables = DenseTables(dfa)
        tables.table = dfa.transitions.astype(table_kind).ravel()
        lengths = rng.integers(0, 300, size=n_lanes)
        lengths[::4] = 0  # an empty span every fourth lane
        words = [rng.integers(0, 7, size=int(n)) for n in lengths]
        # uint8 and int64 spans mixed in one call
        spans = [w.astype((np.uint8, np.int64)[i % 2])
                 for i, w in enumerate(words)]
        starts = rng.integers(0, 40, size=n_lanes).tolist()
        ends = native_walks(dfa, spans, starts, tables=tables)
        assert ends.dtype == np.int64
        assert ends.tolist() == [dfa.run(w, q) for w, q in zip(words, starts)]
        # an empty span ends where it starts
        assert ends[0] == starts[0]

    def test_uint16_tables_of_a_wide_machine(self, rng):
        dfa = random_dfa(1024, 8, rng)
        assert DenseTables(dfa).table.dtype == np.uint16
        words = [rng.integers(0, 8, size=n) for n in (5000, 0, 1, 777) * 3]
        spans = [w.astype(np.uint8) if i % 2 else w
                 for i, w in enumerate(words)]
        starts = rng.integers(0, 1024, size=len(words)).tolist()
        assert native_walks(dfa, spans, starts).tolist() == [
            dfa.run(w, q) for w, q in zip(words, starts)]

    def test_no_spans(self, rng):
        dfa = random_dfa(8, 3, rng)
        assert native_walks(dfa, [], []).tolist() == []

    def test_refusals(self, rng):
        dfa = random_dfa(8, 3, rng)
        good = np.asarray([0, 1, 2], dtype=np.int64)
        with pytest.raises(InputError, match="symbol 3 at position 1"):
            native_walks(dfa, [good, np.asarray([2, 3], np.int64)], [0, 0])
        with pytest.raises(InputError):
            native_walks(dfa, [np.asarray([-1], np.int64)], [0])
        with pytest.raises(InputError, match="symbol 3"):
            native_walks(dfa, [np.asarray([3], np.uint8)], [0])
        for state in (8, -1):
            with pytest.raises(InputError, match="start state"):
                native_walks(dfa, [good, good], [0, state])
        with pytest.raises(ValueError, match="start states"):
            native_walks(dfa, [good, good], [0])
        with pytest.raises(ValueError, match="admitted input"):
            native_walks(dfa, [good.astype(np.int32)], [0])


class TestReexecution:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("machine", ["permutation", "coarse"])
    def test_compiled_walk_reexecutes_like_dfa_run(
        self, rng, tier, policy, machine
    ):
        if machine == "permutation":
            # one set of all states never collapses: every segment
            # diverges and composition must re-execute
            dfa = permutation_dfa(rng, 24, 6)
            partition = StatePartition.trivial(24)
        else:
            dfa = random_dfa(40, 6, rng)
            partition = StatePartition.from_labels([i % 4 for i in range(40)])
        word = rng.integers(0, 6, size=3000)
        bounds = even_boundaries(word.size, 6)
        functions = run_segments_batch(
            dfa, partition, [word[a:b] for a, b in bounds[1:]],
            backend="native",
        )
        first = dfa.run(word[:bounds[0][1]])
        want, want_stats = compose_and_fix(
            dfa, word, bounds[1:], functions, first, policy=policy
        )
        got, got_stats = compose_and_fix(
            dfa, word, bounds[1:], functions, first, policy=policy,
            walk=lambda seg, state: walk(dfa, seg, state)[0],
        )
        if machine == "permutation":
            assert want_stats.reexecuted_segments
        assert got == want == dfa.run(word)
        assert got_stats.reexecuted_segments == want_stats.reexecuted_segments
        assert got_stats.reeval_passes == want_stats.reeval_passes

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_scan_reexecutes_on_the_walk(self, rng, tier, backend):
        dfa = permutation_dfa(rng, 24, 6)
        word = rng.integers(0, 6, size=3000).astype(np.uint8)
        run = software_cse_scan(
            dfa, word, StatePartition.trivial(24), n_segments=6,
            backend=backend,
        )
        assert run.reexec_segments == 5
        assert run.final_state == dfa.run(word)


class TestDegradation:
    def test_resolve_degrades_with_reason(self, rng, no_native):
        dfa = random_dfa(64, 8, rng)
        partition = StatePartition.discrete(64)
        with obs.using() as registry:
            assert resolve_backend(dfa, "native") == "python"
        counter = registry.get(
            "kernels_backend_resolved_total",
            requested="native", backend="python", reason="native-unavailable",
        )
        assert counter is not None and counter.value == 1

    def test_auto_never_picks_native_when_absent(self, rng, no_native):
        dfa = random_dfa(64, 8, rng)
        with obs.using() as registry:
            assert resolve_backend(dfa, None) == "python"
        counter = registry.get(
            "kernels_backend_resolved_total",
            requested="auto", backend="python", reason="native-unavailable",
        )
        assert counter is not None and counter.value == 1

    def test_unavailable_reason_is_reported(self, no_native):
        assert not native_available()
        reason = native_unavailable_reason()
        assert reason is not None and ENV_DISABLE in reason

    def test_batch_falls_back_bit_identically(self, rng, no_native):
        dfa = random_dfa(16, 4, rng)
        partition = StatePartition.discrete(16)
        segments = [rng.integers(0, 4, size=200) for _ in range(4)]
        with obs.using() as registry:
            got = run_segments_batch(
                dfa, partition, segments, backend="native"
            )
        grids_equal(python_grid(dfa, partition, segments),
                    [fn.outcomes for fn in got])
        for segment, fn in zip(segments, got):
            finals = dfa.run_all_states(segment)
            for block, out in zip(partition.block_arrays(), fn.outcomes):
                assert np.array_equal(out.states, np.unique(finals[block]))
        fallbacks = registry.get("kernels_native_fallbacks_total")
        assert fallbacks is not None and fallbacks.value == 1
        # the work ran (and was recorded) as the interpreted loop
        assert registry.get("kernels_positions_total", backend="python")

    def test_absent_tier_runs_every_frontier_interpreted(self, rng):
        """With the tier absent, an explicit ``native`` batch and the
        prefilter's unproven segments both run the interpreted loop, and
        each set's outcome is its states' images under
        :meth:`Dfa.run_all_states`."""
        from repro.kernels import certify_prefilter
        from repro.regex.compile import compile_ruleset

        def assert_images(dfa, partition, segments, functions):
            for segment, fn in zip(segments, functions):
                finals = dfa.run_all_states(segment)
                for block, out in zip(partition.block_arrays(),
                                      fn.outcomes):
                    want = np.unique(finals[block])
                    assert out.converged == (want.size == 1)
                    assert np.array_equal(out.states, want)

        machine = random_dfa(24, 4, rng)
        partition = StatePartition.from_labels([q % 5 for q in range(24)])
        segments = [rng.integers(0, 4, size=n) for n in (0, 1, 9, 300)]
        literal = compile_ruleset(["cat", "dog"])
        lit_partition = StatePartition.discrete(literal.num_states)
        # anchors only: no run of non-anchor symbols proves a reset
        unproven = [np.frombuffer(text, dtype=np.uint8)
                    for text in (b"catdogcat", b"dodo", b"ca")]
        with native_tier(absent=True), obs.using() as registry:
            assert resolve_backend(machine, "native") == "python"
            got = run_segments_batch(machine, partition, segments, "native")
            assert_images(machine, partition, segments, got)
            assert certify_prefilter(literal) is not None
            got = run_segments_batch(literal, lit_partition, unproven,
                                     "prefilter")
            assert_images(literal, lit_partition, unproven, got)
        unavailable = registry.get(
            "kernels_backend_resolved_total",
            requested="native", backend="python", reason="native-unavailable",
        )
        assert unavailable is not None and unavailable.value == 1
        assert registry.get(
            "kernels_prefilter_fallback_segments_total").value == 3

    def test_scan_explicit_native_degrades(self, rng, no_native):
        dfa = random_dfa(32, 8, rng)
        word = rng.integers(0, 8, size=2000)
        partition = StatePartition.discrete(32)
        run = software_cse_scan(
            dfa, word, partition, n_segments=4, backend="native"
        )
        assert run.backend == "python"
        assert run.requested_backend == "native"
        assert run.final_state == dfa.run(word)

    def test_cli_smoke_exits_zero_without_toolchain(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(ENV_DISABLE, "0")
        reset_native()
        rules = tmp_path / "rules.txt"
        rules.write_text("cat\ndog\n")
        data = tmp_path / "input.bin"
        data.write_bytes(b"the cat sat on the dog " * 50)
        code = main([
            "software", str(rules), str(data),
            "--backend", "native", "--segments", "4", "--trivial",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend:" in out

    def test_build_info_reports_absence(self, no_native):
        info = native_build_info()
        assert info["available"] is False
        assert ENV_DISABLE in str(info["reason"])

    @needs_native
    def test_stale_abi_library_is_refused(self, tmp_path, monkeypatch):
        import subprocess

        import repro.kernels.native as native

        cc = native._compiler()
        if cc is None:
            pytest.skip("no C compiler to build a stale library with")
        # a library built before the tail pass still exports ABI 4
        stale_src = tmp_path / "stale.c"
        stale_src.write_text(
            "#include <stdint.h>\n"
            "int64_t cse_native_abi(void) { return 4; }\n"
        )
        stale = tmp_path / "_native_cse-stale.so"
        subprocess.run(
            [*cc.split(), *native.CFLAGS, "-o", str(stale),
             str(stale_src)],
            check=True, capture_output=True,
        )
        lib, reason = native._try_load(stale)
        assert lib is None
        assert reason == f"{stale.name} has ABI 4, expected {native.NATIVE_ABI}"
        # and the build cache never offers it: its key moves with the ABI
        digest = native.source_digest()
        monkeypatch.setattr(native, "NATIVE_ABI", 4)
        assert native.source_digest() != digest


class TestCertification:
    @needs_native
    def test_table_view_bit_identical(self, rng):
        for n_states in (10, 300):
            dfa = random_dfa(n_states, 5, rng)
            tables = DenseTables(dfa)
            view = native_table_view(tables)
            assert view.dtype == np.int64
            assert np.array_equal(
                view, dfa.transitions.astype(np.int64).ravel()
            )

    @needs_native
    def test_verify_native_clean(self, rng):
        from repro.check import verify_native

        dfa = random_dfa(24, 6, rng)
        assert verify_native(dfa) == []

    @needs_native
    def test_verify_native_flags_tampered_tables(self, rng):
        from repro.check import verify_native

        dfa = random_dfa(24, 6, rng)
        tables = DenseTables(dfa)
        tampered = tables.table.copy()
        tampered[3] = (int(tampered[3]) + 1) % dfa.num_states
        tables.table = tampered
        diags = verify_native(dfa, dense=tables)
        assert any(d.code == "K114" for d in diags)

    @needs_native
    def test_verify_compiled_includes_native(self, rng):
        from repro.check import verify_compiled
        from repro.compilecache import compile_dfa

        dfa = random_dfa(16, 4, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert verify_compiled(compiled) == []

    def test_native_to_python_not_a_k106_contradiction(self, rng, no_native):
        from repro.check import verify_compiled
        from repro.compilecache import compile_dfa

        dfa = random_dfa(16, 4, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert compiled.requested_backend == "native"
        assert compiled.backend == "python"
        assert not [
            d for d in verify_compiled(compiled) if d.code == "K106"
        ]

    @needs_native
    def test_verify_native_flags_tampered_walk_table(self, rng, monkeypatch):
        import repro.kernels.native as native
        from repro.check import verify_native

        dfa = random_dfa(24, 6, rng)
        dfa = Dfa(dfa.transitions, 0, range(0, 24, 2))
        honest = native.native_walk

        def tampered(dfa_, syms, state, tables=None, **kwargs):
            # the walk reads shifted transitions; the view stays honest
            bad = DenseTables(dfa_)
            bad.table = bad.table.copy()
            bad.table[:] = (bad.table.astype(np.int64) + 1) % 24
            return honest(dfa_, syms, state, tables=bad, **kwargs)

        monkeypatch.setattr(native, "native_walk", tampered)
        diags = verify_native(dfa)
        assert [d.code for d in diags] == ["K116"]
        assert verify_native(dfa, deep=False) == []

    @needs_native
    def test_verify_native_flags_tampered_slot_remap(self, rng, monkeypatch):
        import repro.kernels.native as native
        from repro.check import verify_native

        dfa = disjoint_union_dfa((5, 6, 4), 2, rng)
        partition = component_partition((5, 6, 4))
        assert verify_native(dfa, partition=partition) == []
        honest = native._frontier_scratch

        def tampered(width, n_states):
            # a stamp array that is not all -1 sends every state of the
            # first collapse check to slot 0: the lanes' slot remap lies
            lanes, stamp = honest(width, n_states)
            stamp[:] = 0
            return lanes, stamp

        monkeypatch.setattr(native, "_frontier_scratch", tampered)
        # one-position replays (K115) never reach a collapse check
        diags = verify_native(dfa, partition=partition)
        assert [d.code for d in diags] == ["K117"]
        assert verify_native(dfa, deep=False) == []

    def test_verify_native_silent_when_absent(self, rng, no_native):
        from repro.check import verify_native

        dfa = random_dfa(16, 4, rng)
        assert verify_native(dfa) == []


class TestObservability:
    @needs_native
    def test_native_counters_recorded(self, rng):
        dfa = random_dfa(32, 8, rng)
        partition = StatePartition.discrete(32)
        segments = [rng.integers(0, 8, size=500) for _ in range(4)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
        assert registry.get(
            "kernels_positions_total", backend="native"
        ).value == 500
        positions = registry.get("kernels_native_positions_total").value
        steps = registry.get("kernels_native_frontier_steps_total").value
        assert positions > 0
        assert registry.get("kernels_native_stride_checks_total").value > 0
        # at least one live state per gathered position, at most a lane
        assert positions <= steps <= 32 * positions
        # a machine that never merges gathers every lane at every position
        perm = permutation_dfa(rng, 20, 4)
        with obs.using() as registry:
            run_segments_batch(
                perm, StatePartition.trivial(20),
                [rng.integers(0, 4, size=300) for _ in range(3)],
                backend="native",
            )
        assert registry.get("kernels_native_positions_total").value == 900
        assert registry.get(
            "kernels_native_frontier_steps_total").value == 20 * 900

    @needs_native
    def test_top_renders_native_row(self, rng):
        from repro.obs.live.top import render_top

        dfa = random_dfa(32, 8, rng)
        partition = StatePartition.discrete(32)
        segments = [rng.integers(0, 8, size=500) for _ in range(4)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
            snapshot = registry.snapshot()
        text = render_top(None, snapshot, 1.0)
        assert "native" in text
        assert "unknown" not in text

    def test_top_renders_fallbacks(self, rng, no_native):
        from repro.obs.live.top import render_top

        dfa = random_dfa(16, 4, rng)
        partition = StatePartition.discrete(16)
        segments = [rng.integers(0, 4, size=100) for _ in range(2)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
            snapshot = registry.snapshot()
        text = render_top(None, snapshot, 1.0)
        assert "fallbacks 1" in text


class TestEnvInfo:
    def test_bench_provenance_keys(self):
        import pathlib
        import sys

        sys.path.insert(
            0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks")
        )
        from env_info import env_info

        info = env_info()
        assert "native" in info
        assert "simd_flags" in info
        assert isinstance(info["simd_flags"], list)
        native = info["native"]
        assert "available" in native
        assert "compiler" in native
        if native["available"]:
            assert native["library"]
            assert native["compiler_version"]
