"""Unit tests for the vectorized software kernels (repro.kernels)."""

import numpy as np
import pytest

from repro.automata.builders import cycle_dfa, random_dfa
from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries, stack_segments
from repro.kernels import (
    BACKENDS,
    KERNEL_BACKENDS,
    resolve_backend,
    run_segments_batch,
)
from repro.software import (
    dfa_fingerprint,
    run_segment,
    segment_pool,
    software_cse_scan,
)


def assert_functions_equal(a, b):
    """Bit-identical SegmentFunction comparison."""
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.converged == ob.converged
        assert oa.state == ob.state
        assert oa.states.dtype == np.int64
        assert ob.states.dtype == np.int64
        assert np.array_equal(oa.states, ob.states)
    assert np.array_equal(a.cs_of_state, b.cs_of_state)


def check_backends_match_python(dfa, partition, segments):
    reference = [run_segment(dfa, partition, s)[0] for s in segments]
    for backend in KERNEL_BACKENDS:
        functions = run_segments_batch(dfa, partition, segments, backend=backend)
        assert len(functions) == len(reference)
        for ref, fn in zip(reference, functions):
            assert_functions_equal(ref, fn)


class TestBatchEquivalence:
    def test_trivial_partition(self, small_ruleset_dfa, rng):
        segments = [rng.integers(97, 123, size=n) for n in (80, 80, 79, 79)]
        partition = StatePartition.trivial(small_ruleset_dfa.num_states)
        check_backends_match_python(small_ruleset_dfa, partition, segments)

    def test_discrete_partition(self, random_dfa_8, rng):
        segments = [rng.integers(0, 4, size=25) for _ in range(5)]
        check_backends_match_python(
            random_dfa_8, StatePartition.discrete(8), segments
        )

    def test_mixed_partition(self, random_dfa_8, rng):
        segments = [rng.integers(0, 4, size=30) for _ in range(4)]
        partition = StatePartition.from_labels([0, 0, 1, 2, 2, 2, 3, 3])
        check_backends_match_python(random_dfa_8, partition, segments)

    def test_permutation_never_converges(self, rng):
        dfa = cycle_dfa(7)
        segments = [rng.integers(0, 2, size=40) for _ in range(3)]
        partition = StatePartition.trivial(7)
        functions = run_segments_batch(dfa, partition, segments, "dense")
        assert all(not fn.outcomes[0].converged for fn in functions)
        check_backends_match_python(dfa, partition, segments)

    def test_empty_segment(self, random_dfa_8, rng):
        segments = [np.empty(0, dtype=np.int64), rng.integers(0, 4, size=9)]
        partition = StatePartition.from_labels([0, 0, 1, 1, 2, 2, 3, 3])
        check_backends_match_python(random_dfa_8, partition, segments)

    def test_single_state_dfa(self, rng):
        dfa = Dfa(np.zeros((3, 1), dtype=np.int32), 0, [0])
        segments = [rng.integers(0, 3, size=12)]
        check_backends_match_python(dfa, StatePartition.trivial(1), segments)

    def test_all_dead_sink_segment(self):
        # symbol 1 sends every state to the absorbing sink 2
        table = np.array([[1, 2, 2], [2, 2, 2]], dtype=np.int32)
        dfa = Dfa(table, 0, [1])
        segments = [np.array([1, 1, 1, 1])]
        partition = StatePartition.trivial(3)
        check_backends_match_python(dfa, partition, segments)
        functions = run_segments_batch(dfa, partition, segments, "native")
        assert functions[0].outcomes[0].converged
        assert functions[0].outcomes[0].state == 2

    def test_no_segments(self, random_dfa_8):
        partition = StatePartition.trivial(8)
        assert run_segments_batch(random_dfa_8, partition, [], "dense") == []

    def test_rejects_python_backend(self, random_dfa_8):
        with pytest.raises(ValueError):
            run_segments_batch(
                random_dfa_8, StatePartition.trivial(8), [np.array([0])], "python"
            )


class TestDenseKernel:
    def test_state_dtype_narrowing(self):
        from repro.kernels import dense_state_dtype

        assert dense_state_dtype(2) == np.uint8
        assert dense_state_dtype(256) == np.uint8
        assert dense_state_dtype(257) == np.uint16
        assert dense_state_dtype(1 << 16) == np.uint16
        assert dense_state_dtype((1 << 16) + 1) == np.int64

    def test_tables_narrow_and_roundtrip(self, random_dfa_8):
        from repro.kernels import DenseTables

        tables = DenseTables(random_dfa_8)
        assert tables.dtype == np.uint8
        assert tables.table.dtype == np.uint8
        assert np.array_equal(
            tables.table.astype(np.int64),
            random_dfa_8.transitions.astype(np.int64).ravel(),
        )
        assert tables.offsets.dtype == np.int64
        assert tables.nbytes == tables.table.nbytes + tables.offsets.nbytes

    @pytest.mark.parametrize("stride", [1, 7, 64, None])
    def test_stride_never_changes_outcomes(self, random_dfa_8, rng, stride):
        segments = [rng.integers(0, 4, size=n) for n in (90, 41, 7, 0)]
        partition = StatePartition.from_labels([0, 0, 1, 2, 2, 2, 3, 3])
        reference = [run_segment(random_dfa_8, partition, s)[0]
                     for s in segments]
        functions = run_segments_batch(
            random_dfa_8, partition, segments, backend="dense", stride=stride
        )
        for ref, fn in zip(reference, functions):
            assert_functions_equal(ref, fn)

    def test_invalid_stride_rejected(self, random_dfa_8):
        from repro.kernels.dense import run_segments_dense

        with pytest.raises(ValueError):
            run_segments_dense(
                random_dfa_8, StatePartition.trivial(8),
                [np.array([0])], stride=0,
            )

    def test_uniform_segment_degrades(self):
        # symbol 1 is absorbing: the whole frontier collapses to the sink,
        # after which the segment leaves the dense gather
        from repro.kernels.dense import run_segments_dense

        table = np.array([[1, 2, 0], [2, 2, 2]], dtype=np.int32)
        dfa = Dfa(table, 0, [1])
        partition = StatePartition.from_labels([0, 0, 1])
        segment = np.array([1] + [0] * 200, dtype=np.int64)
        grid, stats = run_segments_dense(
            dfa, partition, [segment], stride=1
        )
        assert stats["degraded_segments"] == 1
        assert stats["dense_positions"] < segment.size
        assert all(o.converged for o in grid[0])
        want, _ = run_segment(dfa, partition, segment)
        for got, ref in zip(grid[0], want.outcomes):
            assert got.state == ref.state
            assert np.array_equal(got.states, ref.states)

    def test_adaptive_stride_checks_less_than_every_position(self, rng):
        from repro.kernels.dense import run_segments_dense

        dfa = cycle_dfa(7)  # permutation: never converges, stride grows
        segments = [rng.integers(0, 2, size=4000)]
        _, stats = run_segments_dense(
            dfa, StatePartition.trivial(7), segments
        )
        assert stats["stride_checks"] < stats["positions"] // 8


class TestStackSegments:
    def test_ragged_padding(self):
        matrix, lengths = stack_segments(
            [np.array([1, 2, 3]), np.array([4, 5]), np.array([], dtype=np.int64)]
        )
        assert matrix.shape == (3, 3)
        assert lengths.tolist() == [3, 2, 0]
        assert matrix[0].tolist() == [1, 2, 3]
        assert matrix[1].tolist() == [4, 5, 0]

    def test_empty(self):
        matrix, lengths = stack_segments([])
        assert matrix.shape == (0, 0)
        assert lengths.size == 0


class TestResolveBackend:
    def test_explicit_passthrough(self, random_dfa_8):
        from repro.kernels import native_available

        for backend in BACKENDS:
            expected = backend
            if backend == "native" and not native_available():
                # the compiled tier is optional: an explicit request on a
                # toolchain-less host degrades to the dense kernel
                expected = "dense"
            assert resolve_backend(random_dfa_8, backend) == expected

    def test_unknown_rejected(self, random_dfa_8):
        with pytest.raises(ValueError):
            resolve_backend(random_dfa_8, "simd")

    @pytest.mark.parametrize("backend", ["lockstep", "bitset"])
    def test_retired_backends_rejected(self, random_dfa_8, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(random_dfa_8, backend)
        with pytest.raises(ValueError):
            run_segments_batch(random_dfa_8, StatePartition.trivial(8),
                               [np.array([0])], backend)

    def test_trivial_partition_resolves_interpreted(self, rng):
        # regression pinned by BENCH_software_kernels.json: random64 with
        # the trivial partition ran a batched kernel at 0.33x vs the
        # interpreter.  One block gives the kernels nothing to batch, so
        # trivial (and absent) partitions must resolve to "python".
        dfa = random_dfa(64, 8, rng)
        trivial = StatePartition.trivial(64)
        assert resolve_backend(dfa, None, trivial, 16) == "python"
        assert resolve_backend(dfa, "auto", trivial, 16) == "python"
        assert resolve_backend(dfa, "auto", None, 16) == "python"

    def test_wide_sets_pick_dense_below_crossover(self, rng):
        from repro.kernels import native_available

        dfa = random_dfa(64, 8, rng)
        partition = StatePartition.from_labels([i % 2 for i in range(64)])
        expected = "native" if native_available() else "dense"
        assert resolve_backend(dfa, None, partition, 16) == expected

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_large_machines_resolve_to_native(self, rng, n):
        """No state-count cap: wide machines take native/dense at uint16."""
        from repro.kernels import DenseTables, native_available

        dfa = random_dfa(n, 4, rng)
        partition = StatePartition.from_labels([i % 2 for i in range(n)])
        expected = "native" if native_available() else "dense"
        assert resolve_backend(dfa, None, partition, 16) == expected
        # a permutation keeps all n flows alive, so every position
        # gathers the full uint16 frontier
        wide = cycle_dfa(n, 4)
        for machine in (dfa, wide):
            assert DenseTables(machine).dtype == np.uint16
            segments = [rng.integers(0, 4, size=m) for m in (60, 59, 0)]
            reference = [run_segment(machine, partition, s)[0]
                         for s in segments]
            for backend in ("dense", "native"):
                functions = run_segments_batch(
                    machine, partition, segments, backend=backend
                )
                for segment, ref, fn in zip(segments, reference, functions):
                    assert_functions_equal(ref, fn)
                    finals = machine.run_all_states(segment)
                    for block, outcome in zip(partition.block_arrays(),
                                              fn.outcomes):
                        assert np.array_equal(outcome.states,
                                              np.unique(finals[block]))

    def test_many_flows_pick_dense(self, rng):
        from repro.kernels import native_available

        dfa = random_dfa(16, 4, rng)
        partition = StatePartition.discrete(16)
        expected = "native" if native_available() else "dense"
        assert resolve_backend(dfa, None, partition, 16) == expected

    def test_tiny_workload_stays_python(self, random_dfa_8):
        partition = StatePartition.from_labels([0, 0, 1, 1, 2, 2, 3, 3])
        assert resolve_backend(random_dfa_8, None, partition, 2) == "python"


class TestDtypeUnification:
    def test_block_arrays_int64(self):
        partition = StatePartition.from_labels([0, 1, 0, 1])
        assert all(b.dtype == np.int64 for b in partition.block_arrays())

    def test_python_run_segment_int64(self, random_dfa_8, rng):
        segment = rng.integers(0, 4, size=10)
        fn, _ = run_segment(random_dfa_8, StatePartition.trivial(8), segment)
        assert all(o.states.dtype == np.int64 for o in fn.outcomes)

    def test_execute_segment_int64(self, random_dfa_8, rng):
        from repro.core.transition import execute_segment

        fn, _ = execute_segment(
            random_dfa_8, StatePartition.trivial(8), rng.integers(0, 4, size=10)
        )
        assert all(o.states.dtype == np.int64 for o in fn.outcomes)

    def test_pool_keys_comparable_across_producers(self, random_dfa_8, rng):
        """software and core producers emit byte-identical flow keys."""
        from repro.core.transition import execute_segment

        segment = rng.integers(0, 4, size=10)
        partition = StatePartition.trivial(8)
        sw, _ = run_segment(random_dfa_8, partition, segment)
        core, _ = execute_segment(random_dfa_8, partition, segment)
        assert sw.outcomes[0].states.tobytes() == core.outcomes[0].states.tobytes()


class TestScanBackends:
    def test_final_state_all_backends(self, small_ruleset_dfa, rng):
        word = rng.integers(97, 123, size=6_000)
        partition = StatePartition.trivial(small_ruleset_dfa.num_states)
        want = small_ruleset_dfa.run(word)
        for backend in BACKENDS + ("auto",):
            run = software_cse_scan(
                small_ruleset_dfa, word, partition, n_segments=8, backend=backend
            )
            assert run.final_state == want
            assert run.backend in BACKENDS

    def test_start_state(self, small_ruleset_dfa, rng):
        word = rng.integers(97, 123, size=3_000)
        partition = StatePartition.trivial(small_ruleset_dfa.num_states)
        run = software_cse_scan(
            small_ruleset_dfa, word, partition,
            n_segments=4, backend="dense", start_state=2,
        )
        assert run.final_state == small_ruleset_dfa.run(word, state=2)

    def test_verify_false_skips_oracle(self, small_ruleset_dfa, rng):
        word = rng.integers(97, 123, size=3_000)
        partition = StatePartition.trivial(small_ruleset_dfa.num_states)
        run = software_cse_scan(
            small_ruleset_dfa, word, partition,
            n_segments=4, backend="dense", verify=False,
        )
        assert run.sequential_seconds == 0.0
        assert run.final_state == small_ruleset_dfa.run(word)


class CountingDfa(Dfa):
    """Counts how many times the DFA itself crosses a pickle boundary."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return (
            Dfa,
            (np.asarray(self.transitions), self.start, tuple(self.accepting)),
        )


class TestSegmentPool:
    def test_fingerprint_stable(self, random_dfa_8):
        clone = Dfa(
            np.asarray(random_dfa_8.transitions),
            random_dfa_8.start,
            random_dfa_8.accepting,
        )
        assert dfa_fingerprint(random_dfa_8) == dfa_fingerprint(clone)

    def test_pool_does_not_pickle_dfa_per_segment(self, rng):
        table = rng.integers(0, 6, size=(4, 6)).astype(np.int32)
        dfa = CountingDfa(table, 0, [1])
        word = rng.integers(0, 4, size=4_000)
        partition = StatePartition.trivial(6)
        CountingDfa.pickles = 0
        with segment_pool(dfa, 2) as executor:
            run = software_cse_scan(
                dfa, word, partition, n_segments=6, executor=executor
            )
        assert run.final_state == dfa.run(word)
        assert CountingDfa.pickles == 0

    def test_foreign_executor_still_works(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        table = rng.integers(0, 6, size=(4, 6)).astype(np.int32)
        dfa = Dfa(table, 0, [1])
        word = rng.integers(0, 4, size=2_000)
        with ThreadPoolExecutor(2) as executor:
            run = software_cse_scan(
                dfa, word, StatePartition.trivial(6),
                n_segments=4, executor=executor, backend="dense",
            )
        assert run.final_state == dfa.run(word)

    def test_pool_with_kernel_backend(self, rng):
        table = rng.integers(0, 6, size=(4, 6)).astype(np.int32)
        dfa = Dfa(table, 0, [1])
        word = rng.integers(0, 4, size=3_000)
        with segment_pool(dfa, 2) as executor:
            run = software_cse_scan(
                dfa, word, StatePartition.trivial(6),
                n_segments=4, executor=executor, backend="native",
            )
        assert run.final_state == dfa.run(word)


class TestKernelSpeed:
    @pytest.mark.slow
    def test_dense_beats_python_on_enumerative_load(self, rng):
        """A miniature version of the BENCH acceptance configuration."""
        import time

        dfa = random_dfa(64, 16, rng)
        word = rng.integers(0, 16, size=200_000)
        bounds = even_boundaries(word.size, 16)[1:]
        segments = [word[a:b] for a, b in bounds]
        partition = StatePartition.discrete(64)
        begin = time.perf_counter()
        for segment in segments:
            run_segment(dfa, partition, segment)
        python_seconds = time.perf_counter() - begin
        begin = time.perf_counter()
        run_segments_batch(dfa, partition, segments, "dense")
        kernel_seconds = time.perf_counter() - begin
        assert kernel_seconds * 2 < python_seconds
