"""Unit tests for convergence set prediction (profiling + merge)."""

from collections import Counter

import numpy as np
import pytest

from repro.automata.builders import cycle_dfa, random_dfa
from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.profiling import (
    MergeResult,
    ProfilingConfig,
    covered_fraction,
    maximum_frequency_partition,
    merge_to_cutoff,
    predict_convergence_sets,
    profile_partitions,
)
from repro.regex.compile import compile_ruleset


class TestProfilingConfig:
    def test_defaults_valid(self):
        config = ProfilingConfig()
        assert config.n_inputs == 1000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProfilingConfig(n_inputs=0)
        with pytest.raises(ValueError):
            ProfilingConfig(input_len=0)
        with pytest.raises(ValueError):
            ProfilingConfig(symbol_low=10, symbol_high=5)

    def test_random_input_respects_range(self, rng):
        config = ProfilingConfig(input_len=100, symbol_low=5, symbol_high=9)
        word = config.random_input(rng, 256)
        assert word.min() >= 5 and word.max() <= 9

    def test_random_input_clipped_to_alphabet(self, rng):
        config = ProfilingConfig(input_len=50, symbol_low=0, symbol_high=255)
        word = config.random_input(rng, 4)
        assert word.max() <= 3


class TestProfilePartitions:
    def test_deterministic_given_seed(self, small_ruleset_dfa):
        config = ProfilingConfig(n_inputs=20, input_len=50, seed=7)
        c1 = profile_partitions(small_ruleset_dfa, config)
        c2 = profile_partitions(small_ruleset_dfa, config)
        assert c1 == c2

    def test_census_counts_sum_to_inputs(self, small_ruleset_dfa):
        config = ProfilingConfig(n_inputs=30, input_len=40)
        census = profile_partitions(small_ruleset_dfa, config)
        assert sum(census.values()) == 30

    def test_partitions_cover_all_states(self, small_ruleset_dfa):
        config = ProfilingConfig(n_inputs=10, input_len=40)
        census = profile_partitions(small_ruleset_dfa, config)
        for partition in census:
            assert partition.num_states == small_ruleset_dfa.num_states

    def test_permutation_dfa_yields_discrete_partition(self):
        dfa = cycle_dfa(4)
        config = ProfilingConfig(n_inputs=5, input_len=20, symbol_high=1)
        census = profile_partitions(dfa, config)
        for partition in census:
            assert partition.num_blocks == 4


class TestMfp:
    def test_mfp_is_most_common(self):
        p1 = StatePartition.trivial(3)
        p2 = StatePartition.discrete(3)
        census = Counter({p1: 7, p2: 3})
        partition, freq = maximum_frequency_partition(census)
        assert partition == p1
        assert freq == 0.7

    def test_empty_census_raises(self):
        with pytest.raises(ValueError):
            maximum_frequency_partition(Counter())


class TestCoveredFraction:
    def test_discrete_covers_everything(self):
        census = Counter(
            {
                StatePartition.trivial(3): 5,
                StatePartition([[0, 1], [2]], 3): 5,
            }
        )
        assert covered_fraction(StatePartition.discrete(3), census) == 1.0

    def test_trivial_covers_only_itself(self):
        census = Counter(
            {
                StatePartition.trivial(3): 4,
                StatePartition([[0, 1], [2]], 3): 6,
            }
        )
        assert covered_fraction(StatePartition.trivial(3), census) == 0.4


class TestMergeToCutoff:
    def _census(self):
        # three partitions of 4 states with distinct convergence structure
        a = StatePartition([[0, 1], [2, 3]], 4)
        b = StatePartition([[0, 2], [1, 3]], 4)
        c = StatePartition([[0, 1, 2, 3]], 4)
        return Counter({c: 6, a: 3, b: 1})

    def test_low_cutoff_returns_mfp(self):
        result = merge_to_cutoff(self._census(), cutoff=0.5)
        assert result.partition == StatePartition.trivial(4)
        assert result.merged_count == 0

    def test_full_merge_covers_everything(self):
        result = merge_to_cutoff(self._census(), cutoff=1.0)
        assert result.covered == 1.0
        # refining {01|23} then {02|13} gives singletons
        assert result.partition.num_blocks == 4

    def test_intermediate_cutoff_stops_early(self):
        result = merge_to_cutoff(self._census(), cutoff=0.9)
        # MFP covers 0.6; merging 'a' covers trivial+a = 0.9 -> stop
        assert result.covered >= 0.9
        assert result.partition.num_blocks == 2

    def test_max_blocks_guard(self):
        result = merge_to_cutoff(self._census(), cutoff=1.0, max_blocks=2)
        assert result.partition.num_blocks <= 2

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            merge_to_cutoff(self._census(), cutoff=0.0)
        with pytest.raises(ValueError):
            merge_to_cutoff(self._census(), cutoff=1.5)

    def test_merged_frequency_is_sum_of_covered(self):
        """The paper's claim: the refined partition's frequency is the sum
        of the frequencies of the partitions it covers."""
        census = self._census()
        result = merge_to_cutoff(census, cutoff=1.0)
        manual = sum(
            count
            for partition, count in census.items()
            if result.partition.refines(partition)
        ) / sum(census.values())
        assert result.covered == manual

    def test_num_convergence_sets_property(self):
        result = merge_to_cutoff(self._census(), cutoff=1.0)
        assert result.num_convergence_sets == result.partition.num_blocks


class TestPredictEndToEnd:
    def test_realistic_ruleset_high_coverage(self):
        dfa = compile_ruleset(["cat", "dog"])
        config = ProfilingConfig(
            n_inputs=100, input_len=80, symbol_low=97, symbol_high=122
        )
        result = predict_convergence_sets(dfa, config, cutoff=0.99)
        assert result.covered >= 0.99
        # text rulesets converge readily: few convergence sets
        assert result.num_convergence_sets <= 4

    def test_higher_cutoff_never_fewer_blocks(self, small_ruleset_dfa):
        config = ProfilingConfig(n_inputs=60, input_len=60, symbol_low=97,
                                 symbol_high=122)
        low = predict_convergence_sets(small_ruleset_dfa, config, cutoff=0.90)
        high = predict_convergence_sets(small_ruleset_dfa, config, cutoff=1.0)
        assert high.num_convergence_sets >= low.num_convergence_sets


class TestVectorizedProfiler:
    """The batched profiler is bit-identical to the interpreted loop."""

    def test_finals_match_interpreted(self, small_ruleset_dfa):
        from repro.core.profiling import profile_finals

        config = ProfilingConfig(n_inputs=25, input_len=60)
        fast = profile_finals(small_ruleset_dfa, config, vectorized=True)
        slow = profile_finals(small_ruleset_dfa, config, vectorized=False)
        assert fast.dtype == slow.dtype
        np.testing.assert_array_equal(fast, slow)

    def test_census_matches_interpreted(self, small_ruleset_dfa):
        config = ProfilingConfig(n_inputs=25, input_len=60)
        fast = profile_partitions(small_ruleset_dfa, config, vectorized=True)
        slow = profile_partitions(small_ruleset_dfa, config, vectorized=False)
        assert fast == slow

    def test_census_matches_on_permutation_machine(self):
        dfa = cycle_dfa(6)
        config = ProfilingConfig(n_inputs=12, input_len=30, symbol_high=1)
        assert (profile_partitions(dfa, config, vectorized=True)
                == profile_partitions(dfa, config, vectorized=False))

    def test_single_state_machine(self):
        dfa = Dfa(np.zeros((2, 1), dtype=np.int32), 0, [0])
        config = ProfilingConfig(n_inputs=5, input_len=10, symbol_high=1)
        assert (profile_partitions(dfa, config, vectorized=True)
                == profile_partitions(dfa, config, vectorized=False))

    def test_profile_inputs_consumes_rng_like_loop(self, small_ruleset_dfa):
        from repro.core.profiling import profile_inputs

        config = ProfilingConfig(n_inputs=7, input_len=20)
        words = profile_inputs(small_ruleset_dfa, config)
        rng = np.random.default_rng(config.seed)
        expected = [config.random_input(rng, small_ruleset_dfa.alphabet_size)
                    for _ in range(7)]
        np.testing.assert_array_equal(words, np.stack(expected))
