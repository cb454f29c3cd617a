"""Unit tests for byte classes (symbol classes)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.alphabet import symbol_classes
from repro.automata.dfa import Dfa
from repro.ingest import admit


def compress(dfa: Dfa):
    """The class-compressed machine of ``dfa`` and its byte-to-class map.

    One column per class of :func:`symbol_classes`, taken from the
    class's first symbol; a raw input runs on it once translated through
    the map.
    """
    classes = symbol_classes(dfa)
    _, firsts = np.unique(classes, return_index=True)
    return Dfa(dfa.transitions[firsts], dfa.start, dfa.accepting), classes


def translate(classes: np.ndarray, symbols) -> np.ndarray:
    """Map a raw input onto class symbols (input admitted first)."""
    return classes[admit(symbols, classes.size)]


class TestSymbolClasses:
    def test_identical_columns_share_class(self):
        # symbols 0 and 2 behave identically
        table = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.int32)
        classes = symbol_classes(Dfa(table, 0, []))
        assert classes[0] == classes[2]
        assert classes[0] != classes[1]

    def test_first_appearance_numbering(self):
        table = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.int32)
        classes = symbol_classes(Dfa(table, 0, []))
        assert classes[0] == 0  # first symbol gets class 0
        assert classes[1] == 1

    def test_all_distinct(self, mod3_dfa):
        classes = symbol_classes(mod3_dfa)
        assert len(set(classes.tolist())) == 2

    def test_text_ruleset_compresses_well(self, small_ruleset_dfa):
        classes = symbol_classes(small_ruleset_dfa)
        n_classes = len(set(classes.tolist()))
        # 256 bytes but only the pattern letters matter
        assert n_classes < 30


class TestCompressedDfa:
    """The class-compressed machine built from :func:`symbol_classes`."""

    def test_equivalent_on_text(self, small_ruleset_dfa):
        small, classes = compress(small_ruleset_dfa)
        raw = b"the cat sat on a hot dog in gray fog"
        text = translate(classes, raw)
        assert small.run(text) == small_ruleset_dfa.run(raw)
        assert small.run_reports(text) == small_ruleset_dfa.run_reports(raw)

    def test_compression_ratio(self, small_ruleset_dfa):
        small, classes = compress(small_ruleset_dfa)
        ratio = classes.size / small.alphabet_size
        assert ratio > 8
        assert small.alphabet_size * ratio == pytest.approx(256)

    def test_table_shrinks(self, small_ruleset_dfa):
        small, _ = compress(small_ruleset_dfa)
        assert small.transitions.size < small_ruleset_dfa.transitions.size
        assert small.num_states == small_ruleset_dfa.num_states

    def test_translate_validates_range(self, small_ruleset_dfa):
        _, classes = compress(small_ruleset_dfa)
        with pytest.raises(ValueError):
            translate(classes, [999])

    def test_custom_start_state(self, small_ruleset_dfa):
        small, classes = compress(small_ruleset_dfa)
        assert small.run(translate(classes, b"cat"), state=1) == (
            small_ruleset_dfa.run(b"cat", state=1))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, data):
        n = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(1, 6))
        table = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                    min_size=k, max_size=k,
                )
            ),
            dtype=np.int32,
        )
        dfa = Dfa(table, 0, [n - 1])
        small, classes = compress(dfa)
        word = data.draw(
            st.lists(st.integers(0, k - 1), min_size=0, max_size=40)
        )
        assert small.run(translate(classes, word)) == dfa.run(word)

    def test_engines_run_on_compressed_machine(self, small_ruleset_dfa, rng):
        """The compressed DFA is a first-class machine: engines accept it."""
        from repro.core.engine import CseEngine
        from repro.core.partition import StatePartition

        small, classes = compress(small_ruleset_dfa)
        engine = CseEngine(
            small, n_segments=4,
            partition=StatePartition.trivial(small.num_states),
        )
        raw = rng.integers(97, 123, size=400)
        translated = translate(classes, raw)
        assert engine.run(translated).final_state == small_ruleset_dfa.run(raw)
