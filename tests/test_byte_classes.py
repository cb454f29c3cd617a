"""Byte classes from the compiler down: same tables, fewer loops.

The compiler determinizes and minimizes over the NFA's byte classes and
expands the columns back to bytes; the lazily grown SFA builds each row
over the DFA's column classes.  Neither may change a table: compiled
DFAs equal the byte-wide ``minimize(determinize(nfa))`` array for array,
and grown SFA rows equal a byte-by-byte build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.alphabet import (
    class_nfa,
    nfa_byte_classes,
    nfa_to_dfa,
    symbol_classes,
)
from repro.automata.minimize import minimize
from repro.automata.nfa import Nfa
from repro.automata.subset import determinize
from repro.check import verify_sfa
from repro.check.artifact import _probe_sfa
from repro.engines.base import even_boundaries
from repro.kernels import native_available
from repro.kernels.sfa import SFA_MAX_FUNCTIONS, LazySfa
from repro.regex.compile import compile_pattern, compile_ruleset, pattern_to_nfa
from repro.workloads import generate_ruleset
from repro.workloads.anml import anml_to_nfa, load_anml_dfa
from repro.workloads.corpus import packet_corpus
from repro.workloads.rulesets import FAMILY_GENERATORS

needs_native = pytest.mark.skipif(
    not native_available(), reason="SFA lanes run on the native library")


def ruleset_nfa(patterns) -> Nfa:
    nfas = [pattern_to_nfa(p) for p in patterns]
    return Nfa.union(nfas) if len(nfas) > 1 else nfas[0]


def assert_same_table(got, want):
    assert got.transitions.dtype == want.transitions.dtype
    assert got.transitions.shape == want.transitions.shape
    assert np.array_equal(got.transitions, want.transitions)
    assert got.start == want.start
    assert got.accepting == want.accepting


class TestCompilerClasses:
    @pytest.mark.parametrize("family", sorted(FAMILY_GENERATORS))
    @pytest.mark.parametrize("n_patterns", [1, 4])
    def test_every_family_compiles_to_the_byte_wide_table(
            self, family, n_patterns):
        patterns = generate_ruleset(family, n_patterns, seed=3)
        want = minimize(determinize(ruleset_nfa(patterns),
                                    max_states=200_000))
        assert_same_table(compile_ruleset(patterns), want)

    def test_unminimized_is_the_byte_wide_subset_construction(self):
        nfa = ruleset_nfa(generate_ruleset("Snort", 3, seed=1))
        assert_same_table(nfa_to_dfa(nfa, minimize=False), determinize(nfa))

    def test_anml_compiles_to_the_byte_wide_table(self):
        text = """<automata-network>
          <state-transition-element id="a" symbol-set="[ab]"
                                    start-of-data="all-input">
            <activate-on-match element="b"/>
            <activate-on-match element="c"/>
          </state-transition-element>
          <state-transition-element id="b" symbol-set="[b-d]">
            <activate-on-match element="c"/>
          </state-transition-element>
          <state-transition-element id="c" symbol-set="*">
            <report-on-match/>
          </state-transition-element>
        </automata-network>"""
        want = minimize(determinize(anml_to_nfa(text)))
        assert_same_table(load_anml_dfa(text), want)

    def test_max_states_still_guards(self):
        with pytest.raises(RuntimeError):
            compile_ruleset(["a.*b.*c", "d.*e.*f"], max_states=5)

    def test_classes_group_bytes_by_their_edges(self):
        nfa = pattern_to_nfa("a[bc]", mode="fullmatch")
        class_of = nfa_byte_classes(nfa)
        assert class_of[ord("b")] == class_of[ord("c")]
        assert len({int(class_of[ord(ch)]) for ch in "abz"}) == 3
        # every byte outside the pattern shares one class
        assert int(class_of.max()) + 1 == 3
        small = class_nfa(nfa, class_of)
        assert small.alphabet_size == 3
        assert small.num_states == nfa.num_states


def atom():
    return st.one_of(
        st.sampled_from("abcxyz0"),
        st.sampled_from(["[a-c]", "[^b]", "[0-9x]", ".", "\\d", "\\w",
                         "[xy]", "\\.", "[A-Za-z]"]),
    )


def regex():
    return st.recursive(
        atom(),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map("".join),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda opts: "(" + "|".join(opts) + ")"),
            st.tuples(inner, st.integers(0, 2), st.integers(0, 2)).map(
                lambda t: f"({t[0]}){{{min(t[1], t[2])},{max(t[1], t[2])}}}"),
            st.tuples(inner, st.sampled_from("*+?")).map(
                lambda t: f"({t[0]}){t[1]}"),
        ),
        max_leaves=6,
    )


@given(st.lists(st.tuples(st.booleans(), regex(), st.booleans()),
                min_size=1, max_size=3),
       st.sampled_from(["search", "fullmatch"]))
@settings(max_examples=60, deadline=None)
def test_random_patterns_compile_to_the_byte_wide_table(rules, mode):
    patterns = [("^" if head else "") + body + ("$" if tail else "")
                for head, body, tail in rules]
    nfa = pattern_to_nfa(patterns[0], mode=mode)
    assert_same_table(compile_pattern(patterns[0], mode=mode),
                      minimize(determinize(nfa)))
    assert_same_table(compile_ruleset(patterns),
                      minimize(determinize(ruleset_nfa(patterns))))


# the parent's fingerprints: a changed table here moves perfbench's
# machines and every stored artifact keyed on them
PINNED = {
    ("Snort", 16, 4): "582c8567e0d2d7790e33128c52aab25fb7a5c8c5",
    ("Dotstar06", 8, 2): "680bdca582cc1f71ffb2db0f44e5bd9bc97ef307",
    ("ExactMatch", 3, 20180623): "8aaedc274ff3acc11beba933c5f27971b86df1b6",
}


@pytest.mark.parametrize("rule", sorted(PINNED), ids=lambda r: f"{r[0]}")
def test_fingerprints_are_pinned(rule):
    assert compile_ruleset(generate_ruleset(*rule)).fingerprint[-1] == (
        PINNED[rule])


class ByteWideSfa(LazySfa):
    """The SFA built byte by byte, one dictionary lookup per symbol."""

    def _build_row(self, s: int) -> None:
        succ = self._bytes[:, self.funcs[s]]
        row = np.empty(self.alphabet_size, dtype=np.int32)
        for a in range(self.alphabet_size):
            key = succ[a].tobytes()
            fid = self._index.get(key)
            if fid is None:
                fid = self.functions
                assert fid < SFA_MAX_FUNCTIONS
                self._reserve(fid + 1)
                self.funcs[fid] = succ[a]
                self._index[key] = fid
                self.functions = fid + 1
            row[a] = fid * self.alphabet_size
        self.table[s] = row
        self._built[s] = True
        self.rows += 1


def byte_wide_sfa(dfa) -> ByteWideSfa:
    sfa = ByteWideSfa(dfa)
    sfa._bytes = dfa.transitions.astype(sfa.funcs.dtype)
    return sfa


@pytest.fixture(scope="module")
def snort():
    return compile_ruleset(generate_ruleset("Snort", 16, 4))


@pytest.fixture(scope="module")
def dotstar():
    return compile_ruleset(generate_ruleset("Dotstar06", 8, 2))


@needs_native
@pytest.mark.parametrize("machine", ["snort", "dotstar"])
def test_grown_rows_equal_a_byte_wide_build(machine, request):
    dfa = request.getfixturevalue(machine)
    data = packet_corpus(np.random.default_rng(5), 1 << 18).astype(np.uint8)
    spans = [data[a:b] for a, b in even_boundaries(data.size, 16)]
    grown = []
    for sfa in (LazySfa(dfa), byte_wide_sfa(dfa)):
        boundaries, grew = sfa.scan(spans, dfa.start)
        assert grew and boundaries[-1] == dfa.run(data)
        assert verify_sfa(sfa, dfa) == []
        grown.append(sfa.grown())
    for got, want in zip(*grown):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@needs_native
def test_a_class_map_merging_unlike_bytes_fails_k118(dotstar, monkeypatch):
    classes = symbol_classes(dotstar)
    # two bytes whose T columns differ, put into one class
    a, b = 0, int(np.flatnonzero(classes != classes[0])[0])
    merged = classes.copy()
    merged[b] = merged[a]
    _, merged = np.unique(merged, return_inverse=True)
    monkeypatch.setattr("repro.kernels.sfa.symbol_classes",
                        lambda dfa: merged)
    sfa = LazySfa(dotstar)
    probe = np.concatenate([np.arange(256), np.arange(256)[::-1]])
    sfa.scan([probe], dotstar.start)
    diagnostics = verify_sfa(sfa, dotstar)
    assert [d.code for d in diagnostics] == ["K118"]
    assert f",{b}]" in diagnostics[0].location
    # the map the SFA derives itself passes
    monkeypatch.undo()
    assert _probe_sfa(dotstar) == []
