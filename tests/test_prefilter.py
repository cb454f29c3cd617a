"""Literal-prefilter fast path: certification, scan equivalence, checks.

The prefilter is the one kernel licensed to *skip input bytes*, so its
tests are adversarial: every claim (home invariance, skip-width
soundness, anchor soundness) is probed with tampered certificates, and
scan outcomes are diffed bit-for-bit against the interpreted set-flow
reference and the sequential oracle across match densities from zero to
adversarially dense — including payloads built entirely from anchor bytes, where the
prefilter must fall back rather than skip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.automata.dfa import Dfa
from repro.check import has_errors, verify_prefilter
from repro.compilecache import compile_dfa
from repro.core.partition import StatePartition
from repro.core.reexec import POLICIES, compose_and_fix
from repro.engines.base import even_boundaries
from repro.ingest import from_bytes
from repro.kernels import (
    DenseTables,
    PrefilterTables,
    certify_prefilter,
    derive_prefilter,
    native_available,
    prefilter_scan_scalar,
    run_segments_batch,
)
from repro.kernels.native import native_prefilter
from repro.kernels.prefilter import _last_reset, run_segments_prefilter
from repro.regex.compile import compile_ruleset
from repro.software import software_cse_scan
from repro.workloads import generate_ruleset, literal_payload
from tests.kernel_inputs import grid_collapses, native_tier, python_grid


@pytest.fixture(scope="module")
def literal_dfa():
    return compile_ruleset(generate_ruleset("LiteralHeavy", 6, 11))


@pytest.fixture(scope="module")
def literal_patterns_fixture():
    return generate_ruleset("LiteralHeavy", 6, 11)


def _partition(dfa, n_labels=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, dfa.num_states)
    return StatePartition.from_labels(labels.tolist())


class TestCertification:
    def test_literal_ruleset_certifies(self, literal_dfa):
        tables = derive_prefilter(literal_dfa)
        assert tables is not None
        assert tables.skip_width >= 1
        assert 0 < tables.n_anchors <= literal_dfa.alphabet_size // 2
        assert tables.num_states == literal_dfa.num_states

    def test_certificate_passes_verifier(self, literal_dfa):
        tables = derive_prefilter(literal_dfa)
        assert verify_prefilter(tables, literal_dfa) == []

    def test_home_invariance_by_construction(self, literal_dfa):
        t = derive_prefilter(literal_dfa)
        table = literal_dfa.transitions
        non_anchor = np.flatnonzero(~t.anchor_lut)
        assert (table[non_anchor, t.home] == t.home).all()

    def test_skip_width_absorbs_every_state(self, literal_dfa):
        """Brute-force fact 2: any skip_width-long non-anchor word sends
        every state home (sampled words, every start state)."""
        t = derive_prefilter(literal_dfa)
        rng = np.random.default_rng(5)
        non_anchor = np.flatnonzero(~t.anchor_lut)
        for _ in range(20):
            word = non_anchor[rng.integers(0, non_anchor.size, t.skip_width)]
            for q in range(literal_dfa.num_states):
                assert literal_dfa.run(word, state=q) == t.home

    def test_permutation_dfa_rejected(self):
        """A permutation machine has no absorbing home; never certifies."""
        table = np.asarray([[1, 2, 0], [2, 0, 1]], dtype=np.int32)
        assert derive_prefilter(Dfa(table, 0, [0])) is None

    def test_accepting_home_rejected(self):
        """All-self-loop machine whose only state accepts: skipping would
        hide reports, so anchor soundness must refuse it."""
        table = np.zeros((4, 1), dtype=np.int32)
        assert derive_prefilter(Dfa(table, 0, [0])) is None

    def test_memoized_by_fingerprint(self, literal_dfa):
        assert certify_prefilter(literal_dfa) is certify_prefilter(literal_dfa)

    def test_summary_is_envelope_stable(self, literal_dfa):
        a = derive_prefilter(literal_dfa).summary()
        b = derive_prefilter(literal_dfa).summary()
        assert a == b
        assert set(a) == {"home", "skip_width", "n_anchors", "anchor_digest"}


class TestLastReset:
    def test_no_hits_long_segment(self):
        assert _last_reset(np.asarray([], dtype=np.int64), 10, 3) == (True, 10)

    def test_no_hits_short_segment(self):
        assert _last_reset(np.asarray([], dtype=np.int64), 2, 3) == (False, 0)

    def test_trailing_run_qualifies(self):
        hits = np.asarray([0, 1, 4], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 10)

    def test_interior_gap(self):
        # gap between 1 and 7 is 5 >= 3; walk resumes at the next hit
        hits = np.asarray([0, 1, 7, 9], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 7)

    def test_leading_run(self):
        hits = np.asarray([5, 6, 7, 8, 9], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 5)

    def test_dense_hits_not_proven(self):
        hits = np.arange(10, dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (False, 0)


class TestScanEquivalence:
    @pytest.mark.parametrize("density,adversarial", [
        (0.0, False),
        (0.002, False),
        (0.05, False),
        (0.3, True),
        (1.0, True),
    ])
    def test_grid_bit_identical_to_dense(
        self, literal_dfa, literal_patterns_fixture, density, adversarial
    ):
        payload = literal_payload(
            literal_patterns_fixture, 20000, match_density=density,
            seed=13, adversarial=adversarial,
        )
        seg = np.frombuffer(payload, dtype=np.uint8)
        bounds = even_boundaries(seg.size, 8)
        segments = [seg[a:b] for a, b in bounds]
        partition = _partition(literal_dfa)
        tables = derive_prefilter(literal_dfa)
        grid, stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        want_grid = python_grid(literal_dfa, partition, segments)
        assert stats["collapses"] == grid_collapses(partition, want_grid)
        for got_fn, want_fn in zip(grid, want_grid):
            for got, want in zip(got_fn, want_fn):
                assert got.converged == want.converged
                assert got.state == want.state
                assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("density,adversarial", [
        (0.0, False), (0.01, False), (0.5, True),
    ])
    def test_scalar_scan_matches_oracle(
        self, literal_dfa, literal_patterns_fixture, density, adversarial
    ):
        payload = literal_payload(
            literal_patterns_fixture, 5000, match_density=density,
            seed=29, adversarial=adversarial,
        )
        seg = np.frombuffer(payload, dtype=np.uint8)
        tables = derive_prefilter(literal_dfa)
        for start in (None, 0, literal_dfa.num_states - 1):
            final, walked = prefilter_scan_scalar(
                literal_dfa, tables, seg, start_state=start
            )
            assert final == literal_dfa.run(seg, state=start)
            assert 0 <= walked <= seg.size

    def test_end_to_end_matches_dense(
        self, literal_dfa, literal_patterns_fixture
    ):
        payload = literal_payload(
            literal_patterns_fixture, 30000, match_density=0.001, seed=3
        )
        partition = _partition(literal_dfa)
        pre = software_cse_scan(
            literal_dfa, payload, partition, n_segments=6, backend="prefilter"
        )
        ref = software_cse_scan(
            literal_dfa, payload, partition, n_segments=6, backend="python"
        )
        assert pre.backend == "prefilter"
        assert pre.final_state == ref.final_state == literal_dfa.run(
            np.frombuffer(payload, dtype=np.uint8)
        )

    def test_auto_picks_prefilter_on_literal_machine(
        self, literal_dfa, literal_patterns_fixture
    ):
        payload = literal_payload(literal_patterns_fixture, 4096, seed=1)
        run = software_cse_scan(
            literal_dfa, payload, _partition(literal_dfa),
            n_segments=4, backend="auto",
        )
        assert run.backend == "prefilter"
        assert run.requested_backend == "auto"

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.6]),
           st.booleans(), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_density_sweep(self, seed, density, adversarial,
                                      n_segments):
        """prefilter == native == python across densities."""
        patterns = generate_ruleset("LiteralHeavy", 4, 17)
        dfa = compile_ruleset(patterns)
        payload = literal_payload(
            patterns, 2000, match_density=density, seed=seed,
            adversarial=adversarial,
        )
        partition = _partition(dfa, seed=seed % 97)
        finals = {
            backend: software_cse_scan(
                dfa, payload, partition, n_segments=n_segments,
                backend=backend,
            ).final_state
            for backend in ("python", "native", "prefilter")
        }
        want = dfa.run(np.frombuffer(payload, dtype=np.uint8))
        assert set(finals.values()) == {want}


class TestFallback:
    def test_uncertifiable_request_degrades_to_the_frontier(
            self, random_dfa_8, rng):
        assert certify_prefilter(random_dfa_8) is None
        word = rng.integers(0, 4, 3000)
        partition = StatePartition.trivial(random_dfa_8.num_states)
        run = software_cse_scan(
            random_dfa_8, word, partition, n_segments=4, backend="prefilter"
        )
        expected = "native" if native_available() else "python"
        assert run.backend == expected
        assert run.final_state == random_dfa_8.run(word)

    def test_batch_fallback_on_uncertifiable(self, random_dfa_8, rng):
        word = rng.integers(0, 4, 1200)
        partition = StatePartition.trivial(random_dfa_8.num_states)
        segments = [word[a:b] for a, b in even_boundaries(word.size, 4)]
        got = run_segments_batch(
            random_dfa_8, partition, segments, backend="prefilter"
        )
        want = python_grid(random_dfa_8, partition, segments)
        for g_fn, w_fn in zip(got, want):
            for g, w in zip(g_fn.outcomes, w_fn):
                assert g.state == w.state
                assert np.array_equal(g.states, w.states)

    def test_all_anchor_segments_fall_back_inside_kernel(
        self, literal_dfa, literal_patterns_fixture
    ):
        """A payload of pure anchor bytes has no skippable run: every
        segment must route through the frontier and still be exact."""
        tables = derive_prefilter(literal_dfa)
        anchors = tables.anchors.astype(np.uint8)
        rng = np.random.default_rng(2)
        seg = anchors[rng.integers(0, anchors.size, 2000)]
        partition = _partition(literal_dfa)
        segments = [seg[a:b] for a, b in even_boundaries(seg.size, 4)]
        grid, stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        assert stats["fallback_segments"] == len(segments)
        assert stats["skipped_bytes"] == 0
        want = python_grid(literal_dfa, partition, segments)
        for got_fn, want_fn in zip(grid, want):
            for g, w in zip(got_fn, want_fn):
                assert g.state == w.state


class TestVerifierDiagnostics:
    def _tables(self, dfa):
        t = derive_prefilter(dfa)
        assert t is not None
        return t

    def test_malformed_lut_is_k130(self, literal_dfa):
        t = self._tables(literal_dfa)
        bad = PrefilterTables(
            t.home, t.skip_width, t.anchor_lut[:10],
            t.num_states, t.alphabet_size,
        )
        diags = verify_prefilter(bad, literal_dfa)
        assert [d.code for d in diags] == ["K130"]

    def test_home_out_of_range_is_k130(self, literal_dfa):
        t = self._tables(literal_dfa)
        bad = PrefilterTables(
            literal_dfa.num_states, t.skip_width, t.anchor_lut,
            t.num_states, t.alphabet_size,
        )
        assert [d.code for d in verify_prefilter(bad, literal_dfa)] == ["K130"]

    def test_dropped_anchor_is_k131(self, literal_dfa):
        t = self._tables(literal_dfa)
        lut = t.anchor_lut.copy()
        lut[int(t.anchors[0])] = False
        bad = PrefilterTables(
            t.home, t.skip_width, lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K131" in codes

    def test_understated_skip_width_is_k132(self, literal_dfa):
        t = self._tables(literal_dfa)
        if t.skip_width <= 1:
            pytest.skip("machine absorbs in one step; width cannot be understated")
        bad = PrefilterTables(
            t.home, 1, t.anchor_lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K132" in codes

    def test_foreign_certificate_is_k130(self, literal_dfa):
        """A certificate with self-consistent but wrong content (anchor
        added) fails the re-derivation check."""
        t = self._tables(literal_dfa)
        lut = t.anchor_lut.copy()
        extra = int(np.flatnonzero(~lut)[0])
        lut[extra] = True
        bad = PrefilterTables(
            t.home, t.skip_width, lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K130" in codes
        assert not has_errors(verify_prefilter(t, literal_dfa))


class TestArtifactEnvelope:
    def test_roundtrip_with_prefilter(self, literal_dfa, tmp_path):
        from repro.compilecache import compile_dfa
        from repro.compilecache.store import load_artifact, save_artifact

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        assert compiled.backend == "prefilter"
        assert compiled.prefilter_tables() is not None
        save_artifact(compiled, tmp_path)
        loaded = load_artifact(tmp_path, compiled.key)
        assert loaded is not None
        assert loaded.prefilter_tables().summary() == \
            compiled.prefilter_tables().summary()

    def test_envelope_tamper_rejected(self, literal_dfa, tmp_path):
        import pickle

        from repro.compilecache import compile_dfa
        from repro.compilecache.store import (
            ArtifactValidationError,
            artifact_path,
            load_artifact,
            save_artifact,
        )

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        payload = pickle.loads(path.read_bytes())
        payload["prefilter"]["skip_width"] += 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ArtifactValidationError, match="prefilter"):
            load_artifact(tmp_path, compiled.key)

    def test_verify_artifact_file_flags_tamper_as_k133(
        self, literal_dfa, tmp_path
    ):
        import pickle

        from repro.check import verify_artifact_file
        from repro.compilecache import compile_dfa
        from repro.compilecache.store import artifact_path, save_artifact

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        assert not has_errors(verify_artifact_file(path))
        payload = pickle.loads(path.read_bytes())
        payload["prefilter"] = None
        path.write_bytes(pickle.dumps(payload))
        codes = {d.code for d in verify_artifact_file(path)}
        assert "K133" in codes


# ----------------------------------------------------------------------
# the compiled prefilter (cse_native_prefilter) against the reference
# ----------------------------------------------------------------------
def grid_key(grid):
    """A kernel's grid as plain comparable tuples."""
    return [
        [(o.converged, o.state, tuple(o.states.tolist())) for o in row]
        for row in grid
    ]


def symbols_as(seg, kind):
    """``seg`` as int64 / uint8 symbols or a zero-copy InputView."""
    if kind == "int64":
        return seg.astype(np.int64)
    raw = seg.astype(np.uint8)
    return raw if kind == "uint8" else from_bytes(raw.tobytes())


@st.composite
def literal_machines(draw):
    """A certified literal ruleset over a small or a byte alphabet."""
    k = draw(st.sampled_from([5, 8, 13, 256]))
    letters = list(range(k)) if k < 256 else list(range(97, 123))
    patterns = draw(st.lists(
        st.lists(st.sampled_from(letters), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ))
    dfa = compile_ruleset(
        ["".join(chr(c) for c in p) for p in patterns], alphabet_size=k
    )
    tables = derive_prefilter(dfa)
    assume(tables is not None)
    return dfa, tables


@st.composite
def prefilter_segments(draw, tables, max_segments=6):
    """Segments at match density zero, sparse or adversarially dense.

    Non-anchor runs are drawn around ``skip_width`` (one short, exact,
    one over) so qualifying runs land at a segment's start, end and
    interior; zero-density segments may be shorter than ``skip_width``
    or empty.
    """
    sw = tables.skip_width
    anchors = tables.anchors
    plain = np.flatnonzero(~tables.anchor_lut)
    segments = []
    for _ in range(draw(st.integers(1, max_segments))):
        density = draw(st.sampled_from(["zero", "sparse", "dense"]))
        if density == "zero":
            runs = [draw(st.integers(0, 3 * sw + 2))]
        else:
            short = st.integers(0, sw - 1)
            run = short if density == "dense" else st.one_of(
                st.sampled_from([sw - 1, sw, sw + 1]), st.integers(0, 3 * sw))
            runs = draw(st.lists(run, min_size=1, max_size=8))
        parts = []
        for i, length in enumerate(runs):
            if i:
                picks = draw(st.lists(st.integers(0, anchors.size - 1),
                                      min_size=1, max_size=3))
                parts.append(anchors[picks])
            picks = draw(st.lists(st.integers(0, plain.size - 1),
                                  min_size=length, max_size=length))
            parts.append(plain[picks])
        segments.append(np.concatenate(parts).astype(np.int64))
    return segments


class TestCompiledPrefilter:
    """cse_native_prefilter == the anchor sweep == Dfa.run."""

    @given(literal_machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_reference(self, machine, data):
        dfa, tables = machine
        segments = data.draw(prefilter_segments(tables))
        starts = [
            data.draw(st.integers(-1, dfa.num_states - 1)) for _ in segments
        ]
        kind = data.draw(st.sampled_from(["uint8", "int64"]))
        got = native_prefilter(
            dfa, tables, [symbols_as(s, kind) for s in segments], starts
        )
        if not native_available():
            assert got is None
            return
        assert got is not None
        every = np.arange(dfa.num_states)
        for seg, start, final, walk_from in zip(
            segments, starts, got[0].tolist(), got[1].tolist()
        ):
            proven, resume = _last_reset(
                np.flatnonzero(tables.anchor_lut[seg]), seg.size,
                tables.skip_width,
            )
            assert walk_from == (resume if proven else -1)
            if start >= 0:
                assert final == dfa.run(seg, start)
            elif proven:
                # a proven reset: every state lands on the same final
                assert {dfa.run(seg, int(q)) for q in every} == {final}
            else:
                assert final == -1

    @given(literal_machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_across_tiers(self, machine, data):
        dfa, tables = machine
        segments = data.draw(prefilter_segments(tables))
        kind = data.draw(st.sampled_from(["uint8", "int64", "view"]))
        labels = data.draw(st.lists(st.integers(0, 2),
                                    min_size=dfa.num_states,
                                    max_size=dfa.num_states))
        partition = StatePartition.from_labels(labels)
        state = data.draw(st.integers(0, dfa.num_states - 1))
        want_grid = python_grid(dfa, partition, segments)
        seen = []
        for absent in (False, True):
            with native_tier(absent):
                syms = [symbols_as(s, kind) for s in segments]
                grid, stats = run_segments_prefilter(
                    dfa, partition, syms, tables
                )
                scalar = [
                    prefilter_scan_scalar(dfa, tables, s, start_state=state)
                    for s in syms
                ]
            assert grid_key(grid) == grid_key(want_grid)
            assert stats["collapses"] == grid_collapses(partition, want_grid)
            assert [f for f, _ in scalar] == [dfa.run(s, state) for s in segments]
            seen.append((stats, scalar))
        assert seen[0] == seen[1]

    @given(literal_machines(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_scan_matches_across_tiers(self, machine, data):
        dfa, tables = machine
        word = np.concatenate(data.draw(prefilter_segments(tables)))
        kind = data.draw(st.sampled_from(["uint8", "int64", "view"]))
        n_segments = data.draw(st.integers(1, 6))
        policy = data.draw(st.sampled_from(POLICIES))
        partition = StatePartition.from_labels(
            [q % 3 for q in range(dfa.num_states)])
        for absent in (False, True):
            with native_tier(absent):
                run = software_cse_scan(
                    dfa, symbols_as(word, kind), partition,
                    n_segments=n_segments, backend="prefilter", policy=policy,
                )
            assert run.backend == "prefilter"
            assert run.final_state == dfa.run(word)

    @pytest.mark.parametrize("absent", [False, True])
    def test_edge_segments(self, literal_dfa, absent):
        """Runs of exactly skip_width at the start, end and interior,
        segments shorter than skip_width, and empty segments."""
        tables = derive_prefilter(literal_dfa)
        sw = tables.skip_width
        a = int(tables.anchors[0])
        p = int(np.flatnonzero(~tables.anchor_lut)[0])
        cases = {
            "start": [p] * sw + [a, a],
            "end": [a, a] + [p] * sw,
            "interior": [a] + [p] * sw + [a],
            "one-short": [a] + [p] * (sw - 1) + [a],
            "short": [p] * (sw - 1),
            "empty": [],
        }
        segs = [np.asarray(c, dtype=np.uint8) for c in cases.values()]
        partition = _partition(literal_dfa)
        with native_tier(absent):
            grid, stats = run_segments_prefilter(
                literal_dfa, partition, segs, tables)
        assert grid_key(grid) == grid_key(
            python_grid(literal_dfa, partition, segs))
        # start/end/interior prove a reset; one-short and short do not;
        # the empty segment is the identity
        assert stats["fallback_segments"] == 2
        assert stats["skipped_bytes"] == sw + (sw + 2) + (sw + 1)
        assert stats["walked_positions"] == 2 + 1 + 2 * (sw + 1)
        for seg in segs:
            for start in (None, tables.home):
                with native_tier(absent):
                    final, _ = prefilter_scan_scalar(
                        literal_dfa, tables, seg, start_state=start)
                assert final == literal_dfa.run(seg, start)


class TestPrefilterReexecution:
    """Re-execution walks the prefilter over the compiled tables."""

    @staticmethod
    def _machine():
        # anchor 0 cycles states 1..5 (home 0 enters the cycle), so an
        # all-anchor segment never collapses; symbols 1-3 reset to home
        m = 5
        table = np.zeros((4, m + 1), dtype=np.int32)
        table[0] = [1] + [(q % m) + 1 for q in range(1, m + 1)]
        return Dfa(table, 0, [m])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("absent", [False, True])
    def test_reexecution_matches_dfa_run(self, policy, absent, monkeypatch):
        import repro.software as software

        dfa = self._machine()
        tables = derive_prefilter(dfa)
        assert tables is not None and tables.anchors.tolist() == [0]
        rng = np.random.default_rng(7)
        word = rng.choice(4, size=600, p=[0.85, 0.05, 0.05, 0.05])
        bounds = even_boundaries(word.size, 6)
        # anchor-dense segments, the last among them: no reset to prove,
        # so the composed final stays a set and must be re-executed
        for i in (3, 5):
            a, b = bounds[i]
            word[a:b] = 0
        word = word.astype(np.uint8)
        partition = StatePartition.from_labels([0, 0, 0, 1, 1, 1])
        functions = run_segments_batch(
            dfa, partition, [word[a:b] for a, b in bounds[1:]],
            backend="native",
        )
        want, want_stats = compose_and_fix(
            dfa, word, bounds[1:], functions, dfa.run(word[:bounds[0][1]]),
            policy=policy,
        )
        assert want_stats.reexecuted_segments
        with native_tier(absent):
            compiled = compile_dfa(dfa, backend="prefilter", n_segments=6)
            compiled.dense_tables()
            built, walked = [], []
            init = DenseTables.__init__
            monkeypatch.setattr(
                DenseTables, "__init__",
                lambda self, d: built.append(1) or init(self, d))
            plain_walk = software._walk_admitted
            monkeypatch.setattr(
                software, "_walk_admitted",
                lambda *args, **kwargs: walked.append(1) or plain_walk(
                    *args, **kwargs))
            run = software_cse_scan(
                dfa, word, partition, n_segments=6, backend="prefilter",
                policy=policy, compiled=compiled,
            )
        assert run.backend == "prefilter"
        assert run.final_state == want == dfa.run(word)
        assert run.reexec_segments == len(want_stats.reexecuted_segments)
        assert built == []  # the artifact's tables serve every walk
        assert walked == []  # re-execution runs the prefilter walk


class TestCompiledReplayK134:
    def test_tampered_lut_is_k134(self, literal_dfa):
        if not native_available():
            pytest.skip("K134 replays the compiled prefilter")
        t = derive_prefilter(literal_dfa)
        for anchor in t.anchors.tolist():
            lut = t.anchor_lut.copy()
            lut[anchor] = False
            bad = PrefilterTables(
                t.home, t.skip_width, lut, t.num_states, t.alphabet_size
            )
            codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
            assert "K134" in codes, anchor

    def test_wrong_compiled_answer_is_k134(self, literal_dfa, monkeypatch):
        if not native_available():
            pytest.skip("K134 replays the compiled prefilter")
        import repro.kernels.native as native

        real = native.native_prefilter

        def shifted(*args, **kwargs):
            final, walk_from = real(*args, **kwargs)
            return np.where(final > 0, final - 1, final), walk_from

        monkeypatch.setattr(native, "native_prefilter", shifted)
        tables = derive_prefilter(literal_dfa)
        codes = [d.code for d in verify_prefilter(tables, literal_dfa)]
        assert codes == ["K134"]

    def test_silent_when_native_absent(self, literal_dfa):
        t = derive_prefilter(literal_dfa)
        lut = t.anchor_lut.copy()
        lut[int(t.anchors[0])] = False
        bad = PrefilterTables(
            t.home, t.skip_width, lut, t.num_states, t.alphabet_size
        )
        with native_tier(absent=True):
            codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K134" not in codes
        assert "K131" in codes


class TestSegmentZeroRidesTheBatch:
    """A prefilter scan walks its concrete segment 0 in the batch call."""

    @given(literal_machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_concrete_start_matches_the_walk(self, machine, data):
        dfa, tables = machine
        segments = data.draw(prefilter_segments(tables))
        state = data.draw(st.integers(0, dfa.num_states - 1))
        partition = StatePartition.from_labels(
            [q % 2 for q in range(dfa.num_states)])
        seen = []
        for absent in (False, True):
            with native_tier(absent):
                grid, stats = run_segments_prefilter(
                    dfa, partition, segments, tables, start=state)
                rest, rest_stats = run_segments_prefilter(
                    dfa, partition, segments[1:], tables)
                first, walked = prefilter_scan_scalar(
                    dfa, tables, segments[0], start_state=state)
            assert first == dfa.run(segments[0], state)
            assert [(o.converged, o.state) for o in grid[0]] == \
                [(True, first)] * partition.num_blocks
            assert grid_key(grid[1:]) == grid_key(rest)
            assert stats["walked_positions"] == \
                rest_stats["walked_positions"] + walked
            seen.append(stats)
        assert seen[0] == seen[1]

    def test_start_needs_a_certified_batch(self, random_dfa_8, rng):
        partition = StatePartition.trivial(8)
        segs = [rng.integers(0, random_dfa_8.alphabet_size, 20)]
        with pytest.raises(ValueError, match="certified prefilter"):
            run_segments_batch(random_dfa_8, partition, segs,
                               backend="prefilter", start=0)
        with pytest.raises(ValueError, match="certified prefilter"):
            run_segments_batch(random_dfa_8, partition, segs,
                               backend="native", start=0)

    def test_start_is_admitted(self, literal_dfa):
        from repro.ingest import InputError

        partition = _partition(literal_dfa)
        with pytest.raises(InputError, match="start state"):
            run_segments_batch(literal_dfa, partition, [b"abc"],
                               backend="prefilter", start=-1)


@pytest.mark.skipif(not native_available(), reason="counts C calls")
class TestOneCallPerUnitScan:
    """Every unpooled prefilter unit scan is one cse_native_prefilter call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.kernels.native import load_native

        lib = load_native()
        real = lib.cse_native_prefilter
        seen = []
        monkeypatch.setattr(lib, "cse_native_prefilter",
                            lambda *args: seen.append(1) or real(*args))
        return seen

    @pytest.mark.parametrize("verify", [False, True])
    def test_software_scan(self, literal_dfa, calls, verify):
        rng = np.random.default_rng(3)
        word = rng.integers(97, 123, size=40_000, dtype=np.uint8)
        run = software_cse_scan(
            literal_dfa, word, _partition(literal_dfa), n_segments=16,
            backend="prefilter", verify=verify)
        assert run.backend == "prefilter"
        assert run.final_state == literal_dfa.run(word)
        assert run.reexec_segments == 0
        assert calls == [1]

    def test_fleet_units(self, calls):
        from repro.stream import FleetScanner

        dfas = [compile_ruleset(generate_ruleset("ExactMatch", 3, 40 + i))
                for i in range(12)]
        fleet = FleetScanner(dfas, shard=True)
        assert set(fleet.unit_backends) == {"prefilter"}
        text = np.random.default_rng(5).integers(
            97, 123, size=60_000, dtype=np.uint8)
        result = fleet.scan_wallclock(text, verify=False)
        assert result.final_states == [d.run(text) for d in dfas]
        assert len(calls) == fleet.n_units
