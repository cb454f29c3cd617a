"""The SFA plan: each segment's whole function walked as one compiled lane.

Once an ``auto`` artifact runs the walk plan and the native library
loads, its scans try the SFA plan: the input is cut into segments, each
segment is one lane over the artifact's lazily grown SFA (the DFA whose
states are segment functions), and the final state is the segments'
functions applied in turn.  The plan replaces the walk once three scans
that grew no row measured ``PLAN_MARGIN`` cheaper.  Dotstar06 and
``cycle128`` get there; random64 never leaves CSE, so it never tries.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro import obs
from repro.automata.builders import cycle_dfa, random_dfa
from repro.check import verify_compiled, verify_sfa
from repro.compilecache import CompileCache, scan_with_cache
from repro.compilecache.artifact import (
    PLAN_MARGIN,
    PLAN_MIN_SAMPLES,
    PlanCosts,
)
from repro.compilecache.store import FORMAT_VERSION, load_artifact, save_artifact
from repro.ingest import open_input
from repro.kernels import native_available
from repro.kernels.native import Lanes, native_lanes
from repro.kernels.sfa import LazySfa
from repro.regex.compile import compile_ruleset
from repro.software import segment_pool
from repro.workloads import generate_ruleset
from repro.workloads.corpus import packet_corpus
from tests.kernel_inputs import native_tier

N_SEGMENTS = 16
needs_native = pytest.mark.skipif(
    not native_available(), reason="the SFA plan runs on the native library")


@pytest.fixture(scope="module")
def dotstar():
    return compile_ruleset(generate_ruleset("Dotstar06", 8, 2))


def packets(seed, size=1 << 20):
    return packet_corpus(np.random.default_rng(seed), size).astype(np.uint8)


@pytest.fixture(scope="module")
def traffic():
    return packets(7)


def plan_counts(snapshot):
    return {
        (m["labels"]["plan"], m["labels"]["reason"]): m["value"]
        for m in snapshot["metrics"] if m["name"] == "kernels_plan_total"
    }


def scan_until_sfa(dfa, data, cache, limit=30, **kwargs):
    """Scan ``data`` until the artifact switches to the SFA plan.

    Runs inside :func:`repro.obs.using`; returns every run, the last one
    being the switch.  The switch is measured: where this host measured
    the SFA plan no ``PLAN_MARGIN`` cheaper than the walk (a busy
    sibling core slows eight lanes more than one chain of loads), the
    test is skipped with both medians; :class:`TestPlanCostsSfa` checks
    the rule itself on fixed samples, and the tests of what the SFA plan
    computes settle on it with :func:`onto_sfa` instead.
    """
    runs = []
    for _ in range(limit):
        runs.append(scan_with_cache(dfa, data, cache=cache,
                                    n_segments=N_SEGMENTS, **kwargs))
        counts = plan_counts(obs.active().snapshot())
        if ("sfa", "sfa-cheaper") in counts:
            return runs
        if ("walk", "sfa-not-cheaper") in counts:
            plans = cache.get_or_compile(dfa, n_segments=N_SEGMENTS).plans
            pooled = "executor" in kwargs
            pytest.skip(
                f"this host measured the SFA plan at "
                f"{plans.median('sfa', pooled):.2f} ns/B against the walk's "
                f"{plans.median('walk', pooled):.2f}: not PLAN_MARGIN cheaper")
    raise AssertionError(f"never switched: {[r.backend for r in runs]}")


def onto_sfa(dfa, cache, pooled=False):
    """Settle ``dfa``'s artifact in ``cache`` on the SFA plan, untimed.

    Records fixed per-byte costs (CSE 10, walk 3, SFA 1) and takes the
    decisions a measured run would, so the next ``auto`` scan runs the
    SFA plan whatever this host's timings.  Returns the artifact.
    """
    compiled = cache.get_or_compile(dfa, n_segments=N_SEGMENTS)
    plans = compiled.plans
    for _ in range(PLAN_MIN_SAMPLES):
        plans.record("cse", pooled, 10.0)
        plans.record("walk", pooled, 3.0)
    for _ in range(PLAN_MIN_SAMPLES):
        assert plans.choose(pooled, True)[0] == "walk"
    for _ in range(PLAN_MIN_SAMPLES):
        plans.record("sfa", pooled, 1.0)
    assert plans.choose(pooled, True) == ("sfa", "sfa-cheaper")
    return compiled


class TestPlanCostsSfa:
    """The SFA plan's decision rule on fixed per-byte costs."""

    def walked(self, sfa=True):
        plans = PlanCosts()
        for _ in range(PLAN_MIN_SAMPLES):
            assert plans.choose(False, sfa) == ("cse", "unmeasured")
            plans.record("walk", False, 3.0)
            plans.record("cse", False, 10.0)
        decisions = [plans.choose(False, sfa) for _ in range(PLAN_MIN_SAMPLES)]
        assert decisions == [("walk", "walk-cheaper")] + [
            ("walk", "switched")] * (PLAN_MIN_SAMPLES - 1)
        return plans

    @pytest.mark.parametrize("sfa_cost, plan, reason", [
        (3.0 / PLAN_MARGIN - 0.01, "sfa", "sfa-cheaper"),
        (3.0 / PLAN_MARGIN + 0.01, "walk", "sfa-not-cheaper"),
    ])
    def test_switch_or_reject_after_three_samples(self, sfa_cost, plan,
                                                  reason):
        plans = self.walked()
        for _ in range(PLAN_MIN_SAMPLES):
            assert plans.choose(False, True) == ("sfa", "unmeasured")
            plans.record("sfa", False, sfa_cost)
        assert plans.choose(False, True) == (plan, reason)
        # either way the decision is sticky
        assert plans.choose(False, True) == (plan, "switched")
        assert plans.median("sfa", False) == pytest.approx(sfa_cost)

    def test_not_tried_without_the_sfa_or_pooled_samples(self):
        plans = self.walked(sfa=False)
        assert {plans.choose(False, False) for _ in range(5)} == {
            ("walk", "switched")}
        # the pooled key has measured nothing yet
        assert plans.choose(True, True) == ("cse", "unmeasured")

    def test_an_abandoned_sfa_leaves_the_switch_to_the_walk(self):
        plans = self.walked()
        assert plans.choose(False, True) == ("sfa", "unmeasured")
        plans.record("sfa", False, 0.1)
        # abandoned: the caller passes sfa=False from then on
        assert plans.choose(False, False) == ("walk", "switched")


@needs_native
class TestReachesSfa:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_dotstar_switches_and_stays_exact(self, dotstar, traffic,
                                              pooled, tmp_path):
        cache = CompileCache()
        path = tmp_path / "traffic.bin"
        path.write_bytes(traffic.tobytes())
        with obs.using() as registry:
            if pooled:
                with segment_pool(dotstar, max_workers=2) as pool, \
                        open_input(path) as view:
                    runs = scan_until_sfa(dotstar, view, cache,
                                          executor=pool)
                    after = [scan_with_cache(dotstar, view, cache=cache,
                                             n_segments=N_SEGMENTS,
                                             executor=pool)
                             for _ in range(2)]
            else:
                runs = scan_until_sfa(dotstar, traffic, cache)
                after = []
            snapshot = registry.snapshot()
        want = dotstar.run(traffic)
        assert {run.final_state for run in runs + after} == {want}
        backends = [run.backend for run in runs]
        walks = backends.index("sfa")
        assert backends[:walks] == (
            ["native"] * PLAN_MIN_SAMPLES + ["walk"] * PLAN_MIN_SAMPLES)
        assert set(backends[walks:]) == {"sfa"}
        counts = plan_counts(snapshot)
        assert counts[("sfa", "sfa-cheaper")] == 1
        assert counts[("sfa", "unmeasured")] >= PLAN_MIN_SAMPLES
        assert not any(reason.startswith("sfa-not") for _p, reason in counts)
        for run in runs[walks:] + after:
            assert run.n_segments == N_SEGMENTS
            assert run.reexec_segments == 0
            assert run.sequential_seconds > 0  # verify ran its check
        spans = [s for s in snapshot["spans"] if s["name"] == "software.scan"]
        switch = spans[len(runs) - 1]["args"]
        assert switch["backend"] == "sfa" and switch["grew"] is False
        assert switch["sfa_ns_per_byte"] < switch["walk_ns_per_byte"]
        assert 1 < switch["sfa_functions"] <= 4096
        if pooled:
            # nothing after the CSE plan reached a worker
            workers = [m["value"] for m in snapshot["metrics"]
                       if m["name"] == "software_worker_segments_total"]
            assert workers == [PLAN_MIN_SAMPLES * (N_SEGMENTS - 1)]

    @pytest.mark.parametrize("pooled", [False, True])
    def test_dotstar_sfa_plan_is_exact_and_verified(self, dotstar, traffic,
                                                    pooled, tmp_path):
        """Settled on the SFA plan without timing, pooled or not, every
        scan runs it exactly, the chained check verifies it, and no
        segment reaches a worker."""
        cache = CompileCache()
        onto_sfa(dotstar, cache, pooled)
        path = tmp_path / "traffic.bin"
        path.write_bytes(traffic.tobytes())
        with obs.using() as registry, open_input(path) as view:
            if pooled:
                with segment_pool(dotstar, max_workers=2) as pool:
                    runs = [scan_with_cache(dotstar, view, cache=cache,
                                            n_segments=N_SEGMENTS,
                                            executor=pool)
                            for _ in range(3)]
            else:
                runs = [scan_with_cache(dotstar, view, cache=cache,
                                        n_segments=N_SEGMENTS)
                        for _ in range(3)]
            snapshot = registry.snapshot()
        assert [run.backend for run in runs] == ["sfa"] * 3
        assert {run.final_state for run in runs} == {dotstar.run(traffic)}
        for run in runs:
            assert run.n_segments == N_SEGMENTS
            assert run.reexec_segments == 0
            assert run.sequential_seconds > 0  # verify ran its check
        assert plan_counts(snapshot) == {("sfa", "switched"): 3}
        # the check is the chained walk, one lane per segment, and no
        # serial oracle walk ran
        oracles = [s["args"] for s in snapshot["spans"]
                   if s["name"] == "software.oracle"]
        assert oracles == [{"compiled": True, "chained": True,
                            "lanes": N_SEGMENTS}] * 3
        spans = [s["args"] for s in snapshot["spans"]
                 if s["name"] == "software.scan"]
        assert spans[0]["grew"] is True
        assert 1 < spans[-1]["sfa_functions"] <= 4096
        assert not [m for m in snapshot["metrics"]
                    if m["name"] == "software_worker_segments_total"
                    and m["value"]]

    def test_exact_over_many_inputs_and_start_states(self, dotstar,
                                                     traffic):
        cache = CompileCache()
        onto_sfa(dotstar, cache)
        rng = np.random.default_rng(11)
        words = [packets(seed, 1 << 16) for seed in range(3)] + [
            rng.integers(0, 256, size=n, dtype=np.uint8)
            for n in (0, 1, 15, 16, 17, 999)
        ] + [packets(3, 5000).astype(np.int64)]
        starts = [None, 0, dotstar.num_states - 1,
                  int(rng.integers(dotstar.num_states))]
        for word in words:
            for start in starts:
                run = scan_with_cache(dotstar, word, cache=cache,
                                      n_segments=N_SEGMENTS, verify=False,
                                      start_state=start)
                assert run.backend == "sfa"
                assert run.final_state == dotstar.run(word, start)

    def test_cycle128_runs_the_sfa_plan(self):
        dfa = cycle_dfa(128)
        rng = np.random.default_rng(5)
        word = rng.integers(0, 2, size=1 << 20, dtype=np.uint8)
        cache = CompileCache()
        sfa = onto_sfa(dfa, cache).sfa()
        runs = [scan_with_cache(dfa, word, cache=cache,
                                n_segments=N_SEGMENTS, verify=False)
                for _ in range(2)]
        assert {run.backend for run in runs} == {"sfa"}
        assert {run.final_state for run in runs} == {dfa.run(word)}
        # the rotations of a 128-cycle: its whole closure
        assert sfa.functions == 128
        other = rng.integers(0, 2, size=4321, dtype=np.uint8)
        run = scan_with_cache(dfa, other, cache=cache, n_segments=N_SEGMENTS,
                              start_state=77)
        assert run.backend == "sfa" and run.final_state == dfa.run(other, 77)


def tamper_boundary(sfa, at, shift):
    """Make ``sfa.scan`` claim boundary ``at`` off by ``shift`` states."""
    honest = sfa.scan

    def scan(spans, state):
        boundaries, grew = honest(spans, state)
        boundaries = list(boundaries)
        boundaries[at] = (boundaries[at] + shift) % sfa.num_states
        return boundaries, grew

    return scan


@needs_native
def test_a_diverging_sfa_fails_verify(dotstar, traffic, monkeypatch):
    cache = CompileCache()
    sfa = onto_sfa(dotstar, cache).sfa()
    want = dotstar.run(traffic)
    wrong = (want + 1) % dotstar.num_states
    monkeypatch.setattr(sfa, "scan", tamper_boundary(sfa, -1, 1))
    with pytest.raises(AssertionError, match=(
            f"sfa plan diverged from the chained walk at segment "
            f"{N_SEGMENTS - 1}$")):
        scan_with_cache(dotstar, traffic, cache=cache, n_segments=N_SEGMENTS)
    # without the check the wrong state is what the plan reports
    run = scan_with_cache(dotstar, traffic, cache=cache,
                          n_segments=N_SEGMENTS, verify=False)
    assert (run.backend, run.final_state) == ("sfa", wrong)


@needs_native
def test_a_wrong_interior_boundary_fails_verify(dotstar, traffic,
                                                monkeypatch):
    """Boundary 5 is wrong and the final state right: a check of the
    final state alone passes, the chained check names segment 4, the
    one that does not end on it."""
    cache = CompileCache()
    sfa = onto_sfa(dotstar, cache).sfa()
    honest = sfa.scan
    monkeypatch.setattr(sfa, "scan", tamper_boundary(sfa, 5, 1))
    run = scan_with_cache(dotstar, traffic, cache=cache,
                          n_segments=N_SEGMENTS, verify=False)
    assert (run.backend, run.final_state) == ("sfa", dotstar.run(traffic))
    with pytest.raises(AssertionError, match="chained walk at segment 4$"):
        scan_with_cache(dotstar, traffic, cache=cache, n_segments=N_SEGMENTS)
    # a boundary list of the wrong length fails too
    monkeypatch.setattr(sfa, "scan", lambda spans, state: (
        honest(spans, state)[0][:-1], False))
    with pytest.raises(AssertionError, match="16 boundaries for 16 segments"):
        scan_with_cache(dotstar, traffic, cache=cache, n_segments=N_SEGMENTS)


@needs_native
def test_sfa_runs_report_no_work_speedup(dotstar, traffic):
    """The chained check walks the segments as interleaved lanes and the
    lanes' times are even shares of one pass: no serial baseline, so an
    sfa run reports no work speedup rather than one past the ideal."""
    cache = CompileCache()
    onto_sfa(dotstar, cache)
    run = scan_with_cache(dotstar, traffic, cache=cache,
                          n_segments=N_SEGMENTS)
    assert run.backend == "sfa" and run.sequential_seconds > 0
    assert run.work_speedup is None and run.work_efficiency is None
    # the CSE plan still measures against its oracle walk
    cse = scan_with_cache(dotstar, traffic, cache=CompileCache(),
                          n_segments=N_SEGMENTS, backend="native")
    assert cse.backend == "native" and cse.work_speedup > 0
    assert cse.work_efficiency == cse.work_speedup / N_SEGMENTS
    unverified = scan_with_cache(dotstar, traffic, cache=CompileCache(),
                                 n_segments=N_SEGMENTS, backend="native",
                                 verify=False)
    assert unverified.work_speedup is None


@needs_native
def test_threads_verify_one_sfa_plan_artifact(dotstar):
    """Four threads scan one SFA-plan artifact with ``verify=True`` while
    its SFA grows: each call checks the boundaries its own scan returned,
    never another thread's."""
    cache = CompileCache()
    compiled = onto_sfa(dotstar, cache)
    words = [[packets(200 + 10 * t + i, 1 << 16) for i in range(4)]
             for t in range(4)]
    results = [[] for _ in range(4)]
    errors = []

    def scan(t):
        try:
            for word in words[t]:
                run = scan_with_cache(dotstar, word, cache=cache,
                                      n_segments=N_SEGMENTS)
                results[t].append((run.backend, run.final_state,
                                   run.sequential_seconds > 0))
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=scan, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for t in range(4):
        assert results[t] == [("sfa", dotstar.run(word), True)
                              for word in words[t]]
    assert verify_sfa(compiled.sfa(), dotstar) == []


@needs_native
def test_sfa_stays_in_memory(dotstar, traffic, tmp_path):
    cache = CompileCache()
    compiled = onto_sfa(dotstar, cache)
    run = scan_with_cache(dotstar, traffic, cache=cache,
                          n_segments=N_SEGMENTS, verify=False)
    assert run.backend == "sfa"
    assert compiled.sfa().rows > 0
    assert b"LazySfa" not in pickle.dumps(compiled)
    save_artifact(compiled, tmp_path)
    assert FORMAT_VERSION == 5
    loaded = load_artifact(tmp_path, compiled.key, dotstar.fingerprint)
    assert loaded._sfa is None and not loaded.sfa_abandoned
    # the grown SFA is still the one the artifact scans with
    assert compiled.sfa().rows > 0


def test_random64_never_tries_sfa(rng, monkeypatch):
    """An artifact whose CSE plan stays cheapest never tries the SFA.

    Timing-free: the artifact's plans hold fixed per-byte costs with CSE
    cheapest (CSE 1, walk 3) and ignore the scans' own samples, so no
    busy minute can tip the choice.  ``benchmarks/bench_kernels.py``'s
    ``auto_plan`` gate holds the measured claim on the random64 configs.
    """
    dfa = random_dfa(64, 16, np.random.default_rng(64))
    buffers = [rng.integers(0, 16, size=1 << 20, dtype=np.uint8)
               for _ in range(2)]
    cache = CompileCache()
    plans = cache.get_or_compile(dfa).plans
    for _ in range(PLAN_MIN_SAMPLES):
        plans.record("cse", False, 1.0)
        plans.record("walk", False, 3.0)
    monkeypatch.setattr(plans, "record", lambda plan, pooled, cost: None)
    with obs.using() as registry:
        runs = [scan_with_cache(dfa, buffers[i % 2], cache=cache,
                                verify=False)
                for i in range(20)]
        snapshot = registry.snapshot()
    assert "sfa" not in {run.backend for run in runs}
    assert "sfa" not in {plan for plan, _reason in plan_counts(snapshot)}
    assert plan_counts(snapshot) == {("cse", "walk-not-cheaper"): 20}
    # no scan paid for growth: the artifact never built its SFA
    assert cache.get_or_compile(dfa)._sfa is None
    assert all(run.final_state == dfa.run(buffers[i % 2])
               for i, run in enumerate(runs))


@needs_native
def test_budget_abandons_the_sfa(dotstar, traffic, monkeypatch):
    monkeypatch.setattr("repro.kernels.sfa.SFA_MAX_FUNCTIONS", 8)
    cache = CompileCache()
    scans = 2 * PLAN_MIN_SAMPLES + 4
    with obs.using() as registry:
        runs = [scan_with_cache(dotstar, traffic, cache=cache,
                                n_segments=N_SEGMENTS)
                for _ in range(scans)]
        snapshot = registry.snapshot()
    assert {run.final_state for run in runs} == {dotstar.run(traffic)}
    assert [run.backend for run in runs] == (
        ["native"] * PLAN_MIN_SAMPLES + ["walk"] * (scans - PLAN_MIN_SAMPLES))
    counts = plan_counts(snapshot)
    # the one scan that tried the SFA outgrew the budget and walked
    assert counts[("sfa", "unmeasured")] == 1
    assert counts[("walk", "sfa-abandoned")] == 1
    assert counts[("walk", "switched")] == scans - PLAN_MIN_SAMPLES - 2
    compiled = cache.get_or_compile(dotstar, n_segments=N_SEGMENTS)
    assert compiled.sfa_abandoned
    assert compiled.sfa().scan([traffic[:10]], 0) is None


def test_no_native_never_chooses_sfa(dotstar, traffic):
    with native_tier(absent=True):
        cache = CompileCache()
        with obs.using() as registry:
            runs = [scan_with_cache(dotstar, traffic[:1 << 16], cache=cache,
                                    n_segments=N_SEGMENTS)
                    for _ in range(3 * PLAN_MIN_SAMPLES + 2)]
            snapshot = registry.snapshot()
        assert runs[-1].backend == "walk"
        assert "sfa" not in {plan for plan, _reason in plan_counts(snapshot)}
        assert {run.final_state for run in runs} == {
            dotstar.run(traffic[:1 << 16])}


@needs_native
class TestLanes:
    """``native_lanes`` pauses a lane on a row not built and resumes it."""

    def machine(self):
        dfa = random_dfa(6, 3, np.random.default_rng(3))
        # state-major: entry [q, c] is the row offset of the state after c
        return dfa, np.ascontiguousarray(dfa.transitions.T * 3, dtype=np.int32)

    def test_pause_mid_span_and_on_the_last_symbol(self):
        dfa, full = self.machine()
        rng = np.random.default_rng(9)
        # eleven lanes fill the eight-lane rounds and refill them; one is
        # empty and one is a single symbol
        spans = [rng.integers(0, 3, size=n).astype(np.int64)
                 for n in (0, 1, 7, 30, 31, 64, 5, 100, 2, 9, 40)]
        starts = rng.integers(0, 6, size=len(spans))
        # a lane that reaches state 4 pauses: row 4 is not built
        table = full.copy()
        table[4] = -1
        lanes = Lanes(spans, 0)
        lanes.state[:] = starts * 3
        paused = native_lanes(table, lanes)
        ids = lanes.paused()
        assert paused == ids.size
        for i, span in enumerate(spans):
            pos, state = int(lanes.pos[i]), int(lanes.state[i]) // 3
            # every lane stopped exactly where the interpreted walk first
            # reads row 4, or ended
            want_pos = next(
                (t for t in range(span.size)
                 if dfa.run(span[:t], int(starts[i])) == 4), span.size)
            assert pos == want_pos
            assert state == dfa.run(span[:pos], int(starts[i]))
        # one lane pauses on its last symbol: the lane of length 1 from 4
        last = Lanes([np.asarray([2], dtype=np.int64)], 4 * 3)
        assert native_lanes(table, last) == 1
        assert (int(last.pos[0]), int(last.state[0])) == (0, 4 * 3)
        table[4] = full[4]
        assert native_lanes(table, last) == 0
        assert int(last.state[0]) == 3 * dfa.run([2], 4)
        # building the row resumes every paused lane to its walk's end
        assert native_lanes(table, lanes) == 0
        for i, span in enumerate(spans):
            assert int(lanes.pos[i]) == span.size
            assert int(lanes.state[i]) == 3 * dfa.run(span, int(starts[i]))

    def test_uint8_spans_and_refusals(self):
        dfa, full = self.machine()
        span = np.asarray([0, 1, 2, 2, 1], dtype=np.uint8)
        lanes = Lanes([span, span[2:]], 3)
        assert native_lanes(full, lanes) == 0
        assert lanes.state.tolist() == [
            3 * dfa.run(span, 1), 3 * dfa.run(span[2:], 1)]
        from repro.ingest import InputError

        with pytest.raises(InputError, match="symbol 3 at position 1"):
            native_lanes(full, Lanes([np.asarray([0, 3], np.uint8)], 0))
        bad = full.copy()
        bad[0, 0] = 6 * 3  # the offset of a row past the table
        with pytest.raises(RuntimeError):
            native_lanes(bad, Lanes([np.zeros(4, np.int64)], 0))
        with pytest.raises(RuntimeError):  # a start past the last row
            native_lanes(full, Lanes([np.zeros(4, np.int64)], 5 * 3 + 1))


@needs_native
def test_threads_scan_while_the_sfa_grows(dotstar, traffic):
    cache = CompileCache()
    # bring the artifact to its SFA trial: three CSE scans, three walks
    for _ in range(2 * PLAN_MIN_SAMPLES):
        scan_with_cache(dotstar, traffic, cache=cache, n_segments=N_SEGMENTS,
                        verify=False)
    compiled = cache.get_or_compile(dotstar, n_segments=N_SEGMENTS)
    assert compiled._sfa is None
    words = [[packets(100 * t + i, 1 << 17) for i in range(6)]
             for t in range(2)]
    results = [[], []]
    errors = []

    def scan(t):
        try:
            for word in words[t]:
                run = scan_with_cache(dotstar, word, cache=cache,
                                      n_segments=N_SEGMENTS, verify=False)
                results[t].append((run.backend, run.final_state))
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=scan, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for t in range(2):
        assert [final for _b, final in results[t]] == [
            dotstar.run(word) for word in words[t]]
    # both threads ran the SFA plan's trial scans, which grow the SFA
    assert {results[t][0][0] for t in range(2)} == {"sfa"}
    sfa = compiled.sfa()
    assert sfa.rows > 1 and not sfa.abandoned
    assert verify_sfa(sfa, dotstar) == []


@needs_native
def test_sfa_threads_share_growth(dotstar):
    """Two threads grow one fresh SFA at once; both stay exact."""
    sfa = LazySfa(dotstar)
    words = [packets(50 + i, 1 << 15) for i in range(8)]
    finals = {}

    def scan(i):
        word = words[i]
        spans = [word[a:a + 4096] for a in range(0, word.size, 4096)]
        finals[i] = sfa.scan(spans, dotstar.start)[0][-1]

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert finals == {i: dotstar.run(words[i]) for i in range(8)}
    assert verify_sfa(sfa, dotstar) == []


@needs_native
def test_k118_certifies_without_growing(dotstar, traffic):
    """A deep check probes a fresh SFA and reads the artifact's own SFA
    as it stands: it creates none and grows none."""
    cache = CompileCache()
    compiled = cache.get_or_compile(dotstar, n_segments=N_SEGMENTS)
    assert not [d for d in verify_compiled(compiled, deep=True)
                if d.code == "K118"]
    assert compiled._sfa is None
    onto_sfa(dotstar, cache)
    scan_with_cache(dotstar, traffic[:1 << 16], cache=cache,
                    n_segments=N_SEGMENTS, verify=False)
    sfa = compiled.sfa()
    size = (sfa.functions, sfa.rows)
    assert not [d for d in verify_compiled(compiled, deep=True)
                if d.code == "K118"]
    assert (sfa.functions, sfa.rows) == size
    # a row sending a symbol to the wrong function is K118
    s = int(sfa.grown()[1][-1])
    sfa.table[s, 0] = (sfa.table[s, 0] // sfa.alphabet_size + 1) \
        % sfa.functions * sfa.alphabet_size
    codes = [d.code for d in verify_compiled(compiled, deep=True)]
    assert codes.count("K118") == 1
    assert [d.location for d in verify_sfa(sfa, dotstar)] == [
        f"sfa.table[{s},0]"]
