"""Measured plan choice: an ``auto`` scan runs one walk where it is cheaper.

A scan through an ``auto`` artifact times its segment 0 (a plain
compiled walk) and its whole CSE plan, and keeps a short running median
of each per byte in the artifact
(:class:`repro.compilecache.artifact.PlanCosts`).
Once both medians rest on enough scans and the walk is
``PLAN_MARGIN`` cheaper, the next scans run the walk plan: one walk of
the whole input, no segment to a pool, nothing enumerated.  Dotstar06
never converges (effective M about 8), so there the walk wins; random64
collapses at once, so there the CSE plan stays.  These hold with the
native tier loaded and absent (``REPRO_NATIVE=0``), except where noted.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro import obs
from repro.automata.builders import random_dfa
from repro.compilecache import CompileCache, scan_with_cache
from repro.compilecache.artifact import PLAN_MARGIN, PLAN_MIN_SAMPLES
from repro.compilecache.store import load_artifact, save_artifact
from repro.ingest import open_input
from repro.kernels import native_available
from repro.regex.compile import compile_ruleset
from repro.software import segment_pool
from repro.workloads import generate_ruleset
from repro.workloads.corpus import packet_corpus

N_SEGMENTS = 8


@pytest.fixture(scope="module")
def dotstar():
    return compile_ruleset(generate_ruleset("Dotstar06", 8, 2))


@pytest.fixture(scope="module")
def packets():
    return packet_corpus(np.random.default_rng(7), 64 << 10).astype(np.uint8)


def plan_counts(snapshot):
    return {
        (m["labels"]["plan"], m["labels"]["reason"]): m["value"]
        for m in snapshot["metrics"] if m["name"] == "kernels_plan_total"
    }


def totals(snapshot):
    return {m["name"]: m.get("value") for m in snapshot["metrics"]}


def scan_spans(snapshot):
    return [s for s in snapshot["spans"] if s["name"] == "software.scan"]


class TestDotstarSwitchesToWalk:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_verified_scans_switch_and_stay_exact(self, dotstar, packets,
                                                  pooled):
        cache = CompileCache()
        want = dotstar.run(packets)
        scans = PLAN_MIN_SAMPLES + 3
        with obs.using() as registry:
            if pooled:
                with segment_pool(dotstar, max_workers=2) as pool:
                    runs = [scan_with_cache(dotstar, packets, cache=cache,
                                            n_segments=N_SEGMENTS,
                                            executor=pool)
                            for _ in range(scans)]
            else:
                runs = [scan_with_cache(dotstar, packets, cache=cache,
                                        n_segments=N_SEGMENTS)
                        for _ in range(scans)]
            snapshot = registry.snapshot()
        assert all(run.final_state == want for run in runs)
        cse = "native" if native_available() else "python"
        assert [run.backend for run in runs] == (
            [cse] * PLAN_MIN_SAMPLES + ["walk"] * 3)
        for run in runs[PLAN_MIN_SAMPLES:]:
            assert run.n_segments == 1 and run.reexec_segments == 0
            assert run.requested_backend == "auto"
            # verify=True still ran the oracle on the walk plan
            assert run.sequential_seconds > 0
        assert plan_counts(snapshot) == {
            ("cse", "unmeasured"): PLAN_MIN_SAMPLES,
            ("walk", "walk-cheaper"): 1,
            ("walk", "switched"): 2,
        }
        # the costs that drove the switch are on every scan span
        spans = scan_spans(snapshot)
        assert [s["args"]["backend"] for s in spans] == [
            run.backend for run in runs]
        for span in spans[PLAN_MIN_SAMPLES:]:
            args = span["args"]
            assert args["walk_ns_per_byte"] * PLAN_MARGIN \
                <= args["cse_ns_per_byte"]
        if pooled:
            # the walk plan sent no segment to the pool
            assert totals(snapshot)["software_worker_segments_total"] == (
                PLAN_MIN_SAMPLES * (N_SEGMENTS - 1))

    def test_pooled_and_unpooled_costs_are_kept_apart(self, dotstar,
                                                      packets):
        cache = CompileCache()
        for _ in range(PLAN_MIN_SAMPLES):
            scan_with_cache(dotstar, packets, cache=cache,
                            n_segments=N_SEGMENTS)
        assert scan_with_cache(dotstar, packets, cache=cache,
                               n_segments=N_SEGMENTS).backend == "walk"
        with segment_pool(dotstar, max_workers=2) as pool:
            # the pooled CSE plan has not been measured yet
            run = scan_with_cache(dotstar, packets, cache=cache,
                                  n_segments=N_SEGMENTS, executor=pool)
        assert run.backend != "walk"

    def test_walk_plan_honours_start_state(self, dotstar, packets):
        cache = CompileCache()
        start = dotstar.num_states - 1
        runs = [scan_with_cache(dotstar, packets, cache=cache,
                                n_segments=N_SEGMENTS, start_state=start)
                for _ in range(PLAN_MIN_SAMPLES + 1)]
        assert runs[-1].backend == "walk"
        assert {run.final_state for run in runs} == {
            dotstar.run(packets, start)}


@pytest.mark.skipif(not native_available(),
                    reason="without the native library one interpreted "
                           "walk beats every CSE plan, so auto switches")
def test_random64_stays_native(rng):
    dfa = random_dfa(64, 16, np.random.default_rng(64))
    buffers = [rng.integers(0, 16, size=1 << 20, dtype=np.uint8)
               for _ in range(2)]
    cache = CompileCache()
    with obs.using() as registry:
        runs = [scan_with_cache(dfa, buffers[i % 2], cache=cache,
                                verify=False)
                for i in range(20)]
        snapshot = registry.snapshot()
    assert [run.backend for run in runs] == ["native"] * 20
    assert all(run.final_state == dfa.run(buffers[i % 2])
               for i, run in enumerate(runs))
    counts = plan_counts(snapshot)
    assert set(plan for plan, _reason in counts) == {"cse"}
    assert counts[("cse", "walk-not-cheaper")] == 20 - PLAN_MIN_SAMPLES


def test_explicit_native_keeps_the_pool(dotstar, packets, tmp_path):
    """An explicit backend never switches: every scan of a file reaches
    the pool's workers as mmap coordinates, as file-pool-dotstar's did."""
    path = tmp_path / "packets.bin"
    path.write_bytes(packets.tobytes())
    cache = CompileCache()
    scans = PLAN_MIN_SAMPLES + 2
    with obs.using() as registry:
        with segment_pool(dotstar, max_workers=2) as pool, \
                open_input(path) as view:
            runs = [scan_with_cache(dotstar, view, cache=cache,
                                    n_segments=N_SEGMENTS, executor=pool,
                                    backend="native")
                    for _ in range(scans)]
        snapshot = registry.snapshot()
    names = totals(snapshot)
    assert names["software_worker_segments_total"] == (
        scans * (N_SEGMENTS - 1))
    assert names["software_mmap_scans_total"] == scans
    assert "kernels_plan_total" not in names
    assert {run.backend for run in runs} == {
        "native" if native_available() else "python"}
    assert {run.final_state for run in runs} == {dotstar.run(packets)}


def test_prefilter_never_measures_a_walk():
    dfa = compile_ruleset(["needle", "haystack"])
    text = np.frombuffer(b"hay needle stack " * 2000, dtype=np.uint8)
    cache = CompileCache()
    with obs.using() as registry:
        runs = [scan_with_cache(dfa, text, cache=cache, n_segments=4)
                for _ in range(PLAN_MIN_SAMPLES + 2)]
        snapshot = registry.snapshot()
    assert {run.backend for run in runs} == {"prefilter"}
    assert plan_counts(snapshot) == {
        ("cse", "prefilter"): PLAN_MIN_SAMPLES + 2}


def test_costs_stay_in_memory(dotstar, packets, tmp_path):
    cache = CompileCache(cache_dir=tmp_path)
    for _ in range(PLAN_MIN_SAMPLES + 1):
        run = scan_with_cache(dotstar, packets, cache=cache,
                              n_segments=N_SEGMENTS)
    assert run.backend == "walk"
    compiled = cache.get_or_compile(dotstar, n_segments=N_SEGMENTS)
    save_artifact(compiled, tmp_path)
    loaded = load_artifact(tmp_path, compiled.key, dotstar.fingerprint)
    assert loaded.plans.choose(False) == ("cse", "unmeasured")
    assert loaded.plans.median("walk", False) is None
    assert b"PlanCosts" not in pickle.dumps(compiled)
    # a fresh process scans its reloaded artifact on the CSE plan first
    cache.clear_memory()
    run = scan_with_cache(dotstar, packets, cache=cache,
                          n_segments=N_SEGMENTS)
    assert run.backend != "walk"


def test_numpy_ma_loads_with_the_package():
    """The first ``np.unique`` of a process imports ``numpy.ma`` (about
    15 ms); importing the package pays it, so no scan's plan sample does."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, repro.software; print('numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
