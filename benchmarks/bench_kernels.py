"""Microbenchmark: vectorized software kernels vs the interpreted path.

Times the per-segment interpreted reference (``run_segment`` with
``backend="python"``) against the batched kernels
(:func:`repro.kernels.run_segments_batch`) on several DFA/partition
profiles, asserts bit-identical outcomes, and writes the results to
``BENCH_software_kernels.json`` at the repository root.

Besides the backends, each config times whole scans of the input, each
best of three and each admitting the input: ``cse``, the CSE plan
(``software_cse_scan`` with the resolved backend, ``verify=False``:
segment 0, the batched segments and the composition), and the two
one-pass plans an ``auto`` scan may choose instead
(:class:`repro.compilecache.artifact.PlanCosts`): ``walk``, one walk of
the whole input, and, when the library loads, ``sfa``, one lane per
segment over the machine's lazily grown SFA composed onto the start
state (after one growing scan; not eligible when the SFA outgrows its
budget).  ``auto_plan`` is the plan a ``PlanCosts`` fed these per-byte
costs settles on: the resolved backend, or ``walk`` / ``sfa``.

Gates (full mode only; the native-vs-python bar on ``random64/discrete``
lives in ``benchmarks/bench_native.py``):

- ``random64/trivial`` resolves (``backend="auto"``) to a backend whose
  measured speedup vs the interpreter is >= 1x — the interpreter itself
  qualifies, and one block gives the batched kernels nothing to amortize;
- every config's ``auto_backend`` runs within 1.2x of the fastest
  eligible bit-identical backend: the interpreter, native when the
  library loads, and prefilter only where the DFA is certified
  (elsewhere it runs the native frontier under its name);
- every config whose artifact chooses a plan settles (``auto_plan``)
  within 1.2x of the fastest of its whole-scan plans: the CSE plan, the
  walk, and the SFA where it fits its budget.  A prefilter artifact
  never chooses a plan, so its ``auto_plan_over_fastest`` is recorded,
  not gated;
- **sfa >= 1.5x walk end to end** on Dotstar06 (perfbench's
  ``file-pool-dotstar`` machine), 1 MiB packet buffers,
  ``scan_with_cache(..., verify=False)``: the median walk-plan call
  against the median SFA-plan call that grew no row, over three fresh
  artifacts;
- **verified sfa >= 1.5x verified walk** on the same buffers,
  ``scan_with_cache(..., verify=True)``: the walk plan checked by the
  serial oracle walk against the SFA plan checked by the chained walk
  of its lanes, each on an artifact settled on its plan with fixed
  samples, medians of calls taken in turns.

``random1024/discrete`` measures the kernels on a machine four times the
uint8 width, where the dense tables the native tier reads narrow to
uint16.

Run::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full, ~2 min
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI, seconds
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from env_info import env_info  # noqa: E402 — benchmarks/ sibling module

from repro.automata.builders import cycle_dfa, random_dfa
from repro.compilecache import CompileCache, scan_with_cache
from repro.compilecache.artifact import PLAN_MIN_SAMPLES, PlanCosts
from repro.core.partition import StatePartition
from repro.core.profiling import ProfilingConfig, predict_convergence_sets
from repro.engines.base import even_boundaries
from repro.ingest import admit
from repro.kernels import (
    KERNEL_BACKENDS,
    certify_prefilter,
    native_available,
    resolve_backend,
    run_segments_batch,
    walk,
)
from repro.kernels.sfa import LazySfa
from repro.regex.compile import compile_ruleset
from repro.software import run_segment, software_cse_scan
from repro.workloads import generate_ruleset
from repro.workloads.corpus import packet_corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_software_kernels.json"
RULES = ["cat", "dog", "fi(sh|ne)", "gr[ae]y", "colou?r"]


def functions_equal(a, b) -> bool:
    return len(a.outcomes) == len(b.outcomes) and all(
        oa.converged == ob.converged
        and oa.state == ob.state
        and np.array_equal(oa.states, ob.states)
        for oa, ob in zip(a.outcomes, b.outcomes)
    )


def build_configs(rng, n_symbols: int) -> List[Dict]:
    """(name, dfa, partition, word) benchmark configurations."""
    ruleset = compile_ruleset(RULES)
    profiled = predict_convergence_sets(
        ruleset,
        ProfilingConfig(n_inputs=200, input_len=200, symbol_low=97, symbol_high=122),
    ).partition
    random64 = random_dfa(64, 16, rng)
    return [
        {
            "name": "random64/discrete",
            "dfa": random64,
            "partition": StatePartition.discrete(64),
            "word": rng.integers(0, 16, size=n_symbols),
        },
        {
            "name": "random64/trivial",
            "dfa": random64,
            "partition": StatePartition.trivial(64),
            "word": rng.integers(0, 16, size=n_symbols),
        },
        {
            "name": "ruleset/profiled",
            "dfa": ruleset,
            "partition": profiled,
            "word": rng.integers(97, 123, size=n_symbols),
        },
        {
            "name": "cycle128/trivial",
            "dfa": cycle_dfa(128),
            "partition": StatePartition.trivial(128),
            "word": rng.integers(0, 2, size=n_symbols),
        },
        {
            "name": "random1024/discrete",
            "dfa": random_dfa(1024, 8, rng),
            "partition": StatePartition.discrete(1024),
            "word": rng.integers(0, 8, size=n_symbols),
        },
    ]


def bench_config(config: Dict, n_segments: int) -> Dict:
    dfa, partition, word = config["dfa"], config["partition"], config["word"]
    bounds = even_boundaries(int(word.size), n_segments)[1:]
    segments = [word[a:b] for a, b in bounds]

    begin = time.perf_counter()
    reference = [run_segment(dfa, partition, s)[0] for s in segments]
    python_seconds = time.perf_counter() - begin

    entry = {
        "config": config["name"],
        "n_states": dfa.num_states,
        "n_blocks": partition.num_blocks,
        "n_symbols": int(word.size),
        "n_segments": n_segments,
        "python_seconds": python_seconds,
        # what backend="auto" runs for this machine: prefilter when it is
        # literal-certified, else native when the library loads, else
        # python
        "auto_backend": resolve_backend(dfa),
    }
    for backend in KERNEL_BACKENDS:
        begin = time.perf_counter()
        functions = run_segments_batch(dfa, partition, segments, backend=backend)
        seconds = time.perf_counter() - begin
        identical = all(
            functions_equal(ref, fn) for ref, fn in zip(reference, functions)
        )
        if not identical:
            raise AssertionError(f"{config['name']}/{backend} diverged from python")
        entry[f"{backend}_seconds"] = seconds
        entry[f"{backend}_speedup"] = python_seconds / seconds if seconds else 0.0
        entry[f"{backend}_bit_identical"] = identical
    # the speedup (vs python) of the backend "auto" actually picks — the
    # number the trivial-partition regression gate reads
    auto = entry["auto_backend"]
    entry["auto_backend_speedup"] = (
        1.0 if auto == "python" else entry[f"{auto}_speedup"]
    )
    # what auto may pick from: prefilter only where the DFA is certified
    # (elsewhere its run is the native frontier), native only where the
    # library loads (elsewhere its run is the interpreted loop)
    eligible = {"python": python_seconds}
    if native_available():
        eligible["native"] = entry["native_seconds"]
    if certify_prefilter(dfa) is not None:
        eligible["prefilter"] = entry["prefilter_seconds"]
    fastest = min(eligible, key=eligible.__getitem__)
    entry["fastest_eligible_backend"] = fastest
    entry["auto_over_fastest"] = eligible[auto] / eligible[fastest]
    # whole scans, in one unit: the CSE plan on the resolved backend and
    # the one-pass plans, the SFA only where the library loads and it
    # fits its budget
    entry["cse_seconds"] = best_of(3, lambda: software_cse_scan(
        dfa, word, partition, n_segments=n_segments, backend=auto,
        verify=False))
    entry["walk_seconds"] = best_of(3, lambda: walk(dfa, word))
    entry["sfa_seconds"] = sfa_seconds(dfa, word, n_segments)
    plans = {"cse": entry["cse_seconds"], "walk": entry["walk_seconds"]}
    if entry["sfa_seconds"] is not None:
        plans["sfa"] = entry["sfa_seconds"]
    settled = settled_plan(entry, plans)
    fastest_plan = min(plans, key=plans.__getitem__)
    entry["auto_plan"] = auto if settled == "cse" else settled
    entry["fastest_plan"] = auto if fastest_plan == "cse" else fastest_plan
    entry["auto_plan_over_fastest"] = plans[settled] / plans[fastest_plan]
    return entry


def best_of(repeats: int, call) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - begin)
    return best


def sfa_seconds(dfa, word, n_segments: int):
    """Best of three whole SFA-plan scans after one growing scan.

    Each scan admits the input, cuts it into ``n_segments`` lanes, walks
    them and composes their functions, as ``auto``'s SFA plan does.
    ``None`` without the native library or when the SFA outgrows its
    budget; a wrong final state raises.
    """
    if not native_available():
        return None
    sfa = LazySfa(dfa)

    def scan():
        syms = admit(word, dfa.alphabet_size)
        bounds = even_boundaries(int(syms.size), n_segments)
        return sfa.scan([syms[a:b] for a, b in bounds], dfa.start)

    done = scan()
    if done is None:
        return None
    if done[0][-1] != dfa.run(word):
        raise AssertionError("SFA lanes diverged from Dfa.run")
    return best_of(3, scan)


def settled_plan(entry: Dict, plans: Dict[str, float]) -> str:
    """The plan an ``auto`` artifact settles on at these whole-scan costs.

    Feeds a fresh :class:`PlanCosts` the config's costs per byte the way
    scans do (a CSE scan samples the CSE plan and a walk, a one-pass plan
    itself) for enough scans to settle.  Prefilter scans never choose,
    so a prefilter artifact stays on ``"cse"``.
    """
    if entry["auto_backend"] == "prefilter":
        return "cse"
    per_byte = 1e9 / entry["n_symbols"]
    costs = PlanCosts()
    plan = "cse"
    for _ in range(4 * PLAN_MIN_SAMPLES + 2):
        plan, _reason = costs.choose(False, sfa="sfa" in plans)
        if plan == "cse":
            costs.record("walk", False, plans["walk"] * per_byte)
        costs.record(plan, False, plans[plan] * per_byte)
    return plan


def bench_dotstar_plans(n_bytes: int, artifacts: int) -> Dict:
    """End-to-end walk-plan vs SFA-plan calls on Dotstar06 traffic.

    Each fresh artifact scans four packet buffers in turn with
    ``scan_with_cache(..., verify=False)`` until it has made sixteen
    SFA-plan calls that grew no row; those and its walk-plan calls are
    timed whole.
    """
    dfa = compile_ruleset(generate_ruleset("Dotstar06", 8, 2))
    rng = np.random.default_rng(2)
    buffers = [packet_corpus(rng, n_bytes).astype(np.uint8)
               for _ in range(4)]
    want = [dfa.run(buf) for buf in buffers]
    times: Dict[str, List[float]] = {"walk": [], "sfa": []}
    for _ in range(artifacts):
        cache = CompileCache()
        sfa = cache.get_or_compile(dfa).sfa()
        clean = 0
        for call in range(200):
            i = call % len(buffers)
            rows = sfa.rows
            begin = time.perf_counter()
            run = scan_with_cache(dfa, buffers[i], cache=cache, verify=False)
            seconds = time.perf_counter() - begin
            if run.final_state != want[i]:
                raise AssertionError(f"{run.backend} plan diverged")
            if run.backend in times and sfa.rows == rows:
                times[run.backend].append(seconds)
                clean += run.backend == "sfa"
            if clean == 16:
                break
    walk_med = float(np.median(times["walk"])) if times["walk"] else None
    sfa_med = float(np.median(times["sfa"])) if times["sfa"] else None
    verified = bench_verified_plans(dfa, buffers, want)
    return {
        "config": "Dotstar06/e2e",
        "n_symbols": n_bytes,
        "n_segments": 16,
        "walk_calls": len(times["walk"]),
        "sfa_calls": len(times["sfa"]),
        "walk_median_seconds": walk_med,
        "sfa_median_seconds": sfa_med,
        "sfa_over_walk_speedup": (
            walk_med / sfa_med if walk_med and sfa_med else None),
        **verified,
    }


def settled_on(dfa, plan: str) -> CompileCache:
    """A cache whose artifact for ``dfa`` runs ``plan`` from now on.

    Fixed per-byte costs (CSE 10, walk 3, and SFA 1 for ``"sfa"`` or 10
    for ``"walk"``) take the decisions a measured artifact would, so
    every later ``auto`` scan runs ``plan``.
    """
    cache = CompileCache()
    plans = cache.get_or_compile(dfa).plans
    for _ in range(PLAN_MIN_SAMPLES):
        plans.record("cse", False, 10.0)
        plans.record("walk", False, 3.0)
    for _ in range(PLAN_MIN_SAMPLES):
        plans.choose(False, True)
    for _ in range(PLAN_MIN_SAMPLES):
        plans.record("sfa", False, 1.0 if plan == "sfa" else 10.0)
    assert plans.choose(False, True)[0] == plan
    return cache


def bench_verified_plans(dfa, buffers, want, calls: int = 24) -> Dict:
    """Verified calls, ``scan_with_cache(..., verify=True)``, per plan.

    One artifact settled on the walk plan (its check the serial oracle
    walk) and one on the SFA plan (its check the chained walk of its
    lanes) scan the buffers once untimed, growing the SFA, then take
    turns for ``calls`` timed calls each; an SFA-plan call that grew a
    row is not counted.
    """
    caches = {plan: settled_on(dfa, plan) for plan in ("walk", "sfa")}
    sfa = caches["sfa"].get_or_compile(dfa).sfa()
    for plan, cache in caches.items():
        for buf in buffers:
            scan_with_cache(dfa, buf, cache=cache)
    times: Dict[str, List[float]] = {"walk": [], "sfa": []}
    for call in range(calls):
        i = call % len(buffers)
        for plan, cache in caches.items():
            rows = sfa.rows
            begin = time.perf_counter()
            run = scan_with_cache(dfa, buffers[i], cache=cache)
            seconds = time.perf_counter() - begin
            if (run.backend, run.final_state) != (plan, want[i]):
                raise AssertionError(f"verified {plan} plan ran "
                                     f"{run.backend} or diverged")
            if sfa.rows == rows:
                times[plan].append(seconds)
    walk_med = float(np.median(times["walk"]))
    sfa_med = float(np.median(times["sfa"])) if times["sfa"] else None
    return {
        "verified_walk_calls": len(times["walk"]),
        "verified_sfa_calls": len(times["sfa"]),
        "verified_walk_median_seconds": walk_med,
        "verified_sfa_median_seconds": sfa_med,
        "verified_sfa_over_walk_speedup": (
            walk_med / sfa_med if sfa_med else None),
    }


def fmt_ms(seconds) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.2f}ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input for CI; skips the gates")
    parser.add_argument("--size", type=int, default=1_000_000,
                        help="input symbols per configuration")
    parser.add_argument("--segments", type=int, default=16)
    parser.add_argument("--seed", type=int, default=20180623)
    args = parser.parse_args(argv)

    n_symbols = 40_000 if args.smoke else args.size
    rng = np.random.default_rng(args.seed)
    results = []
    for config in build_configs(rng, n_symbols):
        entry = bench_config(config, args.segments)
        results.append(entry)
        speedups = "  ".join(f"{b} {entry[f'{b}_speedup']:6.1f}x"
                             for b in KERNEL_BACKENDS)
        print(f"{entry['config']:<20} python {entry['python_seconds']:.3f}s  "
              f"{speedups}  cse {fmt_ms(entry['cse_seconds'])}  "
              f"walk {fmt_ms(entry['walk_seconds'])}  "
              f"sfa {fmt_ms(entry['sfa_seconds'])}  "
              f"(auto={entry['auto_backend']}, plan={entry['auto_plan']})")
        if args.smoke:
            continue
        if entry["config"] == "random64/trivial" \
                and entry["auto_backend_speedup"] < 1.0:
            raise SystemExit(
                f"regression gate failed: random64/trivial resolves to "
                f"{entry['auto_backend']} at "
                f"{entry['auto_backend_speedup']:.2f}x (< 1x vs interpreter)"
            )
        if entry["auto_over_fastest"] > 1.2:
            raise SystemExit(
                f"resolver gate failed: {entry['config']} resolves to "
                f"{entry['auto_backend']}, {entry['auto_over_fastest']:.2f}x "
                f"the time of {entry['fastest_eligible_backend']} (> 1.2x)"
            )
        if entry["auto_backend"] != "prefilter" \
                and entry["auto_plan_over_fastest"] > 1.2:
            raise SystemExit(
                f"plan choice gate failed: {entry['config']} settles on "
                f"{entry['auto_plan']}, "
                f"{entry['auto_plan_over_fastest']:.2f}x the whole-scan "
                f"time of {entry['fastest_plan']} (> 1.2x)"
            )
    plans = None
    if native_available():
        plans = bench_dotstar_plans(
            1 << 14 if args.smoke else 1 << 20, 1 if args.smoke else 3)
        print(f"{plans['config']:<20} walk plan "
              f"{fmt_ms(plans['walk_median_seconds'])} ({plans['walk_calls']}"
              f" calls)  sfa plan {fmt_ms(plans['sfa_median_seconds'])} "
              f"({plans['sfa_calls']} calls)")
        print(f"{plans['config']:<20} verified walk plan "
              f"{fmt_ms(plans['verified_walk_median_seconds'])} "
              f"({plans['verified_walk_calls']} calls)  verified sfa plan "
              f"{fmt_ms(plans['verified_sfa_median_seconds'])} "
              f"({plans['verified_sfa_calls']} calls)")
        for key, what in (("sfa_over_walk_speedup", ""),
                          ("verified_sfa_over_walk_speedup", "verified ")):
            speedup = plans[key]
            if not args.smoke and (speedup is None or speedup < 1.5):
                raise SystemExit(
                    f"plan gate failed: on Dotstar06 the {what}SFA plan "
                    f"is {speedup if speedup is None else round(speedup, 2)}"
                    f"x the {what}walk plan end to end (< 1.5x)")

    ARTIFACT.write_text(json.dumps(
        {
            "benchmark": "software kernel backends vs interpreted run_segment",
            "smoke": bool(args.smoke),
            "acceptance_gate": "random64/trivial auto backend >= 1x; "
                               "every auto backend within 1.2x of the "
                               "fastest eligible backend; every "
                               "plan-choosing auto plan within 1.2x of "
                               "the fastest whole-scan plan; "
                               "sfa >= 1.5x walk end to end on "
                               "Dotstar06 1 MiB, unverified and "
                               "verified",
            "env": env_info(),
            "results": results,
            "plans": plans,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {ARTIFACT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
