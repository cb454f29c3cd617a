"""Microbenchmark: the literal-prefilter fast path vs the native frontier.

Times ``backend="prefilter"`` against ``backend="native"`` on
literal-heavy payloads across match densities, plus the two cases the
fast path must *not* regress: an adversarially anchor-dense payload
(every segment falls back inside the kernel) and an uncertifiable
machine (``run_segments_batch`` degrades the request to the native
frontier up front).  Asserts bit-identical outcomes everywhere — including
mmap vs in-memory ingestion — and writes ``BENCH_prefilter.json`` at the
repository root.

Gates (full mode only):

- **prefilter >= 3x native** on the acceptance config — LiteralHeavy
  ruleset, 4 MB payload at sparse match density, 16 segments;
- **fallback <= 1.05x native** on the uncertifiable config: a degraded
  ``backend="prefilter"`` request must cost no more than asking for
  native directly (certification is memoized, so the retry is O(1)).

Run::

    PYTHONPATH=src python benchmarks/bench_prefilter.py          # full
    PYTHONPATH=src python benchmarks/bench_prefilter.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from env_info import env_info  # noqa: E402 — benchmarks/ sibling module

from repro.automata.builders import random_dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.ingest import open_input
from repro.kernels import certify_prefilter, resolve_backend, run_segments_batch
from repro.regex.compile import compile_ruleset
from repro.software import software_cse_scan
from repro.workloads import generate_ruleset, literal_payload

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_prefilter.json"


def functions_equal(a, b) -> bool:
    return len(a.outcomes) == len(b.outcomes) and all(
        oa.converged == ob.converged
        and oa.state == ob.state
        and np.array_equal(oa.states, ob.states)
        for oa, ob in zip(a.outcomes, b.outcomes)
    )


def build_configs(rng_seed: int, n_bytes: int) -> List[Dict]:
    """Literal-heavy profiles across densities + the two fallback cases."""
    patterns = generate_ruleset("LiteralHeavy", 12, rng_seed)
    dfa = compile_ruleset(patterns)
    partition = StatePartition.discrete(dfa.num_states)
    configs = []
    for name, density, adversarial, acceptance in (
        ("literal/clean", 0.0, False, False),
        ("literal/sparse", 0.0005, False, True),
        ("literal/dense-matches", 0.02, False, False),
        ("literal/adversarial", 0.3, True, False),
    ):
        payload = literal_payload(
            patterns, n_bytes, match_density=density,
            seed=rng_seed + 1, adversarial=adversarial,
        )
        configs.append({
            "name": name,
            "dfa": dfa,
            "partition": partition,
            "payload": payload,
            "acceptance": acceptance,
            "fallback_gate": False,
        })
    rng = np.random.default_rng(rng_seed)
    uncert = random_dfa(64, 16, rng)
    configs.append({
        "name": "random64/uncertifiable",
        "dfa": uncert,
        "partition": StatePartition.discrete(64),
        "payload": rng.integers(0, 16, size=n_bytes).astype(np.uint8).tobytes(),
        "acceptance": False,
        "fallback_gate": True,
    })
    return configs


def bench_config(config: Dict, n_segments: int, repeat: int) -> Dict:
    dfa, partition = config["dfa"], config["partition"]
    word = np.frombuffer(config["payload"], dtype=np.uint8)
    if dfa.alphabet_size < 256:
        word = word.astype(np.int64) % dfa.alphabet_size
    bounds = even_boundaries(int(word.size), n_segments)[1:]
    segments = [word[a:b] for a, b in bounds]
    certified = certify_prefilter(dfa) is not None

    entry = {
        "config": config["name"],
        "n_states": dfa.num_states,
        "n_symbols": int(word.size),
        "n_segments": n_segments,
        "certified": certified,
        "acceptance_config": config["acceptance"],
        "fallback_config": config["fallback_gate"],
        "auto_backend": resolve_backend(dfa),
    }
    reference = None
    for backend in ("native", "prefilter"):
        best = float("inf")
        for _ in range(repeat):
            begin = time.perf_counter()
            functions = run_segments_batch(
                dfa, partition, segments, backend=backend
            )
            best = min(best, time.perf_counter() - begin)
        if reference is None:
            reference = functions
        elif not all(functions_equal(r, f)
                     for r, f in zip(reference, functions)):
            raise AssertionError(
                f"{config['name']}/{backend} diverged from native"
            )
        entry[f"{backend}_seconds"] = best
    entry["prefilter_vs_native"] = (
        entry["native_seconds"] / entry["prefilter_seconds"]
        if entry["prefilter_seconds"] else 0.0
    )
    entry["bit_identical"] = True
    return entry


def bench_mmap(config: Dict, n_segments: int) -> Dict:
    """End-to-end scan, mmap ingestion vs in-memory bytes: same answer."""
    dfa, partition = config["dfa"], config["partition"]
    payload = config["payload"]
    want = software_cse_scan(
        dfa, payload, partition, n_segments=n_segments, backend="prefilter"
    )
    with tempfile.NamedTemporaryFile(dir=ROOT, suffix=".payload") as tmp:
        tmp.write(payload)
        tmp.flush()
        begin = time.perf_counter()
        with open_input(tmp.name) as view:
            got = software_cse_scan(
                dfa, view, partition, n_segments=n_segments,
                backend="prefilter",
            )
        mmap_seconds = time.perf_counter() - begin
    if got.final_state != want.final_state:
        raise AssertionError("mmap ingestion diverged from bytes ingestion")
    return {
        "config": f"{config['name']}/mmap",
        "mmap_seconds": mmap_seconds,
        "final_state": int(got.final_state),
        "mmap_equals_bytes": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input for CI; skips the timing gates")
    parser.add_argument("--size", type=int, default=4_000_000,
                        help="payload bytes per configuration")
    parser.add_argument("--segments", type=int, default=16)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--seed", type=int, default=20180623)
    args = parser.parse_args(argv)

    n_bytes = 100_000 if args.smoke else args.size
    results = []
    configs = build_configs(args.seed, n_bytes)
    for config in configs:
        entry = bench_config(config, args.segments, max(1, args.repeat))
        results.append(entry)
        print(f"{entry['config']:<24} native {entry['native_seconds']:.3f}s  "
              f"prefilter {entry['prefilter_seconds']:.3f}s  "
              f"ratio {entry['prefilter_vs_native']:5.2f}x  "
              f"certified={entry['certified']}  "
              f"auto={entry['auto_backend']}")
        if entry["acceptance_config"] and not args.smoke \
                and entry["prefilter_vs_native"] < 3.0:
            raise SystemExit(
                f"acceptance gate failed: prefilter only "
                f"{entry['prefilter_vs_native']:.2f}x over native (< 3x)"
            )
        if entry["fallback_config"] and not args.smoke \
                and entry["prefilter_seconds"] > entry["native_seconds"] * 1.05:
            raise SystemExit(
                f"fallback gate failed: degraded prefilter request costs "
                f"{entry['prefilter_seconds'] / entry['native_seconds']:.3f}x "
                "native (> 1.05x)"
            )
    # certified configs only: mmap ingestion equivalence + timing
    mmap_entry = bench_mmap(configs[1], args.segments)
    results.append(mmap_entry)
    print(f"{mmap_entry['config']:<24} mmap "
          f"{mmap_entry['mmap_seconds']:.3f}s  bit-identical to bytes")

    ARTIFACT.write_text(json.dumps(
        {
            "benchmark": "literal prefilter vs native frontier",
            "smoke": bool(args.smoke),
            "acceptance_gate": "prefilter >= 3x native on literal/sparse; "
                               "uncertifiable fallback <= 1.05x native",
            "env": env_info(),
            "results": results,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {ARTIFACT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
