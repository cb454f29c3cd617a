"""Microbenchmark: the compiled native set-flow tier vs the interpreter.

Times ``backend="native"`` against the interpreted reference
(``run_segment``, the ``python`` backend) across machine sizes and table
dtypes, asserting bit-identical outcomes everywhere, and exercises the
documented
degradation once with the native tier force-disabled (``REPRO_NATIVE=0``
semantics via the loader reset).  Writes ``BENCH_native_kernels.json``
at the repository root, stamped with compiled-tier provenance
(compiler id/version, library digest, SIMD flags) via ``env_info``.

Gates (full mode only):

- **native >= 15x python** on the acceptance config — 64-state random
  DFA, 1 MB of input, 16 segments, one convergence set per state (the
  product of the retired bars "dense >= 5x python" and "native >= 3x
  dense");
- the forced-fallback run must produce bit-identical outcomes through
  ``backend="native"`` with the library absent (exit path, not a perf
  gate).

Full mode requires the native library to be buildable; smoke mode
tolerates a toolchain-less host (records ``native_available: false``
and exits 0 — the fallback path is still exercised).

Run::

    PYTHONPATH=src python benchmarks/bench_native.py          # full, ~1 min
    PYTHONPATH=src python benchmarks/bench_native.py --smoke  # CI, seconds
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from env_info import env_info  # noqa: E402 — benchmarks/ sibling module

from repro.automata.builders import random_dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.kernels import native_available, resolve_backend, run_segments_batch
from repro.kernels.native import ENV_DISABLE, reset_native
from repro.software import run_segment

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_native_kernels.json"
ACCEPTANCE_SPEEDUP = 15.0


def functions_equal(a, b) -> bool:
    return len(a.outcomes) == len(b.outcomes) and all(
        oa.converged == ob.converged
        and oa.state == ob.state
        and np.array_equal(oa.states, ob.states)
        for oa, ob in zip(a.outcomes, b.outcomes)
    )


def build_configs(rng, n_symbols: int) -> List[Dict]:
    """Profiles spanning both narrowed table dtypes + the acceptance one."""
    configs = []
    for n_states, alphabet in ((16, 8), (64, 16), (256, 16), (500, 8)):
        configs.append({
            "name": f"random{n_states}/discrete",
            "dfa": random_dfa(n_states, alphabet, rng),
            "partition": StatePartition.discrete(n_states),
            "word": rng.integers(0, alphabet, size=n_symbols),
            "acceptance": n_states == 64,
        })
    return configs


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
        "acceptance_config": config["acceptance"],
        "auto_backend": resolve_backend(dfa),
    }
    best = None
    for _ in range(2):
        begin = time.perf_counter()
        functions = run_segments_batch(
            dfa, partition, segments, backend="native"
        )
        seconds = time.perf_counter() - begin
        best = seconds if best is None else min(best, seconds)
    if not all(functions_equal(r, f) for r, f in zip(reference, functions)):
        raise AssertionError(f"{config['name']}/native diverged from python")
    entry["native_seconds"] = best
    entry["native_speedup"] = python_seconds / best if best else 0.0
    entry["native_bit_identical"] = True
    return entry


def bench_fallback(rng, n_symbols: int, n_segments: int) -> Dict:
    """backend="native" with the library force-absent must degrade cleanly."""
    dfa = random_dfa(64, 16, rng)
    partition = StatePartition.discrete(64)
    word = rng.integers(0, 16, size=n_symbols)
    bounds = even_boundaries(int(word.size), n_segments)[1:]
    segments = [word[a:b] for a, b in bounds]
    reference = [run_segment(dfa, partition, s)[0] for s in segments]
    prior = os.environ.get(ENV_DISABLE)
    os.environ[ENV_DISABLE] = "0"
    reset_native()
    try:
        degraded = run_segments_batch(
            dfa, partition, segments, backend="native"
        )
        unavailable = not native_available()
    finally:
        if prior is None:
            os.environ.pop(ENV_DISABLE, None)
        else:
            os.environ[ENV_DISABLE] = prior
        reset_native()
    identical = all(functions_equal(a, b)
                    for a, b in zip(reference, degraded))
    return {
        "config": "random64/forced-fallback",
        "native_forced_absent": unavailable,
        "fallback_bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input for CI; skips the 15x acceptance "
                             "gate and tolerates a toolchain-less host")
    parser.add_argument("--size", type=int, default=1_000_000,
                        help="input symbols per configuration")
    parser.add_argument("--segments", type=int, default=16)
    parser.add_argument("--seed", type=int, default=20180623)
    args = parser.parse_args(argv)

    n_symbols = 40_000 if args.smoke else args.size
    rng = np.random.default_rng(args.seed)
    available = native_available()
    if not available and not args.smoke:
        from repro.kernels import native_unavailable_reason

        raise SystemExit(
            "native tier unavailable in full (gated) mode: "
            f"{native_unavailable_reason()}"
        )

    results: List[Dict] = []
    if available:
        for config in build_configs(rng, n_symbols):
            entry = bench_config(config, args.segments)
            results.append(entry)
            print(f"{entry['config']:<20} python {entry['python_seconds']:.3f}s  "
                  f"native {entry['native_speedup']:7.1f}x  "
                  f"auto={entry['auto_backend']}")
            if entry["acceptance_config"] and not args.smoke \
                    and entry["native_speedup"] < ACCEPTANCE_SPEEDUP:
                raise SystemExit(
                    f"acceptance gate failed: native only "
                    f"{entry['native_speedup']:.2f}x over python "
                    f"(< {ACCEPTANCE_SPEEDUP}x)"
                )
    else:
        print("native tier unavailable; recording fallback-only results")

    fallback = bench_fallback(rng, min(n_symbols, 40_000), args.segments)
    results.append(fallback)
    print(f"{fallback['config']:<20} forced-absent={fallback['native_forced_absent']}  "
          f"bit-identical={fallback['fallback_bit_identical']}")
    if not fallback["native_forced_absent"] or not fallback["fallback_bit_identical"]:
        raise SystemExit("forced-fallback run did not degrade bit-identically")

    ARTIFACT.write_text(json.dumps(
        {
            "benchmark": "compiled native set-flow tier vs the interpreter",
            "smoke": bool(args.smoke),
            "native_available": bool(available),
            "acceptance_gate": f"native >= {ACCEPTANCE_SPEEDUP}x python on "
                               "random64/discrete; forced fallback "
                               "bit-identical",
            "env": env_info(),
            "results": results,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {ARTIFACT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
