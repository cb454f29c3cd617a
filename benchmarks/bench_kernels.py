"""Microbenchmark: vectorized software kernels vs the interpreted path.

Times the per-segment interpreted reference (``run_segment`` with
``backend="python"``) against the batched kernels
(:func:`repro.kernels.run_segments_batch`) on several DFA/partition
profiles, asserts bit-identical outcomes, and writes the results to
``BENCH_software_kernels.json`` at the repository root.

Gates (full mode only):

- **dense >= 5x python** on the acceptance config ``random64/discrete``
  — a 64-state DFA, 1 MB of input, 16 segments, one set-flow per state;
- ``random64/trivial`` resolves (``backend="auto"``) to a backend whose
  measured speedup vs the interpreter is >= 1x — the interpreter itself
  qualifies, and one block gives the batched kernels nothing to amortize.

``random1024/discrete`` measures the kernels on a machine four times the
uint8 width, where the dense tables narrow to uint16.

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
from repro.core.partition import StatePartition
from repro.core.profiling import ProfilingConfig, predict_convergence_sets
from repro.engines.base import even_boundaries
from repro.kernels import KERNEL_BACKENDS, resolve_backend, run_segments_batch
from repro.regex.compile import compile_ruleset
from repro.software import run_segment

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
            "acceptance": True,
        },
        {
            "name": "random64/trivial",
            "dfa": random64,
            "partition": StatePartition.trivial(64),
            "word": rng.integers(0, 16, size=n_symbols),
            "acceptance": False,
        },
        {
            "name": "ruleset/profiled",
            "dfa": ruleset,
            "partition": profiled,
            "word": rng.integers(97, 123, size=n_symbols),
            "acceptance": False,
        },
        {
            "name": "cycle128/trivial",
            "dfa": cycle_dfa(128),
            "partition": StatePartition.trivial(128),
            "word": rng.integers(0, 2, size=n_symbols),
            "acceptance": False,
        },
        {
            "name": "random1024/discrete",
            "dfa": random_dfa(1024, 8, rng),
            "partition": StatePartition.discrete(1024),
            "word": rng.integers(0, 8, size=n_symbols),
            "acceptance": False,
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
        "acceptance_config": config["acceptance"],
        # what backend="auto" would run for this profile — the heuristic's
        # choice is part of what the bench documents (a config whose best
        # kernel is sub-1x must resolve to "python")
        "auto_backend": resolve_backend(dfa, None, partition, n_segments),
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
    return entry


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
              f"{speedups}  (auto={entry['auto_backend']})")
        if args.smoke:
            continue
        if entry["acceptance_config"] and entry["dense_speedup"] < 5.0:
            raise SystemExit(
                f"acceptance gate failed: dense only "
                f"{entry['dense_speedup']:.1f}x over python (< 5x)"
            )
        if entry["config"] == "random64/trivial" \
                and entry["auto_backend_speedup"] < 1.0:
            raise SystemExit(
                f"regression gate failed: random64/trivial resolves to "
                f"{entry['auto_backend']} at "
                f"{entry['auto_backend_speedup']:.2f}x (< 1x vs interpreter)"
            )

    ARTIFACT.write_text(json.dumps(
        {
            "benchmark": "software kernel backends vs interpreted run_segment",
            "smoke": bool(args.smoke),
            "acceptance_gate": "dense >= 5x python on random64/discrete; "
                               "random64/trivial auto backend >= 1x",
            "env": env_info(),
            "results": results,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {ARTIFACT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
