"""Macrobenchmark: sharded fleet scanning vs the per-machine loop.

Builds a 64-ruleset ExactMatch fleet (literal machines — the workload
whose products compose additively, the case sharding is built for),
packs it into product/union shards with :func:`repro.fleet.plan_shards`,
and times one :meth:`FleetScanner.scan_wallclock` pass in both modes
over the same input.  Demuxed final states must be bit-identical to the
per-machine loop, and every machine's demuxed report events are checked
against its own sequential :meth:`Dfa.run_reports` on a sample prefix.

Gate (full mode only): **sharded fleet throughput >= 3x the per-machine
loop** on the acceptance config — 64 machines, 1 MB of input, dense
backend.  Results land in ``BENCH_fleet_sharding.json`` at the
repository root with an environment-provenance stamp.

Run::

    PYTHONPATH=src python benchmarks/bench_fleet.py          # full, ~1 min
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke  # CI, seconds
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

from repro.fleet import SHARD_MAX_STATES, plan_shards
from repro.kernels import BACKENDS
from repro.regex.compile import compile_ruleset
from repro.stream import FleetScanner
from repro.workloads import generate_ruleset

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_fleet_sharding.json"


def build_fleet(n_machines: int, patterns: int, seed: int) -> List:
    """One literal machine per generated ExactMatch ruleset."""
    return [
        compile_ruleset(generate_ruleset("ExactMatch", patterns, seed + i))
        for i in range(n_machines)
    ]


def verify_demux(dfas, fleet: FleetScanner, word: np.ndarray) -> None:
    """Shard-scan reports must equal every machine's own sequential scan."""
    result = fleet.scan(word)
    for i, dfa in enumerate(dfas):
        expect = dfa.run_reports(word)
        if result.reports[i] != expect:
            raise AssertionError(
                f"machine {i}: demuxed reports diverged from sequential "
                f"({len(result.reports[i])} vs {len(expect)} events)"
            )


def bench_fleet(n_machines: int, patterns: int, n_symbols: int,
                seed: int, backend: str, verify_symbols: int) -> Dict:
    rng = np.random.default_rng(seed)
    dfas = build_fleet(n_machines, patterns, seed)
    word = rng.integers(97, 123, size=n_symbols, dtype=np.uint8)

    plan = plan_shards(dfas)
    sharded = FleetScanner(dfas, backend=backend, shard=plan)
    per_machine = FleetScanner(dfas, backend=backend)

    # correctness first: demuxed reports ≡ sequential on a sample prefix
    verify_demux(dfas, FleetScanner(dfas, shard=plan),
                 word[:verify_symbols])

    begin = time.perf_counter()
    shard_run = sharded.scan_wallclock(word, verify=False)
    shard_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    per_run = per_machine.scan_wallclock(word, verify=False)
    per_seconds = time.perf_counter() - begin

    if shard_run.final_states != per_run.final_states:
        raise AssertionError("sharded final states diverged from per-machine")

    fleet_bytes = n_symbols * n_machines
    return {
        "n_machines": n_machines,
        "patterns_per_machine": patterns,
        "n_symbols": n_symbols,
        "backend": backend,
        "n_shards": plan.n_shards,
        "product_states": plan.product_states,
        "singleton_fallbacks": len(plan.singleton_fallbacks),
        "shard_budget": plan.max_states,
        "shard_seconds": shard_seconds,
        "per_machine_seconds": per_seconds,
        "shard_fleet_mb_per_s": fleet_bytes / max(shard_seconds, 1e-12) / 1e6,
        "per_machine_fleet_mb_per_s":
            fleet_bytes / max(per_seconds, 1e-12) / 1e6,
        "speedup": per_seconds / max(shard_seconds, 1e-12),
        "finals_bit_identical": True,
        "reports_bit_identical": True,
        "verify_symbols": verify_symbols,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleet/input for CI; skips the 3x gate")
    parser.add_argument("--size", type=int, default=1_000_000,
                        help="input symbols")
    parser.add_argument("--machines", type=int, default=64,
                        help="fleet size for the acceptance config")
    parser.add_argument("--patterns", type=int, default=3,
                        help="literal patterns per machine")
    parser.add_argument("--backend", default="dense",
                        choices=("auto",) + BACKENDS)
    parser.add_argument("--seed", type=int, default=20180623)
    args = parser.parse_args(argv)

    if args.smoke:
        configs = [(16, 40_000)]
    else:
        configs = [(16, args.size), (args.machines, args.size)]
    verify_symbols = 20_000 if args.smoke else 100_000

    results = []
    for n_machines, n_symbols in configs:
        entry = bench_fleet(n_machines, args.patterns, n_symbols,
                            args.seed, args.backend, verify_symbols)
        entry["acceptance_config"] = (
            not args.smoke and n_machines == args.machines
        )
        results.append(entry)
        print(f"fleet {n_machines:>3} machines -> {entry['n_shards']} "
              f"shard(s) ({entry['product_states']} states)  "
              f"per-machine {entry['per_machine_seconds']:.3f}s  "
              f"sharded {entry['shard_seconds']:.3f}s  "
              f"speedup {entry['speedup']:5.2f}x")
        if entry["acceptance_config"] and entry["speedup"] < 3.0:
            raise SystemExit(
                f"acceptance gate failed: sharded fleet only "
                f"{entry['speedup']:.2f}x over the per-machine loop (< 3x)"
            )

    ARTIFACT.write_text(json.dumps(
        {
            "benchmark": "sharded fleet scan vs per-machine loop",
            "smoke": bool(args.smoke),
            "acceptance_gate": "sharded >= 3x per-machine on the 64-machine "
                               "ExactMatch fleet, demux bit-identical",
            "shard_max_states": SHARD_MAX_STATES,
            "env": env_info(),
            "results": results,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {ARTIFACT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
