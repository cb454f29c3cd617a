"""Instrumentation-overhead smoke check: instrumented vs no-op scans.

The observability layer promises that *disabled* instrumentation is
near-free and *enabled* instrumentation stays within a small overhead
budget (all in-tree call sites record at per-segment / per-chunk
granularity, never per symbol).  This script enforces both on the bench
smoke configuration (the 64-state random DFA of ``bench_kernels.py``):

1. run ``software_cse_scan`` with the recorder disabled (no-op path),
2. run it with a live registry installed,
3. run it with the live HTTP endpoint serving ``/metrics`` while a
   background poller scrapes it every ``--poll-interval`` seconds (the
   ``--metrics-port`` deployment shape),
4. compare best-of-``--repeats`` wall times and fail when either enabled
   case costs more than ``--budget`` (default 10%) over the no-op run,
5. assert the functional outputs are identical either way,
6. write the instrumented run's metrics snapshot to ``--out``, a merged
   multi-process Chrome trace to ``--trace-out``, and a folded-stack
   flamegraph to ``--flamegraph-out`` so CI can upload all three as
   workflow artifacts.

Run::

    PYTHONPATH=src python benchmarks/check_overhead.py --out obs_metrics.json \
        --trace-out obs_trace.json --flamegraph-out obs_profile.folded
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time
import urllib.request

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from env_info import env_info  # noqa: E402 — benchmarks/ sibling module

from repro import obs
from repro.automata.builders import random_dfa
from repro.core.partition import StatePartition
from repro.software import segment_pool, software_cse_scan


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=200_000,
                        help="input symbols (bench smoke scale)")
    parser.add_argument("--segments", type=int, default=16)
    parser.add_argument("--backend", default="dense")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--budget", type=float, default=0.10,
                        help="max allowed relative overhead (0.10 = 10%%)")
    parser.add_argument("--out", default=None,
                        help="write the instrumented metrics snapshot here")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between /metrics scrapes in the "
                             "live-endpoint case")
    parser.add_argument("--trace-out", default=None,
                        help="write a merged multi-process Chrome trace of "
                             "one pooled scan here")
    parser.add_argument("--flamegraph-out", default=None,
                        help="write a folded-stack wall-clock profile of "
                             "one scan here")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20180623)
    dfa = random_dfa(64, 16, rng)
    partition = StatePartition.discrete(64)
    word = rng.integers(0, 16, size=args.size)

    def scan():
        return software_cse_scan(
            dfa, word, partition, n_segments=args.segments,
            backend=args.backend, verify=False,
        )

    obs.disable()
    baseline_run = scan()
    noop_seconds = best_of(scan, args.repeats)

    registry = obs.MetricRegistry()

    def instrumented():
        registry.clear()
        with obs.using(registry):
            return scan()

    with obs.using(obs.MetricRegistry()):
        instrumented_check = scan()
    instrumented_seconds = best_of(instrumented, args.repeats)

    if baseline_run.final_state != instrumented_check.final_state:
        raise SystemExit("instrumented scan diverged from the no-op scan")

    # live-endpoint case: same instrumented scan, but with the HTTP
    # endpoint up and a background poller scraping /metrics throughout
    live_registry = obs.MetricRegistry()

    def live():
        live_registry.clear()
        with obs.using(live_registry):
            return scan()

    server = obs.ObsServer(live_registry).start()
    stop_polling = threading.Event()
    polls = [0]

    def poller():
        url = server.url + "/metrics"
        while not stop_polling.is_set():
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    response.read()
                polls[0] += 1
            except OSError:
                pass
            stop_polling.wait(args.poll_interval)

    poll_thread = threading.Thread(target=poller, daemon=True)
    poll_thread.start()
    try:
        live_check = live()
        live_seconds = best_of(live, args.repeats)
    finally:
        stop_polling.set()
        poll_thread.join(timeout=5.0)
        server.stop()

    if baseline_run.final_state != live_check.final_state:
        raise SystemExit("live-endpoint scan diverged from the no-op scan")

    overhead = instrumented_seconds / noop_seconds - 1.0
    live_overhead = live_seconds / noop_seconds - 1.0
    print(f"no-op:        {noop_seconds * 1e3:8.2f} ms (best of {args.repeats})")
    print(f"instrumented: {instrumented_seconds * 1e3:8.2f} ms "
          f"(best of {args.repeats})")
    print(f"live /metrics:{live_seconds * 1e3:8.2f} ms "
          f"(best of {args.repeats}, {polls[0]} scrapes)")
    print(f"overhead:     {overhead:+.2%} instrumented, "
          f"{live_overhead:+.2%} live (budget {args.budget:.0%})")

    if args.trace_out or args.flamegraph_out:
        artifact_registry = obs.MetricRegistry()
        profiler = obs.SamplingProfiler(interval=0.002)
        with obs.using(artifact_registry):
            with obs.trace() as trace_id:
                profiler.start()
                with segment_pool(dfa, max_workers=2) as executor:
                    software_cse_scan(
                        dfa, word, partition, n_segments=args.segments,
                        backend=args.backend, executor=executor,
                        verify=False,
                    )
                profiler.stop()
        if args.trace_out:
            trace = obs.chrome_trace(artifact_registry.snapshot(),
                                     trace_id=trace_id)
            pids = {e["pid"] for e in trace["traceEvents"]}
            path = pathlib.Path(args.trace_out)
            path.write_text(json.dumps(trace, indent=2) + "\n")
            print(f"wrote {path} ({len(trace['traceEvents'])} spans from "
                  f"{len(pids)} process(es), trace {trace_id})")
        if args.flamegraph_out:
            path = pathlib.Path(args.flamegraph_out)
            path.write_text(profiler.folded())
            print(f"wrote {path} ({profiler.n_samples} samples)")

    if args.out:
        snapshot = registry.snapshot()
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(
            {
                "check": "instrumentation overhead smoke",
                "env": env_info(),
                "noop_seconds": noop_seconds,
                "instrumented_seconds": instrumented_seconds,
                "live_seconds": live_seconds,
                "live_polls": polls[0],
                "overhead": overhead,
                "live_overhead": live_overhead,
                "budget": args.budget,
                "metrics": snapshot["metrics"],
                "spans": snapshot["spans"],
            },
            indent=2,
        ) + "\n")
        print(f"wrote {out}")

    if overhead > args.budget:
        raise SystemExit(
            f"instrumentation overhead {overhead:.2%} exceeds the "
            f"{args.budget:.0%} budget"
        )
    if live_overhead > args.budget:
        raise SystemExit(
            f"live-endpoint overhead {live_overhead:.2%} exceeds the "
            f"{args.budget:.0%} budget"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
