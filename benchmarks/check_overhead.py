"""Instrumentation-overhead smoke check: instrumented vs no-op scans.

The observability layer promises that *disabled* instrumentation is
near-free and *enabled* instrumentation stays within a small overhead
budget (all in-tree call sites record at per-segment / per-chunk
granularity, never per symbol).  This script enforces both on the bench
smoke configuration (the 64-state random DFA of ``bench_kernels.py``):

1. run ``software_cse_scan`` with the recorder disabled (no-op path),
2. run it with a live registry installed,
3. run it with the live HTTP endpoint serving ``/metrics`` while a
   background poller scrapes it about every ``--poll-interval`` seconds (the
   ``--metrics-port`` deployment shape),
4. run the three cases interleaved, one of each per round for
   ``--repeats`` rounds (the order rotating from round to round), and
   fail when the median per-round overhead of either enabled case over
   that round's no-op run exceeds ``--budget`` (default 10%): host noise
   hits a round's three runs alike, where it would hit one of three
   back-to-back blocks of runs alone,
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
import random
import statistics
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


def timed(fn) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=200_000,
                        help="input symbols (bench smoke scale)")
    parser.add_argument("--segments", type=int, default=16)
    parser.add_argument("--backend", default="auto",
                        help="scan backend (default: auto, what scans "
                             "resolve to)")
    parser.add_argument("--repeats", type=int, default=15,
                        help="interleaved rounds of the three cases")
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
    registry = obs.MetricRegistry()

    def instrumented():
        registry.clear()
        with obs.using(registry):
            return scan()

    # live-endpoint case: same instrumented scan, but with the HTTP
    # endpoint up and a background poller scraping /metrics every
    # --poll-interval while it runs
    live_registry = obs.MetricRegistry()
    polling = threading.Event()
    stop_polling = threading.Event()
    polls = [0]

    def live():
        live_registry.clear()
        polling.set()
        try:
            with obs.using(live_registry):
                return scan()
        finally:
            polling.clear()

    server = obs.ObsServer(live_registry).start()

    def poller():
        url = server.url + "/metrics"
        # a free-running cadence, jittered around --poll-interval: a
        # scrape lands anywhere in a live scan, never in a no-op or
        # instrumented one, and does not phase-lock with the rounds (one
        # round takes about three scans, close to the default interval)
        jitter = random.Random(0)
        while not stop_polling.wait(
                args.poll_interval * (0.5 + jitter.random())):
            if not polling.is_set():
                continue
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    response.read()
                polls[0] += 1
            except OSError:
                pass

    poll_thread = threading.Thread(target=poller, daemon=True)
    poll_thread.start()
    cases = (scan, instrumented, live)
    rounds = []
    try:
        finals = {fn.__name__: fn().final_state for fn in cases}
        if len(set(finals.values())) != 1:
            raise SystemExit(f"instrumented scans diverged from the no-op "
                             f"scan: {finals}")
        for r in range(args.repeats):
            seconds = {}
            for i in range(len(cases)):
                fn = cases[(r + i) % len(cases)]
                seconds[fn.__name__] = timed(fn)
            rounds.append(seconds)
    finally:
        stop_polling.set()
        poll_thread.join(timeout=5.0)
        server.stop()

    median = statistics.median
    noop_seconds = median([s["scan"] for s in rounds])
    instrumented_seconds = median([s["instrumented"] for s in rounds])
    live_seconds = median([s["live"] for s in rounds])
    overhead = median([s["instrumented"] / s["scan"] - 1.0 for s in rounds])
    live_overhead = median([s["live"] / s["scan"] - 1.0 for s in rounds])
    print(f"no-op:        {noop_seconds * 1e3:8.2f} ms "
          f"(median of {args.repeats} rounds)")
    print(f"instrumented: {instrumented_seconds * 1e3:8.2f} ms")
    print(f"live /metrics:{live_seconds * 1e3:8.2f} ms ({polls[0]} scrapes)")
    print(f"overhead:     {overhead:+.2%} instrumented, "
          f"{live_overhead:+.2%} live, median per round "
          f"(budget {args.budget:.0%})")

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
