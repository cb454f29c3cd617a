"""Instrumentation-overhead smoke check: instrumented vs no-op scans.

The observability layer promises that *disabled* instrumentation is
near-free and *enabled* instrumentation stays within a small overhead
budget (all in-tree call sites record at per-segment / per-chunk
granularity, never per symbol).  This script enforces both on the bench
smoke configuration (the 64-state random DFA of ``bench_kernels.py``):

1. run ``software_cse_scan`` with the recorder disabled (no-op path),
2. run it recording into one registry that lives for the whole run, as
   the CLI's does,
3. run it the same way with the live HTTP endpoint serving ``/metrics``
   (the ``--metrics-port`` deployment shape) and one scrape landing
   inside a scan: the request is sent before the scans and read out at a
   random point of one; the run fails when no scrape landed inside a
   scan,
4. time each case as a window of back-to-back scans lasting about
   ``--poll-interval`` (the median scan of the window; the live case
   adds the excess of the scans the scrape touched, spread over the
   window, as a poller at that interval would spread it), run the three
   windows interleaved, one of each per round for ``--repeats`` rounds
   (the order rotating from round to round), and fail when the median
   per-round overhead of either enabled case over that round's no-op
   window exceeds ``--budget`` (default 10%): host noise hits a round's
   three windows alike, where it would hit one of three back-to-back
   blocks of runs alone,
5. assert the functional outputs are identical either way,
6. write one instrumented scan's metrics snapshot to ``--out``, a merged
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
import socket
import statistics
import sys
import threading
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from env_info import env_info  # noqa: E402 — benchmarks/ sibling module

from repro import obs
from repro.automata.builders import random_dfa
from repro.core.partition import StatePartition
from repro.software import segment_pool, software_cse_scan


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
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds of back-to-back scans per case and "
                             "round; each live window takes one /metrics "
                             "scrape")
    parser.add_argument("--out", default=None,
                        help="write the instrumented metrics snapshot here")
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
    median = statistics.median

    def window(n_scans, intervals=None):
        """``n_scans`` back-to-back scans: their seconds and the last
        result (``intervals`` collects each scan's perf_counter span)."""
        seconds = []
        for _ in range(n_scans):
            begin = time.perf_counter()
            scanning[0] = intervals is not None
            result = scan()
            scanning[0] = False
            end = time.perf_counter()
            seconds.append(end - begin)
            if intervals is not None:
                intervals.append((begin, end))
        return seconds, result

    def noop(n_scans):
        seconds, result = window(n_scans)
        return median(seconds), result

    def instrumented(n_scans):
        with obs.using(registry):
            seconds, result = window(n_scans)
        return median(seconds), result

    # live-endpoint case: the instrumented window with the HTTP endpoint
    # up and one /metrics scrape landing inside one of its scans.  The
    # request is sent and held at the server before the window (its
    # client side and parsing are not timed); the server waits a random
    # part of a typical scan and reads the registry if a scan is running
    # (else it waits again), noting the time it began.  After the
    # window, that time and the time the response was read are mapped
    # onto the scans' intervals: a scrape that began inside a scan is
    # counted, and the excess of the scans it touched is charged to the
    # window
    scanning = [False]
    window_over = threading.Event()
    held = threading.Event()
    scrape_done = threading.Event()
    scrape_now = threading.Event()
    stop_polling = threading.Event()
    scrape = {"began": None, "read": None}
    scrapes = {"sent": 0, "in_scan": 0}
    jitter = random.Random(0)
    typical_scan = [1e-3]

    class WatchedRegistry(obs.MetricRegistry):
        armed = False

        def snapshot(self, spans=True):
            if self.armed:
                self.armed = False
                held.set()
                while not window_over.is_set():
                    time.sleep(jitter.random() * typical_scan[0])
                    if scanning[0]:
                        scrape["began"] = time.perf_counter()
                        break
                    # between scans: try again
            return super().snapshot(spans)

    live_registry = WatchedRegistry()
    server = obs.ObsServer(live_registry).start()

    def poller():
        # a bare socket client: a scraper runs in a process of its own,
        # so this one's side of the exchange is kept to a few calls
        request = (f"GET /metrics HTTP/1.1\r\nHost: {server.host}\r\n"
                   "Connection: close\r\n\r\n").encode()
        while True:
            scrape_now.wait()
            scrape_now.clear()
            if stop_polling.is_set():
                return
            try:
                with socket.create_connection((server.host, server.port),
                                              timeout=5) as conn:
                    conn.sendall(request)
                    response = b""
                    while True:
                        chunk = conn.recv(1 << 16)
                        if not chunk:
                            break
                        response += chunk
                scrape["read"] = time.perf_counter()
                if response.startswith(b"HTTP/1.1 200 "):
                    scrapes["sent"] += 1
                else:
                    scrape["read"] = None
            except OSError:
                pass
            finally:
                held.set()
                scrape_done.set()

    def live(n_scans):
        scrape["began"] = scrape["read"] = None
        window_over.clear()
        held.clear()
        scrape_done.clear()
        live_registry.armed = True
        scrape_now.set()
        held.wait(5.0)
        intervals = []
        try:
            with obs.using(live_registry):
                seconds, result = window(n_scans, intervals)
        finally:
            window_over.set()
        scrape_done.wait(5.0)
        typical = median(seconds)
        began, read = scrape["began"], scrape["read"]
        if began is None or read is None or not any(
                b <= began <= e for b, e in intervals):
            return typical, result
        scrapes["in_scan"] += 1
        touched = [s for (b, e), s in zip(intervals, seconds)
                   if e >= began and b <= read]
        excess = sum(touched) - typical * len(touched)
        return typical + max(0.0, excess) / n_scans, result

    poll_thread = threading.Thread(target=poller, daemon=True)
    poll_thread.start()
    cases = {"scan": noop, "instrumented": instrumented, "live": live}
    names = list(cases)
    rounds = []
    try:
        finals = {name: fn(1)[1].final_state for name, fn in cases.items()}
        if len(set(finals.values())) != 1:
            raise SystemExit(f"instrumented scans diverged from the no-op "
                             f"scan: {finals}")
        typical_scan[0] = median(window(9)[0])
        n_scans = max(1, round(args.poll_interval / typical_scan[0]))
        scrapes["in_scan"] = 0
        for r in range(args.repeats):
            seconds = {}
            for i in range(len(names)):
                name = names[(r + i) % len(names)]
                seconds[name] = cases[name](n_scans)[0]
            rounds.append(seconds)
    finally:
        stop_polling.set()
        scrape_now.set()
        poll_thread.join(timeout=5.0)
        server.stop()

    noop_seconds = median([s["scan"] for s in rounds])
    instrumented_seconds = median([s["instrumented"] for s in rounds])
    live_seconds = median([s["live"] for s in rounds])
    overhead = median([s["instrumented"] / s["scan"] - 1.0 for s in rounds])
    live_overhead = median([s["live"] / s["scan"] - 1.0 for s in rounds])
    print(f"no-op:        {noop_seconds * 1e3:8.2f} ms "
          f"(median of {args.repeats} rounds of {n_scans} scans)")
    print(f"instrumented: {instrumented_seconds * 1e3:8.2f} ms")
    print(f"live /metrics:{live_seconds * 1e3:8.2f} ms per scan "
          f"({scrapes['in_scan']} of {args.repeats} rounds scraped "
          f"inside a scan)")
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
        registry.clear()
        with obs.using(registry):
            scan()
        snapshot = registry.snapshot()
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(
            {
                "check": "instrumentation overhead smoke",
                "env": env_info(),
                "noop_seconds": noop_seconds,
                "instrumented_seconds": instrumented_seconds,
                "live_seconds": live_seconds,
                "live_polls": scrapes["sent"],
                "live_in_scan_scrapes": scrapes["in_scan"],
                "overhead": overhead,
                "live_overhead": live_overhead,
                "budget": args.budget,
                "metrics": snapshot["metrics"],
                "spans": snapshot["spans"],
            },
            indent=2,
        ) + "\n")
        print(f"wrote {out}")

    if scrapes["in_scan"] == 0:
        raise SystemExit("no /metrics scrape landed inside a live scan: "
                         "the live case measured an idle endpoint")
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
