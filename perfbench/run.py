"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload bulk-random64 --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` sets the workload up several times from cold (``setup_s``
is the median), then calls it in a closed loop for ``--seconds`` and
reports the end-to-end metrics.  Each call is bracketed by samples of a
fixed host-speed gauge (:mod:`hostspeed`), and the time metrics are
reported at the gauge's reference speed.  ``--trace 1``
first times an untraced loop, then wraps the program's layers
(:mod:`layers`), sets up again and times a traced loop; it reports the
per-layer metrics and writes the spans as a Chrome trace under
``.bench_build/perfbench/``.  Every call's result is checked against a
reference computed on the interpreted path.  The last line of standard
output is one JSON object; the exit status is nonzero when any call
failed or was wrong.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import REFERENCE_S, Gauge, scale_calls

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"
#: cold set-ups per ``--trace 0`` run (more, up to ``MAX_SETUPS``, while
#: they take under ``SETUP_BUDGET_S`` in all); ``setup_s`` is their median
SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0
#: gauge samples taken (and dropped) to warm the gauge up
GAUGE_WARMUP = 20
#: a run that cannot finish its loop by then is stopped as failed
HARD_LIMIT_S = 120.0
MB = 1e6

E2E_UNITS = {
    "throughput_mb_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_mb": "ms/MB",
}


def tail_rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``n`` samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def tail_latency(samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """``(value, samples beyond it)`` at ``pct``; needs ten beyond."""
    rank = tail_rank(len(samples), pct)
    beyond = len(samples) - rank
    if beyond < 10:
        raise ValueError(f"p{pct:g} of {len(samples)} samples has only "
                         f"{beyond} beyond it (need 10)")
    return sorted(samples)[rank - 1], beyond


def measure(workload, seconds: float, tail_pct: Optional[float] = None,
            gauge=None):
    """Closed loop for ``seconds`` (and until ``tail_pct`` has ten
    samples beyond it); returns ``(latencies_s, failed, input_bytes)``.
    With a ``gauge``, one gauge sample is taken before each call and one
    after the last."""
    samples: List[float] = []
    failed = 0
    nbytes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (
            tail_pct is None
            or len(samples) - tail_rank(len(samples), tail_pct) >= 10
        ):
            break
        if elapsed > HARD_LIMIT_S:
            raise RuntimeError(f"{len(samples)} calls in {elapsed:.0f}s: "
                               "too slow to reach the tail percentile")
        if gauge is not None:
            gauge.sample()
        begin = time.perf_counter()
        try:
            size, outcome = workload.call()
        except Exception:  # a failed call is counted, and the loop goes on
            samples.append(time.perf_counter() - begin)
            failed += 1
            traceback.print_exc()
            continue
        samples.append(time.perf_counter() - begin)
        nbytes += size
        if not workload.check(outcome):
            failed += 1
    if gauge is not None:
        gauge.sample()
    return samples, failed, nbytes


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def end_to_end(workload, seconds: float):
    """The ``--trace 0`` run: set-ups, timed loop, end-to-end metrics."""
    setups: List[float] = []
    while len(setups) < SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        workload.close()
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
        if len(setups) == 1:
            workload.reference()
    stamp = workload.stamp()
    workers_before = workload.worker_usage()
    gauge = Gauge()
    gauge.take(GAUGE_WARMUP)
    gauge.clear()
    cpu_before = cpu_seconds()
    raw, failed, nbytes = measure(workload, seconds, workload.tail_pct,
                                  gauge)
    cpu = cpu_seconds() - cpu_before
    workers = workload.worker_usage()
    workload.close()
    cpu += sum(workers[pid][0] - workers_before[pid][0] for pid in workers)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
        (w[1] for w in workers.values()), default=0)
    # the gauge ran in this process between the calls: its CPU is not
    # the program's
    cpu -= gauge.cpu_s
    samples = scale_calls(raw, gauge.samples)
    # CPU and set-ups are scaled like the loop's time, by its scaled over
    # unscaled call time.  A set-up lasts seconds, longer than the host
    # holds one speed, and gauge samples before and after it followed the
    # host worse than the thousands taken in the loop just after.
    run_factor = sum(samples) / sum(raw)
    tail, beyond = tail_latency(samples, workload.tail_pct)
    metrics = {
        "throughput_mb_s": nbytes / MB / sum(samples),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups) * run_factor,
        "peak_rss_mb": rss_kb * 1024 / MB,
        "cpu_ms_per_mb": cpu * run_factor * 1e3 / (nbytes / MB),
    }
    unscaled_tail = tail_latency(raw, workload.tail_pct)[0]
    provenance = {
        **stamp,
        "setups_s": setups,
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "pool_workers_measured": len(workers),
        "speed_factor": run_factor,
        "gauge_reference_s": REFERENCE_S,
        "gauge_median_s": statistics.median(gauge.samples),
        "latency_percentiles_ms": {
            f"p{pct}": q * 1e3 for pct, q in zip(
                range(5, 100, 5), statistics.quantiles(samples, n=20))},
        "unscaled": {
            "throughput_mb_s": nbytes / MB / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": unscaled_tail * 1e3,
            "setup_s": statistics.median(setups),
            "cpu_ms_per_mb": cpu * 1e3 / (nbytes / MB),
        },
    }
    return metrics, E2E_UNITS, samples, failed, provenance


def traced(workload, seconds: float, seed: int):
    """The ``--trace 1`` run: untraced loop, then traced set-up and loop."""
    import layers
    from repro.obs.exporters import write_metrics, write_trace
    from tracer import Tracer, obs_snapshot, self_times

    workload.setup()
    workload.reference()
    stamp = workload.stamp()
    plain, plain_failed, _ = measure(workload, seconds / 2)
    workload.close()

    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.setup(tracer)
        setup_lists = [tracer.take()]
        setup_lists += [w[2] for w in workload.worker_usage().values()]
        tracer.take()  # the probe's own pool spans
        samples, failed, _ = measure(workload, seconds / 2)
        timed_lists = [tracer.take()]
        timed_lists += [w[2] for w in workload.worker_usage().values()]
        workload.close()
    finally:
        tracer.uninstall()

    def flatten(lists):
        spans = [s for spans in lists for s in spans]
        return spans, [t for spans in lists for t in self_times(spans)]

    setup_spans, setup_self = flatten(setup_lists)
    timed_spans, timed_self = flatten(timed_lists)
    for span in setup_spans:
        span.args["phase"] = "setup"
    metrics = layers.layer_metrics(timed_spans, timed_self, setup_spans,
                                   setup_self, len(samples))
    # the same spans as a Chrome trace (Perfetto) and as a repro.obs
    # snapshot (repro top, repro obs tail)
    OUT.mkdir(parents=True, exist_ok=True)
    snapshot = obs_snapshot(setup_spans + timed_spans,
                               setup_self + timed_self)
    trace_path = OUT / f"trace-{workload.name}-{seed}.json"
    write_trace(snapshot, trace_path)
    write_metrics(snapshot, OUT / f"spans-{workload.name}-{seed}.json")
    provenance = {
        **stamp,
        "kernels.backend": layers.backends(timed_spans),
        "untraced_latency_p50_ms": statistics.median(plain) * 1e3,
        "traced_latency_p50_ms": statistics.median(samples) * 1e3,
        "tracing_overhead_ms": (statistics.median(samples)
                                - statistics.median(plain)) * 1e3,
        "layers_wrapped": tracer.wrapped,
        "trace_file": str(trace_path),
    }
    return (metrics, layers.UNITS, plain + samples, plain_failed + failed,
            provenance)


def _env_info() -> Dict:
    spec = importlib.util.spec_from_file_location(
        "env_info", ROOT / "benchmarks" / "env_info.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.env_info()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # everything the run writes stays in the checkout: the native
    # library's build cache, compiler temporaries, traces and results
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.kernels import native_available
        from workloads import WORKLOADS
        env = _env_info()
    except (ImportError, OSError) as exc:
        print(f"perfbench: the program is not importable here: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    native_available()  # build/load the native tier before any timing
    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        run = traced(workload, args.seconds, args.seed) if args.trace \
            else end_to_end(workload, args.seconds)
    finally:
        workload.close()
    metrics, units, samples, failed, provenance = run

    provenance.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(samples),
        "ops_failed_ratio": failed / len(samples),
        "env": env,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(provenance, indent=2, default=str) + "\n")
    print(f"provenance: {json.dumps(provenance, default=str)}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'ops_failed_ratio':<28} {failed / len(samples):>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
