"""The layers the traced run wraps, and the per-layer metrics it reports.

Each layer is one attribute the program calls through; a layer whose
attribute is gone reports zero calls.  Per-call figures divide a layer's
self time (or count) over the timed phase by the workload calls made;
``_s`` figures are per run, summed over the traced set-up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from tracer import Span, Tracer


def _segment0_or_oracle(tracer: Tracer, parent: Optional[int]) -> str:
    # scan_sequential walks segment 0 before composition and the whole
    # input (the verify oracle) after it
    if parent is not None and any(
        s.parent == parent and s.name == "core.reexec"
        for s in tracer.spans[parent + 1:]
    ):
        return "software.oracle"
    return "software.segment0"


def _note_backend(span: Span, result, args, kwargs) -> None:
    span.args["backend"] = kwargs.get(
        "backend", args[3] if len(args) > 3 else "unspecified")
    span.args["segments"] = len(args[2])


def _note_reexec(span: Span, result, args, kwargs) -> None:
    span.args["enum_segments"] = len(args[2])
    span.args["reexecuted"] = len(result[1].reexecuted_segments)


def _note_reports(span: Span, result, args, kwargs) -> None:
    span.args["reports"] = len(result)


#: (module or "module:Class", attribute, layer name, observer)
WRAPS = (
    ("repro.software", "as_symbols", "ingest.as_symbols", None),
    ("repro.stream", "as_symbols", "ingest.as_symbols", None),
    ("repro.software", "software_cse_scan", "software.scan", None),
    ("repro.software", "scan_sequential", _segment0_or_oracle, None),
    ("repro.software", "prefilter_scan_scalar", "software.segment0", None),
    ("repro.software", "run_segments_batch", "kernels.batch", _note_backend),
    ("repro.software", "resolve_backend", "kernels.resolve", None),
    ("repro.stream", "resolve_backend", "kernels.resolve", None),
    ("repro.compilecache.artifact", "resolve_backend", "kernels.resolve", None),
    ("repro.software", "compose_and_fix", "core.reexec", _note_reexec),
    ("repro.stream:Dfa", "run_reports", "stream.reports", _note_reports),
    ("repro.fleet.shard:ShardMachine", "demux_finals", "fleet.demux", None),
    ("repro.compilecache.cache:CompileCache", "get_or_compile",
     "compilecache.lookup", None),
    ("repro.compilecache.cache", "compile_dfa", "compilecache.build", None),
    ("repro.compilecache.artifact", "profile_partitions", "core.profiling",
     None),
    ("repro.stream", "plan_shards", "fleet.plan", None),
    ("repro.regex.compile", "compile_ruleset", "regex.compile", None),
)

#: per-call self milliseconds: metric name -> span name
PER_CALL_MS = {
    "ingest.as_symbols_ms": "ingest.as_symbols",
    "software.scan_self_ms": "software.scan",
    "software.segment0_ms": "software.segment0",
    "kernels.batch_ms": "kernels.batch",
    "kernels.resolve_ms": "kernels.resolve",
    "core.reexec_ms": "core.reexec",
    "software.oracle_ms": "software.oracle",
    "software.pool_submit_ms": "software.pool_submit",
    "software.pool_wait_ms": "software.pool_wait",
    "stream.reports_ms": "stream.reports",
    "fleet.demux_ms": "fleet.demux",
    "compilecache.lookup_ms": "compilecache.lookup",
}
#: per-call counts of spans: metric name -> span name
PER_CALL_COUNT = {
    "kernels.resolve_calls": "kernels.resolve",
    "software.pool_tasks": "software.pool_submit",
    "fleet.units": "fleet.demux",
    "compilecache.lookups": "compilecache.lookup",
}
#: per-run self seconds of the traced set-up: metric name -> span name
PER_RUN_S = {
    "regex.compile_s": "regex.compile",
    "core.profiling_s": "core.profiling",
    "compilecache.build_s": "compilecache.build",
    "fleet.plan_s": "fleet.plan",
    "software.pool_start_s": "software.pool_start",
}

UNITS = {
    **{name: "ms" for name in PER_CALL_MS},
    **{name: "count" for name in PER_CALL_COUNT},
    **{name: "s" for name in PER_RUN_S},
    "core.reexec_segments": "count",
    "core.speculation_hit_ratio": "ratio",
    "stream.reports": "count",
    "compilecache.hit_ratio": "ratio",
}


def install(tracer: Tracer) -> None:
    for target, attr, name, observe in WRAPS:
        tracer.wrap(target, attr, name, observe)
    tracer.install()


def layer_metrics(timed: Sequence[Span], timed_self: Sequence[float],
                  setup: Sequence[Span], setup_self: Sequence[float],
                  calls: int) -> Dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    ``timed``/``setup`` hold the spans of the timed phase and of the
    traced set-up, each beside its self times (:func:`tracer.self_times`
    of each process's list).
    """
    self_s: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    args: Dict[str, List[Dict]] = defaultdict(list)
    for span, own in zip(timed, timed_self):
        self_s[span.name] += own
        count[span.name] += 1
        args[span.name].append(span.args)
    setup_s: Dict[str, float] = defaultdict(float)
    for span, own in zip(setup, setup_self):
        setup_s[span.name] += own

    out = {m: self_s[s] * 1e3 / calls for m, s in PER_CALL_MS.items()}
    out.update({m: count[s] / calls for m, s in PER_CALL_COUNT.items()})
    out.update({m: setup_s[s] for m, s in PER_RUN_S.items()})

    reexec = sum(a["reexecuted"] for a in args["core.reexec"])
    enum = sum(a["enum_segments"] for a in args["core.reexec"])
    out["core.reexec_segments"] = reexec / calls
    out["core.speculation_hit_ratio"] = 1.0 - reexec / enum if enum else 0.0
    out["stream.reports"] = sum(
        a["reports"] for a in args["stream.reports"]) / calls

    # every build in the timed phase is a lookup that missed
    lookups = count["compilecache.lookup"]
    out["compilecache.hit_ratio"] = (
        1.0 - count["compilecache.build"] / lookups if lookups else 0.0)
    return out


def backends(timed: Sequence[Span]) -> List[str]:
    """The kernel backend labels the batched kernel ran with."""
    return sorted({s.args["backend"] for s in timed
                   if s.name == "kernels.batch"})
