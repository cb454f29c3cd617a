"""Registry snapshot exporters: JSON, JSON-lines, Prometheus, Chrome trace.

All exporters consume the plain-dict form (:meth:`MetricRegistry.snapshot`)
so they work equally on a live registry and on a snapshot that crossed a
process boundary or was loaded back from disk.

- :func:`to_json` / :func:`to_jsonl` — machine-readable metric dumps
  (`repro stats` reads either back);
- :func:`prometheus_text` — the Prometheus text exposition format
  (counters get a ``_total``-style sample line, histograms cumulative
  ``_bucket{le=...}`` series);
- :func:`chrome_trace` — trace-event JSON with one complete (``"X"``)
  event per span, loadable in Perfetto / ``chrome://tracing``; worker
  spans keep their own pid so pool fan-out renders as separate tracks.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.registry import MetricRegistry

__all__ = [
    "to_json",
    "to_jsonl",
    "prometheus_text",
    "chrome_trace",
    "write_metrics",
    "write_trace",
    "load_snapshot",
]

Snapshot = Dict


def _as_snapshot(source: Union[MetricRegistry, Snapshot]) -> Snapshot:
    return source.snapshot() if isinstance(source, MetricRegistry) else source


def to_json(source: Union[MetricRegistry, Snapshot], indent: int = 2) -> str:
    return json.dumps(_as_snapshot(source), indent=indent) + "\n"


def to_jsonl(source: Union[MetricRegistry, Snapshot]) -> str:
    """One JSON object per line: every metric, then every span."""
    snap = _as_snapshot(source)
    lines = [json.dumps({"record": "metric", **m}) for m in snap.get("metrics", [])]
    lines += [json.dumps({"record": "span", **s}) for s in snap.get("spans", [])]
    return "\n".join(lines) + ("\n" if lines else "")


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


@lru_cache(maxsize=1024)
def _prom_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    """Escape a label value per the text exposition spec (backslash,
    double-quote, and line feed)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and line feed only (quotes are raw)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Dict[str, str]) -> str:
    parts = [
        '%s="%s"' % (_prom_name(k), _escape_label(v))
        for k, v in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


#: HELP strings for the in-tree metric families; anything unlisted falls
#: back to a generic line so every family still gets spec-required HELP.
METRIC_HELP: Dict[str, str] = {
    "software_scans_total": "Completed software CSE scans.",
    "software_symbols_total": "Input symbols consumed by software scans.",
    "software_scan_seconds": "Wall-clock seconds per software CSE scan.",
    "software_reexec_segments_total":
        "Segments whose speculation failed and were re-executed.",
    "software_speculation_hits_total":
        "Enumerative segments whose speculated outcome was kept.",
    "software_speculation_misses_total":
        "Enumerative segments whose speculated outcome was discarded.",
    "software_segment_reexec_total": "Re-executions per segment index.",
    "kernels_positions_total": "Symbol positions advanced per backend.",
    "kernels_collapses_total":
        "Convergence-set collapses observed per backend.",
    "kernels_batch_runs_total": "Batched kernel invocations per backend.",
    "kernels_batch_seconds": "Wall-clock seconds per batched kernel pass.",
    "kernels_backend_resolved_total":
        "Backend resolution decisions (requested -> chosen, with reason).",
    "kernels_native_positions_total":
        "Positions the native core advanced a segment's frontier through.",
    "kernels_native_frontier_steps_total":
        "Distinct live states the native core gathered, summed over its "
        "frontier positions (divided by positions: the mean effective M).",
    "kernels_prefilter_fallbacks_total":
        "Prefilter requests degraded to the native frontier (machine not "
        "certifiable).",
    "kernels_prefilter_windows_total":
        "Segments the prefilter proved reset and scanned as tail windows.",
    "kernels_prefilter_skipped_bytes_total":
        "Input bytes the prefilter skipped without a state walk.",
    "kernels_prefilter_walked_positions_total":
        "Positions the prefilter walked scalar after the last reset run.",
    "kernels_prefilter_fallback_segments_total":
        "Segments with no provable reset run, run through the frontier.",
    "software_mmap_scans_total":
        "Pooled scans dispatched by (path, offset, length) mmap coordinates.",
    "software_mmap_bytes_total":
        "Bytes shipped to workers as mmap coordinates instead of copies.",
    "stream_chunks_total": "Chunks consumed by StreamScanner.feed.",
    "stream_symbols_total": "Symbols consumed by StreamScanner.feed.",
    "stream_reports_total": "Report events emitted by StreamScanner.",
    "stream_chunk_seconds": "Wall-clock seconds per stream chunk.",
    "fleet_scans_total": "Completed fleet scans.",
    "fleet_shard_throughput":
        "Modeled symbols/second per fleet product shard.",
    "fleet_machine_throughput": "Modeled symbols/second per fleet machine.",
    "fleet_shard_wallclock_throughput":
        "Measured symbols/second per fleet shard unit.",
    "fleet_machine_wallclock_throughput":
        "Measured symbols/second per fleet machine unit.",
    "fleet_deduped_machines_total":
        "Fleet machines deduplicated by DFA fingerprint.",
    "obs_live_requests_total": "HTTP requests served by the live endpoint.",
    "obs_profiler_samples_total":
        "Stack samples captured by the wall-clock profiler.",
}


def prometheus_text(source: Union[MetricRegistry, Snapshot]) -> str:
    """Prometheus text exposition format of a snapshot (metrics only).

    Spec-compliant rendering: one ``# HELP`` + ``# TYPE`` header per
    metric family (first occurrence), escaped label values, and for
    histograms the cumulative ``_bucket`` series ending in the ``+Inf``
    bucket plus exact ``_sum`` / ``_count`` samples.
    """
    snap = (source.snapshot(spans=False) if isinstance(source, MetricRegistry)
            else source)
    lines: List[str] = []
    typed = set()
    for m in snap.get("metrics", []):
        name = _prom_name(m["name"])
        kind = m["kind"]
        if name not in typed:
            help_text = METRIC_HELP.get(
                m["name"], f"repro runtime {kind} (unregistered help)"
            )
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)
        labels = _prom_labels(m.get("labels", {}))
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{labels} {m['value']:g}")
        else:  # histogram: cumulative buckets + sum + count
            # the bucket series' labels: the metric's, then ``le``
            bucket = f"{name}_bucket{labels[:-1]}," if labels \
                else f"{name}_bucket{{"
            cumulative = 0
            for bound, count in zip(m["buckets"], m["bucket_counts"]):
                cumulative += count
                lines.append(f'{bucket}le="{bound:g}"}} {cumulative}')
            lines.append(f'{bucket}le="+Inf"}} {m["count"]}')
            lines.append(f"{name}_sum{labels} {m['sum']:g}")
            lines.append(f"{name}_count{labels} {m['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(
    source: Union[MetricRegistry, Snapshot],
    trace_id: Optional[str] = None,
) -> Dict:
    """Chrome trace-event JSON (the ``traceEvents`` container form).

    Spans tagged with a trace id surface it under ``args.trace_id`` so
    the merged multi-process timeline stays attributable per scan;
    ``trace_id=`` filters the output down to one scan's spans.
    """
    snap = _as_snapshot(source)
    events = []
    for s in snap.get("spans", []):
        span_trace = s.get("trace_id")
        if trace_id is not None and span_trace != trace_id:
            continue
        args = dict(s.get("args", {}))
        if span_trace is not None:
            args["trace_id"] = span_trace
        events.append(
            {
                "name": s["name"],
                "cat": "repro",
                "ph": "X",
                "ts": s["ts"] * 1e6,  # microseconds
                "dur": s["duration"] * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_metrics(source: Union[MetricRegistry, Snapshot], path) -> Path:
    """Write a metrics snapshot; format picked from the file suffix.

    ``.jsonl`` → JSON-lines, ``.prom`` / ``.txt`` → Prometheus text,
    anything else → indented JSON snapshot.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".jsonl":
        path.write_text(to_jsonl(source))
    elif suffix in (".prom", ".txt"):
        path.write_text(prometheus_text(source))
    else:
        path.write_text(to_json(source))
    return path


def write_trace(source: Union[MetricRegistry, Snapshot], path) -> Path:
    """Write the Chrome trace-event file (open in Perfetto)."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(source), indent=2) + "\n")
    return path


def load_snapshot(path) -> Snapshot:
    """Read back a snapshot written as JSON or JSON-lines."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"record"' not in stripped.splitlines()[0]:
        return json.loads(text)
    metrics, spans = [], []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        record = obj.pop("record", "metric")
        (spans if record == "span" else metrics).append(obj)
    return {"metrics": metrics, "spans": spans}
