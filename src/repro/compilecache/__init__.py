"""Compile-once, scan-many: content-addressed compilation caching.

The CSE pipeline is two-phase — an offline phase (random-input profiling,
partition-refinement merge) and an online scan — but without this package
the software path pays the offline phase on every run, plus per-scan
rebuilds of every kernel table.  Here the offline products become a
content-addressed artifact served from a cache:

- :class:`CompiledDfa` — the artifact: profiling census, merged
  convergence partition, scalar table rows, the dense/native kernels'
  dtype-narrowed table, the literal-prefilter certificate, and the
  resolved backend hint.
- :func:`cache_key` / :func:`compile_dfa` — content addressing and the
  one-shot build.
- :class:`CompileCache` — thread-safe in-process LRU with an optional
  validated on-disk store; instrumented via :mod:`repro.obs`.
- :func:`scan_with_cache` — the serving entry point: artifact lookup +
  :func:`repro.software.software_cse_scan` against it.

A warm serving loop (same ruleset, stream of inputs) does no profiling,
no table builds, and — on a fingerprint-matched process pool with shared
memory — no per-segment input pickling.
"""

from repro.compilecache.artifact import CompiledDfa, cache_key, compile_dfa
from repro.compilecache.cache import CompileCache, scan_with_cache
from repro.compilecache.store import (
    FORMAT_VERSION,
    ArtifactValidationError,
    artifact_path,
    load_artifact,
    save_artifact,
)

__all__ = [
    "CompiledDfa",
    "cache_key",
    "compile_dfa",
    "CompileCache",
    "scan_with_cache",
    "FORMAT_VERSION",
    "ArtifactValidationError",
    "artifact_path",
    "load_artifact",
    "save_artifact",
]
