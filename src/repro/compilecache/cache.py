"""Compile-once / scan-many: the content-addressed compilation cache.

:class:`CompileCache` serves :class:`~repro.compilecache.artifact.CompiledDfa`
artifacts from a thread-safe in-process LRU, optionally backed by an
on-disk store (``cache_dir``) so a serving process restart keeps its warm
set.  Lookup order is memory → disk → build; every tier is instrumented
through :mod:`repro.obs` (``compilecache_hits_total{tier=...}``,
``compilecache_misses_total``, ``compilecache_build_seconds``), so a
serving loop's hit ratio is visible in any metrics snapshot.

:func:`scan_with_cache` is the deployment entry point: resolve (or build)
the artifact for a DFA + parameters, then run
:func:`repro.software.software_cse_scan` against it — a warm call does no
profiling, no table builds, and (on a fingerprint-matched process pool
with file-backed input) no per-segment input pickling.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Union

from repro import obs
from repro.automata.dfa import Dfa
from repro.compilecache.artifact import CompiledDfa, cache_key, compile_dfa
from repro.compilecache.store import (
    ArtifactValidationError,
    load_artifact,
    save_artifact,
)
from repro.core.profiling import ProfilingConfig

__all__ = ["CompileCache", "scan_with_cache"]


class CompileCache:
    """Thread-safe LRU of compiled DFA artifacts, keyed by content.

    Parameters
    ----------
    capacity:
        In-memory artifact budget; least-recently-used entries are evicted
        first (they remain on disk when a ``cache_dir`` is configured).
    cache_dir:
        Optional persistent store.  Artifacts are written atomically after
        a build and validated (format version, key, fingerprint) before a
        load is trusted; invalid files are ignored, not served.
    """

    def __init__(
        self,
        capacity: int = 8,
        cache_dir: Optional[Union[str, "object"]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CompiledDfa]" = OrderedDict()
        self._stats: Dict[str, int] = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "builds": 0,
            "evictions": 0,
            "invalid_disk_entries": 0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """A point-in-time copy of the hit/miss/build counters."""
        with self._lock:
            return dict(self._stats)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._stats["memory_hits"] + self._stats["disk_hits"]

    @property
    def misses(self) -> int:
        with self._lock:
            return self._stats["misses"]

    def clear_memory(self) -> None:
        """Drop the in-process tier (the disk tier is untouched)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        dfa: Dfa,
        profiling: Optional[ProfilingConfig] = None,
        cutoff: float = 0.99,
        max_blocks: Optional[int] = None,
        backend: str = "auto",
        n_segments: int = 16,
    ) -> CompiledDfa:
        """Serve the artifact for ``dfa`` + parameters, building on miss.

        The whole lookup runs under one lock: concurrent requests for the
        same key build exactly once and every other thread gets the cached
        artifact.  (Builds are profiling-bound — fractions of a second —
        so serializing them is the simple *and* cheaper choice versus
        racing duplicate profiling runs.)
        """
        profiling = profiling or ProfilingConfig()
        requested = "auto" if backend in (None, "auto") else str(backend)
        key = cache_key(
            dfa.fingerprint, profiling, cutoff, max_blocks, requested, n_segments
        )
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self._stats["memory_hits"] += 1
                obs.counter("compilecache_hits_total", tier="memory").inc()
                return compiled
            compiled = self._load_from_disk(key, dfa)
            if compiled is not None:
                self._stats["disk_hits"] += 1
                obs.counter("compilecache_hits_total", tier="disk").inc()
                self._insert(key, compiled)
                return compiled
            self._stats["misses"] += 1
            obs.counter("compilecache_misses_total").inc()
            with obs.span("compilecache.build", states=dfa.num_states,
                          n_segments=n_segments):
                compiled = compile_dfa(
                    dfa,
                    profiling=profiling,
                    cutoff=cutoff,
                    max_blocks=max_blocks,
                    backend=requested,
                    n_segments=n_segments,
                )
            self._stats["builds"] += 1
            obs.counter("compilecache_builds_total").inc()
            obs.histogram("compilecache_build_seconds").observe(
                compiled.build_seconds
            )
            if self.cache_dir is not None:
                save_artifact(compiled, self.cache_dir)
            self._insert(key, compiled)
            return compiled

    # ------------------------------------------------------------------
    # internals (caller holds the lock)
    # ------------------------------------------------------------------
    def _insert(self, key: str, compiled: CompiledDfa) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats["evictions"] += 1
            obs.counter("compilecache_evictions_total").inc()

    def _load_from_disk(self, key: str, dfa: Dfa) -> Optional[CompiledDfa]:
        if self.cache_dir is None:
            return None
        try:
            return load_artifact(self.cache_dir, key, dfa.fingerprint)
        except ArtifactValidationError:
            self._stats["invalid_disk_entries"] += 1
            obs.counter("compilecache_invalid_disk_entries_total").inc()
            return None


def scan_with_cache(
    dfa: Dfa,
    symbols,
    cache: Optional[CompileCache] = None,
    n_segments: int = 16,
    executor=None,
    policy: str = "opportunistic",
    backend: str = "auto",
    start_state: Optional[int] = None,
    verify: bool = True,
    profiling: Optional[ProfilingConfig] = None,
    cutoff: float = 0.99,
    max_blocks: Optional[int] = None,
):
    """Profile-if-needed + scan, through the compilation cache.

    With a ``cache``, a warm call reuses the artifact's partition and
    kernel tables outright; with ``cache=None`` the artifact is built
    fresh, which is exactly the un-cached pipeline (profile, merge,
    scan) — same values, same outcome.  Returns a
    :class:`repro.software.SoftwareRun`.
    """
    from repro.software import software_cse_scan

    if cache is not None:
        compiled = cache.get_or_compile(
            dfa,
            profiling=profiling,
            cutoff=cutoff,
            max_blocks=max_blocks,
            backend=backend,
            n_segments=n_segments,
        )
    else:
        compiled = compile_dfa(
            dfa,
            profiling=profiling,
            cutoff=cutoff,
            max_blocks=max_blocks,
            backend=backend,
            n_segments=n_segments,
        )
    return software_cse_scan(
        compiled.dfa,
        symbols,
        compiled.partition,
        n_segments=n_segments,
        executor=executor,
        policy=policy,
        backend=compiled.backend,
        start_state=start_state,
        verify=verify,
        compiled=compiled,
    )
