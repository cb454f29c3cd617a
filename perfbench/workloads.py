"""The benchmark's four closed-loop workloads.

Each workload is one caller that issues its next call when the last one
returns.  The machine each workload scans is fixed (its ruleset or DFA
seed is a constant below), so runs differ only in the input bytes the
``--seed`` generates; inputs of one seed are statistically alike, which
keeps every figure comparable across seeds.

A workload object goes through:

- ``__init__(seed, workdir)`` — generate the inputs (not timed);
- ``setup(tracer)`` — cold start to ready: compile the machine, profile
  it through a cold :class:`~repro.compilecache.CompileCache`, plan
  shards, start the pool, and make one warm-up call (timed as
  ``setup_s``; repeatable: each call starts from nothing);
- ``reference()`` — the expected result of every call, computed once on
  the interpreted path (:meth:`Dfa.run` / :meth:`Dfa.run_reports`);
- ``call()`` / ``check(outcome)`` — one timed call through the program's
  public entry point, then the comparison against the reference;
- ``close()`` — stop the pool, if any.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.regex.compile as regex_compile
from repro.automata.builders import random_dfa
from repro.compilecache import CompileCache, scan_with_cache
from repro.ingest import open_input
from repro.software import segment_pool
from repro.stream import FleetScanner, StreamScanner
from repro.workloads import generate_ruleset

from tracer import worker_report

MIB = 1 << 20


class Workload:
    name = ""
    #: the tail percentile reported as ``latency_tail_ms``; a run makes at
    #: least enough calls to leave ten samples beyond it
    tail_pct = 90.0
    #: the process pool the workload scans through, when it has one
    pool = None
    WORKERS = 0

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def call(self):
        """One timed call; returns ``(input_bytes, outcome)``."""
        raise NotImplementedError

    def check(self, outcome) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def stamp(self) -> Dict:
        """Provenance: the resolved backend, convergence sets, shards."""
        raise NotImplementedError

    def worker_usage(self) -> Dict[int, tuple]:
        """``pid -> (cpu_seconds, peak_rss_kb, spans)`` of every pool worker."""
        if self.pool is None:
            return {}
        seen: Dict[int, tuple] = {}
        for _ in range(10):
            futures = [self.pool.submit(worker_report)
                       for _ in range(self.WORKERS - len(seen))]
            for fut in futures:
                pid, cpu, rss, spans = fut.result()
                if pid in seen:  # same worker twice: merge its spans
                    spans = seen[pid][2] + spans
                seen[pid] = (cpu, rss, spans)
            if len(seen) == self.WORKERS:
                return seen
        raise RuntimeError("could not reach every pool worker")


class BulkRandom64(Workload):
    name = "bulk-random64"
    #: p90, not p95: over five runs of the same code, p95 spread 0.091 of
    #: its median (quartile distance) and p90 0.076
    tail_pct = 90.0
    DFA_SEED = 64
    BUFFERS = 4
    BYTES = MIB

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.buffers = [rng.integers(0, 16, size=self.BYTES, dtype=np.uint8)
                        for _ in range(self.BUFFERS)]

    def setup(self, tracer=None) -> None:
        self.dfa = random_dfa(64, 16, np.random.default_rng(self.DFA_SEED))
        self.cache = CompileCache()
        self.turn = 0
        self.call()  # warm-up

    def reference(self) -> None:
        self.expected = [self.dfa.run(buf) for buf in self.buffers]

    def call(self):
        i = self.turn
        self.turn = (i + 1) % len(self.buffers)
        run = scan_with_cache(self.dfa, self.buffers[i], cache=self.cache,
                              verify=False)
        return self.buffers[i].size, (i, run)

    def check(self, outcome) -> bool:
        i, run = outcome
        return run.final_state == self.expected[i]

    def stamp(self) -> Dict:
        compiled = self.cache.get_or_compile(self.dfa)
        return {"backend": compiled.backend,
                "convergence_sets": compiled.num_convergence_sets,
                "states": self.dfa.num_states, "shards": 0}


class StreamSnort(Workload):
    name = "stream-snort"
    #: a few chunks per MiB re-execute and take ~50% longer; p75 stays
    #: clear of that count's seed-to-seed swing
    tail_pct = 75.0
    RULESET_SEED = 4
    CHUNK = 64 << 10
    #: 64 distinct chunks: fewer let the seed's count of slow chunks
    #: swing the percentiles
    BYTES = 4 * MIB

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.stream = packet_bytes(rng, self.BYTES)
        self.chunks = [self.stream[a:a + self.CHUNK]
                       for a in range(0, self.BYTES, self.CHUNK)]

    def setup(self, tracer=None) -> None:
        self.dfa = regex_compile.compile_ruleset(
            generate_ruleset("Snort", 16, self.RULESET_SEED))
        self.cache = CompileCache()
        self.scanner = StreamScanner(self.dfa, backend="auto",
                                     cache=self.cache, n_segments=16)
        self.turn = 0
        self.call()  # warm-up
        self.scanner.reset()
        self.turn = 0

    def reference(self) -> None:
        # run_reports over the whole stream, chunk by chunk so that no
        # stream-sized int64 copy inflates the process's peak RSS
        self.expected = []
        state = self.dfa.start
        for i, chunk in enumerate(self.chunks):
            reports = [(i * self.CHUNK + at, q)
                       for at, q in self.dfa.run_reports(chunk, state)]
            state = self.dfa.run(chunk, state)
            self.expected.append((reports, state))

    def call(self):
        if self.turn == len(self.chunks):  # end of stream: new connection
            self.scanner.reset()
            self.turn = 0
        i = self.turn
        self.turn += 1
        reports = self.scanner.feed(self.chunks[i])
        return self.chunks[i].size, (i, reports, self.scanner.state)

    def check(self, outcome) -> bool:
        i, reports, state = outcome
        return (reports, state) == self.expected[i]

    def stamp(self) -> Dict:
        return {"backend": self.scanner.backend,
                "convergence_sets": self.scanner.partition.num_blocks,
                "states": self.dfa.num_states, "shards": 0}


class FilePoolDotstar(Workload):
    name = "file-pool-dotstar"
    tail_pct = 85.0
    RULESET_SEED = 2
    WORKERS = 2
    BYTES = MIB
    #: files scanned in turn.  About three 1 MiB files in ten re-execute
    #: a segment and take ~15% longer; with one file a run, that moved the
    #: median by 10% from seed to seed
    FILES = 16

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [workdir / f"dotstar-{i}.bin" for i in range(self.FILES)]
        for path in self.paths:
            path.write_bytes(packet_bytes(rng, self.BYTES).tobytes())

    def setup(self, tracer=None) -> None:
        self.close()
        self.dfa = regex_compile.compile_ruleset(
            generate_ruleset("Dotstar06", 8, self.RULESET_SEED))
        self.cache = CompileCache()
        if tracer is None:
            self.pool = segment_pool(self.dfa, self.WORKERS)
            self.worker_usage()  # start the workers
        else:
            with tracer.span("software.pool_start"):
                self.pool = segment_pool(self.dfa, self.WORKERS)
                self.worker_usage()
            trace_pool(tracer, self.pool)
        self.turn = 0
        self.call()  # warm-up

    def reference(self) -> None:
        self.expected = [self.dfa.run(np.fromfile(path, dtype=np.uint8))
                         for path in self.paths]

    def call(self):
        i = self.turn
        self.turn = (i + 1) % len(self.paths)
        with open_input(self.paths[i]) as view:
            run = scan_with_cache(self.dfa, view, cache=self.cache,
                                  executor=self.pool)
            return view.nbytes, (i, run)

    def check(self, outcome) -> bool:
        i, run = outcome
        return run.final_state == self.expected[i]

    def stamp(self) -> Dict:
        compiled = self.cache.get_or_compile(self.dfa)
        return {"backend": compiled.backend,
                "convergence_sets": compiled.num_convergence_sets,
                "states": self.dfa.num_states, "shards": 0,
                "pool_workers": self.WORKERS}


class FleetExactMatch(Workload):
    name = "fleet-exactmatch"
    tail_pct = 90.0  # as bulk-random64
    FLEET_SEED = 20180623
    MACHINES = 64
    PATTERNS = 3
    BYTES = MIB
    #: texts scanned in turn: one text's call time differs from another's
    #: by up to 12% (the prefilter's work depends on the text), which moved
    #: the median from seed to seed when a run scanned one text
    TEXTS = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.texts = [rng.integers(97, 123, size=self.BYTES, dtype=np.uint8)
                      for _ in range(self.TEXTS)]

    def setup(self, tracer=None) -> None:
        self.dfas = [
            regex_compile.compile_ruleset(
                generate_ruleset("ExactMatch", self.PATTERNS,
                                 self.FLEET_SEED + i))
            for i in range(self.MACHINES)
        ]
        self.cache = CompileCache()
        self.fleet = FleetScanner(self.dfas, shard=True, cache=self.cache)
        self.turn = 0
        self.call()  # warm-up

    def reference(self) -> None:
        self.expected = [[final_state(dfa, text) for dfa in self.dfas]
                         for text in self.texts]

    def call(self):
        i = self.turn
        self.turn = (i + 1) % len(self.texts)
        result = self.fleet.scan_wallclock(self.texts[i], verify=False)
        return self.texts[i].size, (i, result)

    def check(self, outcome) -> bool:
        i, result = outcome
        return result.final_states == self.expected[i]

    def stamp(self) -> Dict:
        return {"backend": ",".join(sorted(set(self.fleet.unit_backends))),
                "convergence_sets": sum(c.num_convergence_sets
                                        for c in self.fleet.unit_compiled),
                "states": sum(d.num_states for d in self.dfas),
                "shards": len(self.fleet.shards)}


#: :func:`repro.workloads.corpus.packet_corpus`'s defaults: the protocol
#: keywords it injects, their rate per position, and the packet length
#: after which a 0 byte ends the packet
PACKET_KEYWORDS = ("GET", "POST", "HEAD", "HTTP", "admin", "login", "passwd",
                   "cmd", "exec", "shell", "root", "select", "union",
                   "script")
KEYWORD_RATE = 0.02
PACKET_LEN = 400


def packet_bytes(rng: np.random.Generator, nbytes: int) -> np.ndarray:
    """``nbytes`` of :func:`repro.workloads.corpus.packet_corpus`'s stream.

    The same process as ``packet_corpus`` with its defaults: each
    position is a protocol keyword with probability ``KEYWORD_RATE``,
    else a printable byte, and a 0 byte ends each packet once it holds
    ``PACKET_LEN`` bytes.  It draws a packet at a time with
    numpy instead of a byte at a time in Python, so 4 MiB take a fraction
    of a second instead of 15 s (which would dwarf a benchmark run).
    """
    words = [np.frombuffer(w.encode(), dtype=np.uint8)
             for w in PACKET_KEYWORDS]
    word_len = np.array([w.size for w in words])
    table = np.zeros((len(words), word_len.max()), dtype=np.uint8)
    for i, w in enumerate(words):
        table[i, :w.size] = w
    packets: List[np.ndarray] = []
    total = 0
    while total < nbytes:
        # PACKET_LEN tokens always fill a packet: each is at least a byte
        is_word = rng.random(PACKET_LEN) < KEYWORD_RATE
        which = rng.integers(len(words), size=PACKET_LEN)
        chars = rng.integers(32, 127, size=PACKET_LEN, dtype=np.uint8)
        lengths = np.where(is_word, word_len[which], 1)
        ends = np.cumsum(lengths)
        n = int(np.searchsorted(ends, PACKET_LEN)) + 1  # first end >= len
        token = np.repeat(np.arange(n), lengths[:n])
        offset = np.arange(ends[n - 1]) - (ends[:n] - lengths[:n])[token]
        packet = np.where(is_word[token], table[which[token], offset],
                          chars[token])
        packets.append(np.append(packet, np.uint8(0)))
        total += packets[-1].size
    return np.concatenate(packets)[:nbytes]


def final_state(dfa, symbols: np.ndarray, window: int = 64) -> int:
    """``dfa.run(symbols)``, through a synchronizing suffix when one exists.

    If every state of ``dfa`` reaches the same state ``q`` over the last
    ``w`` symbols, the run over all of ``symbols`` ends in ``q`` whatever
    state the prefix left it in — so the interpreted walk of the whole
    buffer is needed only when no suffix synchronizes.  This keeps the
    reference for 64 fleet machines over 1 MiB to milliseconds instead of
    the ~20 s of 64 full :meth:`Dfa.run` walks.
    """
    while window < symbols.size:
        ends = dfa.run_all_states(symbols[-window:])
        if (ends == ends[0]).all():
            return int(ends[0])
        window *= 4
    return dfa.run(symbols)


def trace_pool(tracer, pool) -> None:
    """Span every task submission and every wait on a task's result."""

    def observe(span, future, args, kwargs):
        result = future.result

        def traced_result(*a, **k):
            index = tracer.open("software.pool_wait")
            try:
                return result(*a, **k)
            finally:
                tracer.close(index)

        future.result = traced_result

    tracer.wrap(pool, "submit", "software.pool_submit", observe)


WORKLOADS = {w.name: w for w in
             (BulkRandom64, StreamSnort, FilePoolDotstar, FleetExactMatch)}
