"""Streaming and fleet scanning: the deployment-facing API.

The engine classes answer "how fast is one design on one string"; a real
deployment (the NIDS or mail gateway of the paper's introduction) needs
two more shapes:

- :class:`StreamScanner` — feed byte chunks as they arrive, carry the FSM
  state across chunks, get report events with global offsets.  On a
  kernel backend each chunk is one compiled concrete walk
  (:func:`repro.kernels.walk`) that yields the reports and the end state
  together; an optional model ``engine`` charges long chunks at its
  parallel cycle cost.
- :class:`FleetScanner` — scan one input against *many* FSMs (the paper's
  benchmarks are collections of hundreds), allocating the AP's half-cores
  across machines and reporting aggregate throughput.

Both preserve exact sequential semantics: every report a sequential scan
would emit, no more, no fewer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa, as_symbols
from repro.core.engine import CseEngine
from repro.core.partition import StatePartition
from repro.engines.base import Engine
from repro.engines.sequential import SequentialEngine
from repro.fleet import ShardMachine, ShardPlan, plan_shards
from repro.hardware.ap import APConfig
from repro.hardware.cost import throughput_symbols_per_sec
from repro.ingest import byte_view
from repro.kernels import DenseTables, resolve_backend, walk

__all__ = ["StreamScanner", "FleetScanner", "FleetResult", "FleetWallclock",
           "CHUNK_LATENCY_BUCKETS"]

#: per-metric histogram override for chunk latencies: a finer 1-2.5-5
#: ladder from 10 microseconds to 10 seconds — chunk feeds are far
#: narrower than the generic DEFAULT_BUCKETS span, so percentile
#: estimates from the live endpoint gain a full decade of resolution
CHUNK_LATENCY_BUCKETS = tuple(
    round(m * 10.0 ** e, 12) for e in range(-5, 1) for m in (1.0, 2.5, 5.0)
)


class StreamScanner:
    """Incremental scanning with exact report offsets.

    Parameters
    ----------
    dfa:
        The compiled ruleset.
    engine:
        Optional parallel engine used to *model* chunk latency (its cycle
        count feeds :attr:`cycles`, and its final state carries the
        stream); reports still come from the exact sequential walk.
    min_parallel_chunk:
        Chunks shorter than this are charged to the model ``engine`` at
        sequential cost — with segments only a few symbols long,
        enumeration cannot pay off.  Without an ``engine`` it has no
        effect.
    backend:
        ``"python"`` (the default) keeps the interpreted reference:
        :meth:`Dfa.run_reports` for the reports, :meth:`Dfa.run` for the
        end state.  Any other backend runs each chunk as one concrete
        walk (:func:`repro.kernels.walk`) that yields the reports and the
        end state together — compiled when the native library loads, the
        interpreted list walk otherwise, with identical results.
        ``None``/``"auto"`` resolves through
        :func:`repro.kernels.resolve_backend` (the helper
        :class:`FleetScanner` uses) and names like ``"dense"`` or
        ``"native"`` are validated the same way; the resolved name is
        kept in :attr:`backend`.
    partition:
        Convergence partition recorded for the resolved backend; defaults
        to the trivial single-set partition.
    n_segments:
        Segment count the backend is resolved (and a cached artifact
        compiled) for.
    cache:
        Optional :class:`repro.compilecache.CompileCache`.  When given
        (and no explicit ``partition``), the scanner serves its partition
        and walk tables from a compiled artifact — profiled on first
        use, reused by every scanner of the same ruleset afterwards.
    """

    def __init__(
        self,
        dfa: Dfa,
        engine: Optional[Engine] = None,
        min_parallel_chunk: int = 512,
        backend: Optional[str] = "python",
        partition: Optional[StatePartition] = None,
        n_segments: int = 8,
        cache=None,
    ):
        self.dfa = dfa
        self.engine = engine
        self.min_parallel_chunk = int(min_parallel_chunk)
        self.n_segments = int(n_segments)
        self.compiled = None
        if cache is not None and partition is None:
            self.compiled = cache.get_or_compile(
                dfa, backend=backend or "auto", n_segments=self.n_segments
            )
            self.partition = self.compiled.partition
            self.backend = self.compiled.backend
        else:
            self.partition = partition or StatePartition.trivial(dfa.num_states)
            self.backend = resolve_backend(
                dfa, backend, self.partition, n_segments
            )
        # the walk's tables: the artifact's when cached, else built once
        self._tables: Optional[DenseTables] = None
        self._rows = None
        if self.backend != "python":
            if self.compiled is not None:
                self._tables = self.compiled.dense_tables()
                self._rows = self.compiled.rows
            else:
                self._tables = DenseTables(dfa)
        self.reset()

    def reset(self) -> None:
        """Forget all stream state (new connection / new file)."""
        self.state = self.dfa.start
        self.offset = 0
        self.cycles = 0
        self.reports: List[Tuple[int, int]] = []
        #: one trace id per stream lifetime (minted lazily on first
        #: instrumented feed); every chunk span joins it
        self.trace_id: Optional[str] = None

    def feed(self, chunk) -> List[Tuple[int, int]]:
        """Consume one chunk; return the report events it produced.

        Report offsets are global stream offsets.
        """
        if not obs.is_enabled():
            return self._feed(chunk)[0]
        if self.trace_id is None:
            self.trace_id = obs.new_trace_id()
        with obs.trace(self.trace_id):
            wall = time.time()
            begin = time.perf_counter()
            reports, n = self._feed(chunk)
            duration = time.perf_counter() - begin
            obs.record_span("stream.feed", wall, duration,
                            n_symbols=n, backend=self.backend)
            obs.counter("stream_chunks_total").inc()
            obs.counter("stream_symbols_total").inc(n)
            obs.counter("stream_reports_total").inc(len(reports))
            obs.histogram(
                "stream_chunk_seconds", buckets=CHUNK_LATENCY_BUCKETS
            ).observe(duration)
        return reports

    def _feed(self, chunk) -> Tuple[List[Tuple[int, int]], int]:
        """Consume one chunk; return its reports and its symbol count."""
        view8 = byte_view(chunk)
        syms = view8 if view8 is not None else as_symbols(chunk)
        n = int(syms.size)
        if n == 0:
            return [], 0
        end_state: Optional[int] = None
        if self.backend == "python":
            local_reports = self.dfa.run_reports(syms, self.state)
        else:
            end_state, local_reports = walk(
                self.dfa, syms, self.state, tables=self._tables,
                rows=self._rows, reports=True,
            )
        if self.engine is not None and n >= self.min_parallel_chunk:
            run = self.engine.run(syms, start_state=self.state)
            self.cycles += run.cycles
            end_state = run.final_state
        else:
            self.cycles += n
            if end_state is None:
                end_state = self.dfa.run(syms, self.state)
        new_reports = [
            (self.offset + local, state) for local, state in local_reports
        ]
        self.state = int(end_state)
        self.offset += n
        self.reports.extend(new_reports)
        return new_reports, n

    def finish(self) -> Tuple[int, List[Tuple[int, int]]]:
        """Final state and the full report log."""
        return self.state, list(self.reports)


@dataclass
class FleetResult:
    """Aggregate outcome of a fleet scan."""

    n_fsms: int
    n_symbols: int
    #: per-FSM report events
    reports: Dict[int, List[Tuple[int, int]]]
    #: critical-path cycles (FSMs run concurrently on separate half-cores)
    cycles: int
    config: APConfig = field(default_factory=APConfig)
    #: input passes actually paid for (shards or deduped machines)
    n_scans: int = 0

    @property
    def total_reports(self) -> int:
        return sum(len(r) for r in self.reports.values())

    @property
    def throughput(self) -> float:
        """Aggregate symbols/second at the modeled clock."""
        return throughput_symbols_per_sec(self.n_symbols, self.cycles, self.config)


class FleetScanner:
    """Scan inputs against a collection of FSMs (multi-ruleset deployment).

    Half-cores are split across scan units the way Table I splits them
    across segments: with ``U`` units and ``H`` total half-cores, each
    unit gets ``H // U`` half-cores (minimum 1) for its segments, and
    units beyond the core budget are serialized in rounds.

    Two layers reduce the number of scan units below ``len(dfas)``:

    - **dedupe** — identical rulesets (same :attr:`Dfa.fingerprint`, no
      explicit partition) profile and scan once; duplicates share the
      unit's results.
    - **sharding** (``shard=``) — alphabet-compatible machines are packed
      into product/union :class:`~repro.fleet.ShardMachine` units by
      :func:`repro.fleet.plan_shards`, so each unit pays one input pass
      for *all* its members and per-ruleset outcomes are demultiplexed
      from the product state, bit-identical to the per-machine loop.
      Pass ``True`` to plan with the default
      :data:`~repro.fleet.SHARD_MAX_STATES` budget
      or a :class:`~repro.fleet.ShardPlan` (over the deduped fleet) to
      reuse a plan.  Explicit ``partitions`` are per-machine objects and
      are rejected in shard mode.
    """

    def __init__(
        self,
        dfas: Sequence[Dfa],
        partitions: Optional[Sequence[Optional[StatePartition]]] = None,
        config: Optional[APConfig] = None,
        n_segments: int = 8,
        backend: Optional[str] = "auto",
        cache=None,
        shard: Union[bool, ShardPlan] = False,
        max_shard_states: Optional[int] = None,
    ):
        if not dfas:
            raise ValueError("need at least one FSM")
        self.config = config or APConfig()
        self.n_segments = int(n_segments)
        self.dfas: List[Dfa] = list(dfas)
        partitions = list(partitions) if partitions is not None else [None] * len(dfas)
        if len(partitions) != len(self.dfas):
            raise ValueError("one partition (or None) per FSM required")

        # -- dedupe: identical partition-less rulesets scan once --------
        seen: Dict[Tuple, int] = {}
        self.unique_of: List[int] = []      # original index -> unique slot
        self.unique_indices: List[int] = []  # unique slot -> first original
        unique_dfas: List[Dfa] = []
        unique_partitions: List[Optional[StatePartition]] = []
        for i, (dfa, partition) in enumerate(zip(self.dfas, partitions)):
            fp = dfa.fingerprint if partition is None else None
            if fp is not None and fp in seen:
                self.unique_of.append(seen[fp])
                continue
            slot = len(unique_dfas)
            if fp is not None:
                seen[fp] = slot
            unique_dfas.append(dfa)
            unique_partitions.append(partition)
            self.unique_indices.append(i)
            self.unique_of.append(slot)
        self.n_duplicates = len(self.dfas) - len(unique_dfas)
        if self.n_duplicates and obs.is_enabled():
            obs.counter("fleet_deduped_machines_total").inc(self.n_duplicates)

        # -- sharding: pack unique machines into product units ----------
        self.plan: Optional[ShardPlan] = None
        if shard:
            if any(p is not None for p in partitions):
                raise ValueError(
                    "explicit partitions are per-machine objects and cannot "
                    "be combined with shard="
                )
            if isinstance(shard, ShardPlan):
                covered = sorted(
                    i for s in shard.shards for i in s.member_indices
                )
                if covered != list(range(len(unique_dfas))):
                    raise ValueError(
                        "shard plan must cover every deduped fleet machine "
                        "exactly once"
                    )
                self.plan = shard
            else:
                self.plan = plan_shards(
                    unique_dfas,
                    max_states=max_shard_states,
                    config=self.config,
                )
            self.shards: Tuple[ShardMachine, ...] = self.plan.shards
            unit_dfas: List[Dfa] = [s.dfa for s in self.shards]
        else:
            self.shards = ()
            unit_dfas = unique_dfas

        # -- per-unit engines, backends, compiled artifacts -------------
        self.n_units = len(unit_dfas)
        per_unit_cores = max(1, self.config.total_half_cores // self.n_units)
        cores_per_segment = max(1, per_unit_cores // self.n_segments)
        self.unit_engines: List[Engine] = []
        self.unit_backends: List[str] = []
        self.unit_compiled: List = []
        for u, dfa in enumerate(unit_dfas):
            partition = None if self.plan is not None else unique_partitions[u]
            compiled = None
            if cache is not None and partition is None:
                # units share one cache; singleton shards carry the member
                # Dfa itself, so their artifacts are the per-machine ones
                compiled = cache.get_or_compile(
                    dfa, backend=backend or "auto", n_segments=self.n_segments
                )
                partition = compiled.partition
            elif partition is None:
                partition = StatePartition.trivial(dfa.num_states)
            self.unit_compiled.append(compiled)
            # same shared default-resolution helper StreamScanner uses
            self.unit_backends.append(
                compiled.backend
                if compiled is not None
                else resolve_backend(dfa, backend, partition, self.n_segments)
            )
            self.unit_engines.append(
                CseEngine(
                    dfa,
                    n_segments=self.n_segments,
                    cores_per_segment=cores_per_segment,
                    config=self.config,
                    partition=partition,
                )
            )
        #: how many units can run concurrently on the rank
        self.concurrency = max(
            1, self.config.total_half_cores // max(1, per_unit_cores)
        )

    # -- per-machine views (shared unit objects) ------------------------
    def _unit_of(self, original: int) -> int:
        slot = self.unique_of[original]
        if self.plan is None:
            return slot
        return self.plan.member_to_shard()[slot][0]

    @property
    def engines(self) -> List[Engine]:
        """Per-original-machine view of the unit engines (shared objects)."""
        return [self.unit_engines[self._unit_of(i)] for i in range(len(self.dfas))]

    @property
    def backends(self) -> List[str]:
        return [self.unit_backends[self._unit_of(i)] for i in range(len(self.dfas))]

    @property
    def compiled(self) -> List:
        return [self.unit_compiled[self._unit_of(i)] for i in range(len(self.dfas))]

    # -- scanning -------------------------------------------------------
    def _round_cycles(self, per_unit_cycles: List[int]) -> int:
        # units run `concurrency` at a time; rounds are serialized
        ordered = sorted(per_unit_cycles, reverse=True)
        cycles = 0
        for round_start in range(0, len(ordered), self.concurrency):
            cycles += ordered[round_start]  # slowest of the round
        return cycles

    def _fan_out(
        self, per_slot: Dict[int, List[Tuple[int, int]]]
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Expand per-unique-slot results back to every original machine."""
        return {
            i: per_slot[self.unique_of[i]] for i in range(len(self.dfas))
        }

    def scan(self, symbols) -> FleetResult:
        """Run every scan unit over the input; verify against sequential.

        Reports are keyed by *original* machine index regardless of
        dedupe or sharding, and are bit-identical to each machine's own
        sequential :meth:`Dfa.run_reports`.  With observability enabled
        the whole fleet pass shares one trace id, and a per-scan summary
        (units, shards, cycles) lands in the flight recorder.
        """
        if not obs.is_enabled():
            return self._scan(symbols)
        with obs.trace() as trace_id:
            result = self._scan(symbols)
        obs.record_scan(
            kind="fleet",
            trace_id=trace_id,
            n_fsms=result.n_fsms,
            n_units=self.n_units,
            n_shards=len(self.shards),
            n_symbols=result.n_symbols,
            cycles=result.cycles,
        )
        return result

    def _scan(self, symbols) -> FleetResult:
        syms = as_symbols(symbols)
        per_unit_cycles: List[int] = []
        per_slot: Dict[int, List[Tuple[int, int]]] = {}
        collect = obs.is_enabled()
        wall = time.time()
        begin = time.perf_counter()
        if self.plan is not None:
            for s, (shard, engine) in enumerate(
                zip(self.shards, self.unit_engines)
            ):
                run = engine.run(syms)
                final, demuxed = shard.scan_sequential(syms)
                if run.final_state != final:
                    raise AssertionError(
                        f"fleet shard {s} diverged from demux oracle"
                    )
                per_slot.update(demuxed)
                per_unit_cycles.append(run.cycles)
                if collect:
                    obs.gauge("fleet_shard_throughput", shard=s).set(
                        throughput_symbols_per_sec(
                            int(syms.size), run.cycles, self.config
                        )
                    )
        else:
            for slot, engine in enumerate(self.unit_engines):
                run = engine.run(syms)
                sequential = SequentialEngine(
                    engine.dfa, config=self.config
                ).run(syms)
                if run.final_state != sequential.final_state:
                    raise AssertionError(
                        f"fleet FSM {self.unique_indices[slot]} diverged "
                        "from oracle"
                    )
                per_slot[slot] = sequential.reports or []
                per_unit_cycles.append(run.cycles)
                if collect:
                    obs.gauge(
                        "fleet_machine_throughput",
                        fsm=self.unique_indices[slot],
                    ).set(
                        throughput_symbols_per_sec(
                            int(syms.size), run.cycles, self.config
                        )
                    )
                    obs.counter(
                        "fleet_machine_reports_total",
                        fsm=self.unique_indices[slot],
                    ).inc(len(per_slot[slot]))
        reports = self._fan_out(per_slot)
        cycles = self._round_cycles(per_unit_cycles)
        if collect:
            obs.record_span("fleet.scan", wall, time.perf_counter() - begin,
                            n_fsms=len(self.dfas), n_units=self.n_units,
                            n_symbols=int(syms.size))
            obs.counter("fleet_scans_total").inc()
        return FleetResult(
            n_fsms=len(self.dfas),
            n_symbols=int(syms.size),
            reports=reports,
            cycles=int(cycles),
            config=self.config,
            n_scans=self.n_units,
        )

    def scan_wallclock(self, symbols, verify: bool = True) -> "FleetWallclock":
        """Measured-seconds fleet scan on the software kernels.

        Runs every scan unit's software CSE scan with its resolved kernel
        backend and reports real wall-clock, the deployment-facing
        counterpart of the cycle-model :meth:`scan`.  ``verify=False``
        skips the per-unit sequential oracle (pure kernel timing — the
        benchmark path); correctness is still pinned by :meth:`scan` and
        the equivalence tests.  :attr:`FleetWallclock.final_states` is
        always per *original* machine, demuxed out of shard units.

        With observability enabled the whole fleet pass shares one trace
        id — each unit's ``software_cse_scan`` joins it — and a per-scan
        summary (units, shards, backends, wallclock) lands in the flight
        recorder.
        """
        if not obs.is_enabled():
            return self._scan_wallclock(symbols, verify)
        with obs.trace() as trace_id:
            result = self._scan_wallclock(symbols, verify)
        obs.record_scan(
            kind="fleet_wallclock",
            trace_id=trace_id,
            n_fsms=len(self.dfas),
            n_units=self.n_units,
            n_shards=len(self.shards),
            backends=",".join(sorted(set(self.unit_backends))),
            elapsed_seconds=result.elapsed_seconds,
            reexec_segments=sum(r.reexec_segments for r in result.runs),
        )
        return result

    def _scan_wallclock(self, symbols, verify: bool = True) -> "FleetWallclock":
        from repro.software import software_cse_scan

        # byte input stays at byte width: every unit's scan reads the view
        view8 = byte_view(symbols)
        syms = view8 if view8 is not None else as_symbols(symbols)
        runs = []
        collect = obs.is_enabled()
        wall = time.time()
        begin = time.perf_counter()
        for u, (engine, backend, compiled) in enumerate(
            zip(self.unit_engines, self.unit_backends, self.unit_compiled)
        ):
            run = software_cse_scan(
                engine.dfa,
                syms,
                engine.partition,
                n_segments=self.n_segments,
                backend=backend,
                verify=verify,
                compiled=compiled,
            )
            runs.append(run)
            if collect and run.elapsed_seconds > 0:
                label = "fleet_shard_wallclock_throughput" \
                    if self.plan is not None else \
                    "fleet_machine_wallclock_throughput"
                obs.gauge(label, fsm=u).set(
                    run.n_symbols / run.elapsed_seconds
                )
        # demux per-unit final states back to per-original-machine finals
        slot_finals: Dict[int, int] = {}
        if self.plan is not None:
            for shard, run in zip(self.shards, runs):
                slot_finals.update(shard.demux_finals(run.final_state))
        else:
            for slot, run in enumerate(runs):
                slot_finals[slot] = int(run.final_state)
        final_states = [
            slot_finals[self.unique_of[i]] for i in range(len(self.dfas))
        ]
        if collect:
            obs.record_span("fleet.scan_wallclock", wall,
                            time.perf_counter() - begin,
                            n_fsms=len(self.dfas), n_units=self.n_units,
                            n_symbols=int(syms.size))
        return FleetWallclock(runs=runs, final_states=final_states)


@dataclass
class FleetWallclock:
    """Wall-clock outcome of :meth:`FleetScanner.scan_wallclock`."""

    runs: List  # List[repro.software.SoftwareRun], one per scan unit
    #: final state per *original* machine (demuxed in shard mode)
    final_states: Optional[List[int]] = None

    @property
    def sequential_seconds(self) -> float:
        return sum(r.sequential_seconds for r in self.runs)

    @property
    def elapsed_seconds(self) -> float:
        return sum(r.elapsed_seconds for r in self.runs)

    @property
    def critical_path_seconds(self) -> float:
        """Units run concurrently: the fleet latency is the slowest unit."""
        return max(r.critical_path_seconds for r in self.runs)

    @property
    def work_speedup(self) -> float:
        path = self.critical_path_seconds
        return self.sequential_seconds / path if path > 0 else float("inf")
