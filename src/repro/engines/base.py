"""Common engine interface and run-result records.

Every engine consumes one input string and produces a :class:`RunResult`
carrying the *functional* output (final state, equal to the sequential
oracle's by construction) and the *performance* output (cycles on the AP
cost model, per-segment R traces, re-execution counts).  The experiment
harness compares engines purely through these records.
"""

from __future__ import annotations

import abc
import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa
from repro.hardware.ap import APConfig
from repro.hardware.cost import parallel_cycles, throughput_symbols_per_sec
from repro.ingest import admit

__all__ = [
    "Engine",
    "RunResult",
    "SegmentTrace",
    "even_boundaries",
]


def even_boundaries(n_symbols: int, n_segments: int) -> List[Tuple[int, int]]:
    """Split ``[0, n_symbols)`` into ``n_segments`` near-equal spans.

    The first segments absorb the remainder, matching the paper's "always
    divide into equal segments" for LBE/CSE.  Segments never come out empty
    unless the input is shorter than the segment count, in which case the
    trailing spans are empty and engines skip them.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    base, rem = divmod(n_symbols, n_segments)
    bounds = []
    pos = 0
    for i in range(n_segments):
        length = base + (1 if i < rem else 0)
        bounds.append((pos, pos + length))
        pos += length
    return bounds


@dataclass
class SegmentTrace:
    """Per-segment execution record.

    ``r_trace`` has one entry per symbol plus a trailing entry:
    ``r_trace[t]`` is the number of live flows *entering* symbol ``t`` and
    ``r_trace[-1]`` is the count after the last symbol (the segment's RT).
    ``cycles`` is the integrated cost including any prologue (e.g. LBE
    lookback).
    """

    start: int
    end: int
    r_trace: List[int]
    cycles: int

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def r0(self) -> int:
        """Flows at the start of enumeration (1 for the concrete segment)."""
        return self.r_trace[0] if self.r_trace else 1

    @property
    def rt(self) -> int:
        """Flows at the end of the segment."""
        return self.r_trace[-1] if self.r_trace else 1


@dataclass
class RunResult:
    """Outcome of one engine run over one input string."""

    engine: str
    n_symbols: int
    final_state: int
    cycles: int
    config: APConfig
    segments: List[SegmentTrace] = field(default_factory=list)
    reexec_segments: int = 0
    reexec_cycles: int = 0
    reports: Optional[List[Tuple[int, int]]] = None
    details: Dict = field(default_factory=dict)

    @property
    def n_segments(self) -> int:
        return max(1, len(self.segments))

    @property
    def baseline_cycles(self) -> int:
        """Cycles a sequential FSM would take (1 symbol/cycle)."""
        return self.n_symbols * self.config.symbol_cycles

    @property
    def speedup(self) -> float:
        """Throughput gain over the sequential baseline."""
        if self.cycles <= 0:
            return float("inf")
        return self.baseline_cycles / self.cycles

    @property
    def ideal_speedup(self) -> float:
        """Upper bound: every segment at 1 symbol/cycle."""
        return float(self.n_segments)

    @property
    def throughput(self) -> float:
        """Symbols per second under the AP clock."""
        return throughput_symbols_per_sec(self.n_symbols, self.cycles, self.config)

    def r0_values(self) -> List[int]:
        """R0 of the *enumerative* segments (all but the first)."""
        return [s.r0 for s in self.segments[1:]] or [1]

    def rt_values(self) -> List[int]:
        """RT of the enumerative segments."""
        return [s.rt for s in self.segments[1:]] or [1]

    @property
    def r0_mean(self) -> float:
        return statistics.fmean(self.r0_values())

    @property
    def rt_mean(self) -> float:
        return statistics.fmean(self.rt_values())


def _instrument_run(run):
    """Wrap an engine's ``run`` with a span + counters when obs is on.

    Applied automatically to every concrete override via
    :meth:`Engine.__init_subclass__`, so individual engines stay
    telemetry-free.  Engines that delegate to an inherited ``run``
    (e.g. adaptive calling ``super().run``) are guarded against double
    counting with a per-instance reentrancy flag.
    """

    @functools.wraps(run)
    def wrapper(self, symbols, start_state=None):
        if not obs.is_enabled() or getattr(self, "_obs_in_run", False):
            return run(self, symbols, start_state)
        self._obs_in_run = True
        wall = time.time()
        begin = time.perf_counter()
        try:
            result = run(self, symbols, start_state)
        finally:
            self._obs_in_run = False
        duration = time.perf_counter() - begin
        name = self.name
        obs.record_span("engine.run", wall, duration, engine=name,
                        n_symbols=result.n_symbols, cycles=result.cycles)
        obs.counter("engine_runs_total", engine=name).inc()
        obs.counter("engine_symbols_total", engine=name).inc(result.n_symbols)
        obs.counter("engine_cycles_total", engine=name).inc(result.cycles)
        obs.counter("engine_reexec_segments_total", engine=name).inc(
            result.reexec_segments
        )
        obs.counter("engine_r0_total", engine=name).inc(
            sum(result.r0_values())
        )
        obs.counter("engine_rt_total", engine=name).inc(
            sum(result.rt_values())
        )
        obs.counter("engine_diverged_segments_total", engine=name).inc(
            sum(1 for s in result.segments[1:] if s.rt > 1)
        )
        obs.histogram("engine_run_seconds", engine=name).observe(duration)
        return result

    wrapper.__obs_wrapped__ = True
    return wrapper


class Engine(abc.ABC):
    """A parallel FSM execution design under the AP cost model.

    Parameters
    ----------
    dfa:
        The machine to execute.
    n_segments:
        Parallel segments the input is cut into (paper: Table I).
    cores_per_segment:
        Half-cores allocated to each segment (Table I's "#Half-Core per
        Segment"); more cores cut the time-multiplexing penalty of high R.
    config:
        AP cost constants.
    """

    #: Table II metadata, overridden per engine.
    building_block = "state FSM"
    static_optimization = "NA"
    dynamic_optimization = "NA"
    #: Display name used in results and figures (paper's design labels).
    display_name: Optional[str] = None

    def __init__(
        self,
        dfa: Dfa,
        n_segments: int = 16,
        cores_per_segment: int = 1,
        config: Optional[APConfig] = None,
    ):
        if n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if cores_per_segment < 1:
            raise ValueError("cores_per_segment must be >= 1")
        self.dfa = dfa
        self.n_segments = n_segments
        self.cores_per_segment = cores_per_segment
        self.config = config or APConfig()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "__obs_wrapped__", False):
            cls.run = _instrument_run(run)

    @property
    def name(self) -> str:
        return self.display_name or type(self).__name__.replace("Engine", "")

    @abc.abstractmethod
    def run(self, symbols, start_state: Optional[int] = None) -> RunResult:
        """Execute one input string and return the run record."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _prepare(self, symbols, start_state: Optional[int]):
        start = self.dfa.start if start_state is None else int(start_state)
        syms = admit(symbols, self.dfa.alphabet_size, start,
                     self.dfa.num_states)
        return syms, start

    def _finalize(
        self,
        syms: np.ndarray,
        final_state: int,
        segments: List[SegmentTrace],
        serial_tail: int = 0,
        **details,
    ) -> RunResult:
        cycles = parallel_cycles((s.cycles for s in segments), serial_tail)
        return RunResult(
            engine=self.name,
            n_symbols=int(syms.size),
            final_state=int(final_state),
            cycles=int(cycles),
            config=self.config,
            segments=segments,
            reexec_cycles=int(serial_tail),
            details=details,
        )

    def run_many(self, strings: Sequence, start_state: Optional[int] = None) -> List[RunResult]:
        """Run a batch of independent strings (the paper's split inputs)."""
        return [self.run(s, start_state) for s in strings]
