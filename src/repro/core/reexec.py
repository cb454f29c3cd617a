"""Global re-execution (Section IV-C): correctness when speculation fails.

After all segments execute in parallel, the per-segment transition
functions are composed left to right.  If the composition ends concrete the
speculation succeeded.  Otherwise one of three policies repairs the run:

- ``basic`` — re-execute segments 2..m sequentially from the concrete
  state (approach (1) in the paper);
- ``last_concrete`` — find the latest segment whose composed output was a
  single state and re-execute only what follows (approach (2));
- ``opportunistic`` — re-execute one segment, then cheaply *re-evaluate*
  the already-computed transition functions of its successors; repeat only
  if the chain still fails to go concrete (approach (3), the design the
  paper's hardware implements).

Every policy yields exactly the sequential machine's final state; they
differ only in how many serial cycles the repair costs.  The serial
re-execution itself is a parameter (``walk``, default :meth:`Dfa.run`),
so a software scan can re-execute on a compiled walk while the cycle-model
engines keep the interpreted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.transition import SegmentFunction
from repro.hardware.ap import APConfig

__all__ = ["ReexecutionStats", "compose_and_fix", "POLICIES"]

POLICIES = ("basic", "last_concrete", "opportunistic")


@dataclass
class ReexecutionStats:
    """Bookkeeping of a composition + repair pass."""

    reexecuted_segments: List[int] = field(default_factory=list)
    reeval_passes: int = 0
    extra_cycles: int = 0
    diverged_segments: int = 0

    @property
    def needed_reexecution(self) -> bool:
        return bool(self.reexecuted_segments)


def _compose(
    first_final: int,
    functions: Sequence[SegmentFunction],
) -> Tuple[List[np.ndarray], int]:
    """Left-to-right composition of the segment transition functions.

    Returns per-boundary possible-state sets (``values[i]`` is the value
    after enumerative segment ``i``) and the index of the last concrete
    point (-1 means only the first segment's output is concrete).
    """
    values: List[np.ndarray] = []
    current = np.asarray([first_final], dtype=np.int64)
    last_concrete = -1
    for i, fn in enumerate(functions):
        current = fn.apply(current)
        values.append(current)
        if current.size == 1:
            last_concrete = i
    return values, last_concrete


def compose_and_fix(
    dfa: Dfa,
    syms: np.ndarray,
    enum_bounds: Sequence[Tuple[int, int]],
    functions: Sequence[SegmentFunction],
    first_final: int,
    policy: str = "opportunistic",
    config: Optional[APConfig] = None,
    walk: Optional[Callable[[np.ndarray, int], int]] = None,
) -> Tuple[int, ReexecutionStats]:
    """Compose segment functions; repair with the selected policy.

    Parameters
    ----------
    enum_bounds:
        ``(start, end)`` offsets of each *enumerative* segment (aligned
        with ``functions``).
    first_final:
        Concrete output state of segment 1.
    walk:
        ``walk(symbols, state) -> state``, the serial re-execution of one
        segment; defaults to ``dfa.run``.  Any walk that agrees with
        :meth:`Dfa.run` yields the same final state and the same
        re-executed segments.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    config = config or APConfig()
    run = walk if walk is not None else dfa.run
    stats = ReexecutionStats()
    stats.diverged_segments = sum(1 for fn in functions if not fn.all_converged)
    if not functions:
        return int(first_final), stats

    values, _ = _compose(first_final, functions)
    if values[-1].size == 1:
        return int(values[-1][0]), stats

    if policy == "basic":
        # Serially re-execute every enumerative segment.
        state = int(first_final)
        for i, (a, b) in enumerate(enum_bounds):
            state = run(syms[a:b], state)
            stats.reexecuted_segments.append(i)
            stats.extra_cycles += (b - a) * config.symbol_cycles
        return state, stats

    if policy == "last_concrete":
        # Backward search for the last concrete point, then serial re-run.
        r = -1
        for i in range(len(functions) - 1, -1, -1):
            if values[i].size == 1:
                r = i
                break
        state = int(values[r][0]) if r >= 0 else int(first_final)
        for i in range(r + 1, len(functions)):
            a, b = enum_bounds[i]
            state = run(syms[a:b], state)
            stats.reexecuted_segments.append(i)
            stats.extra_cycles += (b - a) * config.symbol_cycles
        return state, stats

    # opportunistic: re-execute one segment, re-evaluate the rest, repeat.
    while values[-1].size != 1:
        r = -1
        for i in range(len(functions) - 1, -1, -1):
            if values[i].size == 1:
                r = i
                break
        state = int(values[r][0]) if r >= 0 else int(first_final)
        target = r + 1
        a, b = enum_bounds[target]
        state = run(syms[a:b], state)
        stats.reexecuted_segments.append(target)
        stats.extra_cycles += (b - a) * config.symbol_cycles
        values[target] = np.asarray([state], dtype=np.int64)
        # Function re-evaluation: propagate the now-concrete value through
        # the precomputed transition functions — cycles proportional to the
        # number of convergence sets touched, not to input length.
        current = values[target]
        for i in range(target + 1, len(functions)):
            current = functions[i].apply(current)
            values[i] = current
            stats.extra_cycles += (
                config.reeval_cycles_per_cs * len(functions[i].outcomes)
            )
        stats.reeval_passes += 1
    return int(values[-1][0]), stats
