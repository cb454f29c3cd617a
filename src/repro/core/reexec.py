"""Global re-execution (Section IV-C): correctness when speculation fails.

After all segments execute in parallel, the per-segment transition
functions are composed left to right.  A concrete state composes by
selection, one lookup of its convergence set's outcome; only a diverged
set makes the composed value a set.  If the composition ends concrete the
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
from typing import Callable, List, Optional, Sequence, Tuple, Union

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


#: a composed value: a concrete state, or the possible-state set of a
#: diverged composition (sorted, unique, more than one state)
Value = Union[int, np.ndarray]


def _step(fn: SegmentFunction, value: Value) -> Value:
    """Apply one segment function to a composed value.

    A concrete state *selects* its convergence set's outcome, the
    paper's composition rule: a converged set yields its state with one
    lookup.  Only a diverged set, or a value that is already a set, takes
    the set-valued :meth:`SegmentFunction.apply`; a one-state result of
    it is concrete again.
    """
    if type(value) is int:
        outcome = fn.outcomes[fn.cs_of_state[value]]
        if outcome.converged:
            return int(outcome.state)
        value = np.asarray([value], dtype=np.int64)
    out = fn.apply(value)
    return int(out[0]) if out.size == 1 else out


def _compose(first_final: int, functions: Sequence[SegmentFunction]
             ) -> List[Value]:
    """Left-to-right composition of the segment transition functions.

    ``values[i]`` is the value after enumerative segment ``i``: an int
    where the composition is concrete there, else the possible-state
    set.
    """
    values: List[Value] = []
    current: Value = int(first_final)
    for fn in functions:
        current = _step(fn, current)
        values.append(current)
    return values


def _last_concrete(values: Sequence[Value]) -> int:
    """Index of the last concrete value (-1: only segment 1's output)."""
    for i in range(len(values) - 1, -1, -1):
        if type(values[i]) is int:
            return i
    return -1


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

    values = _compose(first_final, functions)
    if type(values[-1]) is int:
        return values[-1], stats

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
        r = _last_concrete(values)
        state = int(values[r]) if r >= 0 else int(first_final)
        for i in range(r + 1, len(functions)):
            a, b = enum_bounds[i]
            state = run(syms[a:b], state)
            stats.reexecuted_segments.append(i)
            stats.extra_cycles += (b - a) * config.symbol_cycles
        return state, stats

    # opportunistic: re-execute one segment, re-evaluate the rest, repeat.
    while type(values[-1]) is not int:
        r = _last_concrete(values)
        state = int(values[r]) if r >= 0 else int(first_final)
        target = r + 1
        a, b = enum_bounds[target]
        state = run(syms[a:b], state)
        stats.reexecuted_segments.append(target)
        stats.extra_cycles += (b - a) * config.symbol_cycles
        values[target] = current = int(state)
        # Function re-evaluation: propagate the now-concrete value through
        # the precomputed transition functions — cycles proportional to the
        # number of convergence sets touched, not to input length.
        for i in range(target + 1, len(functions)):
            current = _step(functions[i], current)
            values[i] = current
            stats.extra_cycles += (
                config.reeval_cycles_per_cs * len(functions[i].outcomes)
            )
        stats.reeval_passes += 1
    return int(values[-1]), stats
