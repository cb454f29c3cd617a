"""State partitions and the partition refinement algorithm (Figure 10).

A *convergence partition* splits the DFA's state set into disjoint blocks
(convergence sets).  An input string ``w`` "converges under" a partition
when every block collapses to a single state after running ``w`` — the
speculation CSE bets on.  Two facts drive the prediction machinery:

- each profiling input induces a partition (group states by their final
  state after running the input);
- the *common refinement* of two partitions converges whenever either
  original does, so merging partitions trades block count for coverage.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

import numpy as np

__all__ = ["FrontierLayout", "StatePartition"]


class FrontierLayout(NamedTuple):
    """:meth:`StatePartition.frontier_layout`: lanes grouped by set."""

    perm: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    ends: np.ndarray
    multi: int


class StatePartition:
    """An immutable partition of ``{0..num_states-1}`` into blocks.

    Canonical form: blocks are frozensets ordered by their smallest
    element, which makes equality, hashing and census counting exact.
    The array forms a scan reads (:meth:`labels`, :meth:`block_arrays`,
    :meth:`frontier_layout`) are built once, read-only, and left out of
    the pickled state: a partition travels to pool workers with every
    task.
    """

    __slots__ = ("blocks", "num_states", "_block_of", "_labels", "_arrays",
                 "_layout")

    def __init__(self, blocks: Iterable[Iterable[int]], num_states: int):
        normalized: List[FrozenSet[int]] = [
            frozenset(int(q) for q in block) for block in blocks
        ]
        normalized = [b for b in normalized if b]
        normalized.sort(key=min)
        seen: set = set()
        for block in normalized:
            if block & seen:
                raise ValueError("blocks overlap")
            seen |= block
        if seen != set(range(num_states)):
            missing = sorted(set(range(num_states)) - seen)[:5]
            raise ValueError(f"partition does not cover all states (missing {missing}...)")
        self.blocks: Tuple[FrozenSet[int], ...] = tuple(normalized)
        self.num_states = int(num_states)
        self._block_of: Dict[int, int] = {}
        for idx, block in enumerate(self.blocks):
            for q in block:
                self._block_of[q] = idx
        self._labels: Optional[np.ndarray] = None
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._layout: Optional[FrontierLayout] = None

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # pickle's own layout for slotted objects, less the array cache
        return None, {"blocks": self.blocks, "num_states": self.num_states,
                      "_block_of": self._block_of}

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._labels = None
        self._arrays = None
        self._layout = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, num_states: int) -> "StatePartition":
        """The single-block partition {all states}."""
        return cls([range(num_states)], num_states)

    @classmethod
    def discrete(cls, num_states: int) -> "StatePartition":
        """The all-singletons partition (plain enumerative FSM)."""
        return cls([[q] for q in range(num_states)], num_states)

    @classmethod
    def from_final_states(cls, finals: np.ndarray) -> "StatePartition":
        """Partition induced by one profiling input.

        ``finals[q]`` is the state reached from ``q``; states sharing a
        final state *converged* on this input and land in one block.
        """
        finals = np.asarray(finals)
        groups: Dict[int, List[int]] = {}
        for q, f in enumerate(finals.tolist()):
            groups.setdefault(int(f), []).append(q)
        return cls(groups.values(), int(finals.size))

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "StatePartition":
        """Partition grouping states by an arbitrary label array."""
        groups: Dict[int, List[int]] = {}
        for q, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(q)
        return cls(groups.values(), len(labels))

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, state: int) -> int:
        """Index of the block containing ``state``."""
        return self._block_of[int(state)]

    def block_arrays(self) -> List[np.ndarray]:
        """Blocks as sorted int64 arrays (the engines' working format).

        int64 is the one state dtype of the execution layer: every
        ``CsOutcome.states`` array descends from these blocks, so keeping
        them int64 means :meth:`SegmentFunction.apply` never re-casts and
        flow-pool ``tobytes()`` keys are comparable across producers.
        The arrays are built on the first call and read-only.
        """
        if self._arrays is None:
            arrays = tuple(np.asarray(sorted(b), dtype=np.int64)
                           for b in self.blocks)
            for arr in arrays:
                arr.flags.writeable = False
            self._arrays = arrays
        return list(self._arrays)

    def labels(self) -> np.ndarray:
        """Block index per state, as a read-only array of ``num_states``.

        Built on the first call.
        """
        if self._labels is None:
            out = np.empty(self.num_states, dtype=np.int64)
            for idx, arr in enumerate(self.block_arrays()):
                out[arr] = idx
            out.flags.writeable = False
            self._labels = out
        return self._labels

    def frontier_layout(self) -> "FrontierLayout":
        """The frontier's lanes grouped by convergence set, built once.

        Lane ``j`` starts at state ``perm[j]``; block ``b`` owns lanes
        ``starts[b]:ends[b]`` (``sizes[b]`` of them), so a per-set read
        of a final frontier is one contiguous slice.  ``multi`` counts
        the blocks of more than one state, the sets that can collapse.
        The arrays are int64 and read-only.
        """
        if self._layout is None:
            blocks = self.block_arrays()
            sizes = np.asarray([b.size for b in blocks], dtype=np.int64)
            perm = (np.concatenate(blocks) if blocks
                    else np.empty(0, dtype=np.int64))
            starts = np.zeros(len(blocks), dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            ends = starts + sizes
            for arr in (perm, starts, sizes, ends):
                arr.flags.writeable = False
            self._layout = FrontierLayout(perm, starts, sizes, ends,
                                          int((sizes > 1).sum()))
        return self._layout

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StatePartition):
            return NotImplemented
        return self.num_states == other.num_states and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.num_states, self.blocks))

    def __repr__(self) -> str:
        return f"StatePartition(blocks={self.num_blocks}, states={self.num_states})"

    # ------------------------------------------------------------------
    # refinement algebra
    # ------------------------------------------------------------------
    def refine(self, other: "StatePartition") -> "StatePartition":
        """Common refinement — the paper's Figure 10, a.k.a. the merge.

        Every block of the result is the intersection of a block of
        ``self`` with a block of ``other``; consequently the result
        *covers* both inputs (see :meth:`refines`) and an input string that
        converges under either converges under the result.  The operation
        is commutative and idempotent.
        """
        if self.num_states != other.num_states:
            raise ValueError("partitions are over different state counts")
        pieces: Dict[Tuple[int, int], List[int]] = {}
        other_of = other._block_of
        for q, mine in self._block_of.items():
            pieces.setdefault((mine, other_of[q]), []).append(q)
        return StatePartition(pieces.values(), self.num_states)

    def refines(self, other: "StatePartition") -> bool:
        """True when every block of ``self`` fits inside a block of ``other``.

        In the paper's vocabulary ``self`` *covers* ``other``: whenever an
        input converges under ``other`` it also converges under ``self``
        (smaller blocks can only be easier to collapse).
        """
        if self.num_states != other.num_states:
            raise ValueError("partitions are over different state counts")
        other_of = other._block_of
        for block in self.blocks:
            it = iter(block)
            target = other_of[next(it)]
            if any(other_of[q] != target for q in it):
                return False
        return True

    def converges_on(self, finals: np.ndarray) -> bool:
        """Whether an input with all-state outcome ``finals`` converges.

        True when every block maps to a single final state — the success
        condition of CSE's speculation for that input.
        """
        finals = np.asarray(finals)
        for block in self.blocks:
            members = np.fromiter(block, dtype=np.int64, count=len(block))
            if np.unique(finals[members]).size > 1:
                return False
        return True
