"""Composable product/union shard machines for fleet-scale scanning.

The per-machine fleet loop pays one full input pass per ruleset.  A
*shard* machine amortizes that pass: the reachable product of several
alphabet-compatible member DFAs runs the input **once**, and every
member's outcome — final state, accept decision, report events — is
demultiplexed back out of the product state afterwards.  This is the
composable state→state-function view of Sin'ya & Matsuzaki's
*Simultaneous Finite Automata* and Pritchard's divide-and-conquer
symmetric FSA applied across *machines* instead of across input
segments: the product state is exactly the tuple of member states, so
demuxed results are bit-identical to running each member alone.

Construction folds members in pairwise with a **vectorized reachable
product**: BFS over pair codes (``a_state * |B| + b_state``) using one
fancy-indexed gather per frontier level, aborting with
:class:`~repro.automata.ops.ProductSizeExceeded` the moment the
reachable set outgrows the caller's budget — product sizes explode
multiplicatively in the worst case, and the planner
(:mod:`repro.fleet.planner`) uses that early abort as its exact cost
model.  Literal-heavy rulesets (ExactMatch / Snort-style keyword
machines) compose *additively* in practice, which is what makes
fleet-scale sharding pay.

A shard is a content-addressed artifact: :func:`shard_key` digests the
**sorted** member fingerprints, so member order never changes identity
and two fleets containing the same rulesets share shard artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa
from repro.automata.ops import ProductSizeExceeded
from repro.ingest import admit

__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardMachine",
    "build_shard",
    "shard_key",
]

#: bumped whenever the shard artifact layout changes; part of the key
SHARD_FORMAT_VERSION = 1


def shard_key(member_fingerprints: Sequence[Tuple]) -> str:
    """Content address of a shard: digest of the sorted member identities.

    Sorting makes the key order-insensitive — a shard is identified by
    *which* rulesets it composes, not by the order the planner happened
    to fold them in.
    """
    payload = repr((SHARD_FORMAT_VERSION, tuple(sorted(member_fingerprints))))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _extend_product(
    table: np.ndarray,
    start: int,
    demux: np.ndarray,
    member: Dfa,
    max_states: Optional[int],
) -> Tuple[np.ndarray, int, np.ndarray]:
    """One pairwise fold step: ``(current product) x member``, budgeted.

    Returns the new ``(table, start, demux)`` triple over the *reachable*
    pair set only.  Raises :class:`ProductSizeExceeded` during the BFS —
    before any table is materialized — when the reachable set outgrows
    ``max_states``.
    """
    if table.shape[0] != member.alphabet_size:
        raise ValueError("shard members must share one alphabet")
    nb = member.num_states
    a64 = table.astype(np.int64)
    b64 = member.transitions.astype(np.int64)
    start_code = np.int64(start) * nb + member.start
    reach = np.asarray([start_code], dtype=np.int64)
    frontier = reach
    while frontier.size:
        qa = frontier // nb
        qb = frontier % nb
        nxt = np.unique(a64[:, qa] * nb + b64[:, qb])
        fresh = nxt[~np.isin(nxt, reach, assume_unique=True)]
        if not fresh.size:
            break
        reach = np.union1d(reach, fresh)
        if max_states is not None and reach.size > max_states:
            raise ProductSizeExceeded(
                f"reachable shard product exceeds {max_states} states "
                f"({table.shape[1]} x {nb} components)"
            )
        frontier = fresh
    qa = reach // nb
    qb = reach % nb
    targets = a64[:, qa] * nb + b64[:, qb]
    new_table = np.searchsorted(reach, targets).astype(np.int32)
    new_start = int(np.searchsorted(reach, start_code))
    new_demux = np.concatenate(
        [demux[qa], qb.astype(np.int32)[:, None]], axis=1
    )
    return new_table, new_start, new_demux


@dataclass
class ShardMachine:
    """One product/union shard: a product DFA plus its demux structure.

    Attributes
    ----------
    dfa:
        The shard's executable machine.  Multi-member shards carry the
        reachable product (accepting = *any* member accepts, the union
        semantics a scan needs to fire report events); singleton shards
        carry the member itself, so their compiled artifacts are shared
        with the per-machine loop.
    member_indices:
        Fleet positions of the members, in fold (column) order.
    member_fingerprints:
        :attr:`Dfa.fingerprint` per member, same order.
    demux:
        ``(num_states, n_members) int32``; ``demux[p, m]`` is member
        ``m``'s state when the product is in state ``p`` — the inverse of
        the product construction, applied after the single input pass.
    member_accept:
        ``(n_members, num_states) bool``; ``member_accept[m, p]`` marks
        product states whose ``m``-component is accepting.  Report demux
        filters the product's any-member events through it.
    key:
        :func:`shard_key` of the sorted member fingerprints.
    """

    dfa: Dfa
    member_indices: Tuple[int, ...]
    member_fingerprints: Tuple[Tuple, ...]
    demux: np.ndarray
    member_accept: np.ndarray
    key: str

    @property
    def n_members(self) -> int:
        return len(self.member_indices)

    @property
    def num_states(self) -> int:
        return self.dfa.num_states

    @property
    def nbytes(self) -> int:
        """Approximate artifact footprint (tables + demux structure)."""
        return (int(self.dfa.transitions.nbytes) + int(self.demux.nbytes)
                + int(self.member_accept.nbytes))

    def member_states(self, product_state: int) -> np.ndarray:
        """The tuple of member states encoded by one product state."""
        return self.demux[int(product_state)]

    def demux_finals(self, product_state: int) -> Dict[int, int]:
        """Per-member final states from the product's final state.

        Keys are the shard's :attr:`member_indices` (fleet positions);
        values are bit-identical to each member's own sequential run.
        """
        row = self.demux[int(product_state)]
        obs.counter("fleet_demux_machines_total").inc(self.n_members)
        return {idx: int(row[m]) for m, idx in enumerate(self.member_indices)}

    def scan_sequential(
        self, symbols, start_state: Optional[int] = None
    ) -> Tuple[int, Dict[int, List[Tuple[int, int]]]]:
        """One sequential product pass: final state + demuxed reports.

        The single loop is the whole point: one input traversal serves
        every member.  Returns ``(final_product_state, reports)`` where
        ``reports[member_index]`` is exactly the ``(offset, state)``
        event list the member's own :meth:`Dfa.run_reports` would emit.
        """
        syms = admit(symbols, self.dfa.alphabet_size, start_state,
                     self.dfa.num_states)
        cur = self.dfa.start if start_state is None else int(start_state)
        table = self.dfa.transitions
        acc = self.dfa.accepting_mask
        demux = self.demux
        member_accept = self.member_accept
        members = self.member_indices
        out: Dict[int, List[Tuple[int, int]]] = {idx: [] for idx in members}
        n_events = 0
        for i, sym in enumerate(syms.tolist()):
            cur = int(table[sym, cur])
            if acc[cur]:
                row = demux[cur]
                for m, idx in enumerate(members):
                    if member_accept[m, cur]:
                        out[idx].append((i, int(row[m])))
                        n_events += 1
        obs.counter("fleet_demux_reports_total").inc(n_events)
        return cur, out


def build_shard(
    dfas: Sequence[Dfa],
    indices: Optional[Sequence[int]] = None,
    max_states: Optional[int] = None,
) -> ShardMachine:
    """Fold a member list into one :class:`ShardMachine`.

    ``indices`` names the members' fleet positions (defaults to
    ``0..len-1``); ``max_states`` bounds every intermediate *and* the
    final reachable product (:class:`ProductSizeExceeded` on overflow).
    """
    if not dfas:
        raise ValueError("a shard needs at least one member")
    if indices is None:
        indices = list(range(len(dfas)))
    if len(indices) != len(dfas):
        raise ValueError("one fleet index per member required")
    acc = _ShardAccumulator(dfas[0], int(indices[0]))
    for dfa, idx in zip(dfas[1:], list(indices)[1:]):
        acc.extend(dfa, int(idx), max_states)
    return acc.finish()


class _ShardAccumulator:
    """Incremental shard construction: one pairwise budgeted fold per add.

    The planner drives this directly — a failed :meth:`extend` raises
    :class:`ProductSizeExceeded` *without mutating* the accumulator, so
    the current shard can be sealed and the rejected member starts the
    next one.
    """

    def __init__(self, dfa: Dfa, index: int):
        self.dfas: List[Dfa] = [dfa]
        self.indices: List[int] = [index]
        self.table: np.ndarray = dfa.transitions
        self.start: int = dfa.start
        self.demux: np.ndarray = np.arange(
            dfa.num_states, dtype=np.int32
        )[:, None]

    @property
    def n_members(self) -> int:
        return len(self.dfas)

    @property
    def num_states(self) -> int:
        return int(self.table.shape[1])

    def extend(self, dfa: Dfa, index: int, max_states: Optional[int]) -> None:
        table, start, demux = _extend_product(
            self.table, self.start, self.demux, dfa, max_states
        )
        self.table, self.start, self.demux = table, start, demux
        self.dfas.append(dfa)
        self.indices.append(index)

    def finish(self) -> ShardMachine:
        member_accept = np.stack([
            dfa.accepting_mask[self.demux[:, m]]
            for m, dfa in enumerate(self.dfas)
        ])
        if len(self.dfas) == 1:
            # a singleton shard IS its member: same fingerprint, same
            # compiled artifact, demux is the identity
            dfa = self.dfas[0]
        else:
            accepting = np.flatnonzero(member_accept.any(axis=0))
            dfa = Dfa(self.table, self.start, accepting.tolist())
        fingerprints = tuple(d.fingerprint for d in self.dfas)
        return ShardMachine(
            dfa=dfa,
            member_indices=tuple(self.indices),
            member_fingerprints=fingerprints,
            demux=self.demux,
            member_accept=member_accept,
            key=shard_key(fingerprints),
        )
