"""Shard planner: pack a fleet of DFAs into budgeted product shards.

Packing is a bin-covering problem with an unusual cost function: a
shard's "size" is the *reachable product* state count of its members,
which only the construction itself can price (keyword machines compose
additively, adversarial machines multiplicatively).  So the planner uses
the budgeted pairwise fold in :mod:`repro.fleet.shard` as its exact cost
model — the trial build *is* the build, and a
:class:`~repro.automata.ops.ProductSizeExceeded` during a fold seals the
current shard and starts the next one.  No cost is wasted on products
that are later discarded.

Budget defaults to :data:`SHARD_MAX_STATES`, a planner-only bound on
product size: it keeps each shard's dense table and per-segment frontier
small, and the fold's trial builds cheap.  Machines that individually
exceed the budget become *singleton fallback* shards — they
scan exactly as the per-machine loop did (same Dfa object, same compiled
artifact), so sharding is never a regression.

Two secondary limits keep shards schedulable:

* ``max_members`` caps members per shard (default: the half-core budget
  from :class:`~repro.hardware.allocation.APConfig`, so one planning
  round never builds more shards than cores it could retire them on).
* machines are packed in ascending state-count order within each
  alphabet group — small machines fold cheaply and pack densely; one
  giant machine then at worst closes a shard early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.automata.dfa import Dfa
from repro.automata.ops import ProductSizeExceeded
from repro.fleet.shard import ShardMachine, _ShardAccumulator
from repro.hardware.allocation import APConfig

__all__ = ["SHARD_MAX_STATES", "ShardPlan", "plan_shards"]

#: default reachable-product budget per shard (``plan_shards(max_states=)``)
SHARD_MAX_STATES = 512


@dataclass(frozen=True)
class ShardPlan:
    """The planner's output: shards plus the accounting behind them.

    ``singleton_fallbacks`` lists fleet indices of machines that were
    *forced* into singleton shards because they individually exceed the
    budget — distinct from machines that merely ended up alone when a
    fold overflowed.
    """

    shards: Tuple[ShardMachine, ...]
    max_states: int
    max_members: int
    singleton_fallbacks: Tuple[int, ...] = field(default=())

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_members(self) -> int:
        return sum(s.n_members for s in self.shards)

    @property
    def product_states(self) -> int:
        """Total states across all shard machines (dense-table cost)."""
        return sum(s.num_states for s in self.shards)

    def half_cores_per_shard(self, config: Optional[APConfig] = None) -> int:
        """Even half-core split across shards under an AP budget."""
        cfg = config if config is not None else APConfig()
        return max(1, cfg.total_half_cores // max(1, self.n_shards))

    def rounds(self, config: Optional[APConfig] = None) -> int:
        """Scan rounds needed when shards outnumber half-cores."""
        cfg = config if config is not None else APConfig()
        cores = max(1, cfg.total_half_cores)
        return -(-self.n_shards // cores)

    def member_to_shard(self) -> Dict[int, Tuple[int, int]]:
        """Map fleet index -> (shard number, member column)."""
        out: Dict[int, Tuple[int, int]] = {}
        for s, shard in enumerate(self.shards):
            for m, idx in enumerate(shard.member_indices):
                out[idx] = (s, m)
        return out


def plan_shards(
    dfas: Sequence[Dfa],
    max_states: Optional[int] = None,
    max_members: Optional[int] = None,
    config: Optional[APConfig] = None,
) -> ShardPlan:
    """Pack ``dfas`` into budgeted shards; every machine lands somewhere.

    Machines are grouped by alphabet size (products require a shared
    alphabet), sorted by ascending state count within each group, then
    greedily folded into the open shard until the budgeted fold raises
    :class:`ProductSizeExceeded` or ``max_members`` is reached — either
    seals the shard and the next machine opens a fresh one.  Machines
    whose *own* state count already exceeds ``max_states`` skip packing
    entirely and become singleton fallback shards.
    """
    if not dfas:
        raise ValueError("cannot plan shards for an empty fleet")
    budget = SHARD_MAX_STATES if max_states is None else int(max_states)
    if budget < 1:
        raise ValueError("max_states must be positive")
    cfg = config if config is not None else APConfig()
    members_cap = cfg.total_half_cores if max_members is None else int(max_members)
    members_cap = max(1, members_cap)

    groups: Dict[int, List[int]] = {}
    for i, dfa in enumerate(dfas):
        groups.setdefault(dfa.alphabet_size, []).append(i)

    shards: List[ShardMachine] = []
    fallbacks: List[int] = []
    for alphabet in sorted(groups):
        order = sorted(groups[alphabet], key=lambda i: dfas[i].num_states)
        packable: List[int] = []
        for i in order:
            if dfas[i].num_states > budget:
                fallbacks.append(i)
                shards.append(_ShardAccumulator(dfas[i], i).finish())
            else:
                packable.append(i)
        acc: Optional[_ShardAccumulator] = None
        for i in packable:
            if acc is None:
                acc = _ShardAccumulator(dfas[i], i)
                continue
            if acc.n_members >= members_cap:
                shards.append(acc.finish())
                acc = _ShardAccumulator(dfas[i], i)
                continue
            try:
                acc.extend(dfas[i], i, budget)
            except ProductSizeExceeded:
                # seal what fits; the rejected member opens the next shard
                shards.append(acc.finish())
                acc = _ShardAccumulator(dfas[i], i)
        if acc is not None:
            shards.append(acc.finish())

    plan = ShardPlan(
        shards=tuple(shards),
        max_states=budget,
        max_members=members_cap,
        singleton_fallbacks=tuple(sorted(fallbacks)),
    )
    if obs.is_enabled():
        obs.counter("fleet_shards_built_total").inc(plan.n_shards)
        obs.counter("fleet_shard_members_total").inc(plan.n_members)
        obs.counter("fleet_shard_singleton_fallbacks_total").inc(
            len(plan.singleton_fallbacks)
        )
        for s, shard in enumerate(plan.shards):
            obs.gauge("fleet_shard_states", shard=s).set(shard.num_states)
            obs.gauge("fleet_shard_member_count", shard=s).set(shard.n_members)
    return plan
