"""Fleet-scale ruleset sharding.

Composes alphabet-compatible DFAs into product/union shard machines so a
fleet scan pays **one input pass per shard** instead of one per ruleset,
then demultiplexes per-ruleset outcomes (final states, accepts, report
events) out of the product state — bit-identical to the per-machine
loop.  See :mod:`repro.fleet.shard` for the machine/demux layer and
:mod:`repro.fleet.planner` for the budgeted packing strategy.
"""

from repro.fleet.planner import SHARD_MAX_STATES, ShardPlan, plan_shards
from repro.fleet.shard import (
    SHARD_FORMAT_VERSION,
    ShardMachine,
    build_shard,
    shard_key,
)

__all__ = [
    "SHARD_FORMAT_VERSION",
    "SHARD_MAX_STATES",
    "ShardMachine",
    "ShardPlan",
    "build_shard",
    "plan_shards",
    "shard_key",
]
