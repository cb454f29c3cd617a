"""Fleet sharding: shard machines, the planner, and demux equivalence.

The load-bearing property is bit-identity: a shard scan must produce,
for every member machine, exactly the final state and report events that
machine's own sequential scan produces — across random fleet
compositions, shard budgets, and every software kernel backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import Dfa
from repro.automata.builders import random_dfa
from repro.automata.ops import ProductSizeExceeded
from repro.check import verify_shard
from repro.fleet import ShardPlan, build_shard, plan_shards, shard_key
from repro.hardware.ap import APConfig
from repro.regex.compile import compile_ruleset
from repro.stream import FleetScanner

TEXT = b"the cat chased a fish while the dog slept in gray hot weather "
WORDS = ["cat", "dog", "fish", "bird", "lion", "bear", "wolf", "crow"]


def keyword_fleet(n):
    return [compile_ruleset([w]) for w in WORDS[:n]]


# ----------------------------------------------------------------------
# shard construction + demux
# ----------------------------------------------------------------------
class TestBuildShard:
    def test_demux_bit_identical(self):
        dfas = keyword_fleet(4)
        shard = build_shard(dfas)
        data = TEXT * 5
        final, reports = shard.scan_sequential(data)
        finals = shard.demux_finals(final)
        for i, dfa in enumerate(dfas):
            assert finals[i] == dfa.run(data)
            assert reports[i] == dfa.run_reports(data)

    def test_union_acceptance(self):
        dfas = keyword_fleet(3)
        shard = build_shard(dfas)
        # the product accepts exactly when some member accepts
        union_mask = shard.member_accept.any(axis=0)
        assert np.array_equal(shard.dfa.accepting_mask, union_mask)

    def test_singleton_shard_is_the_member(self):
        dfa = compile_ruleset(["cat"])
        shard = build_shard([dfa])
        assert shard.dfa is dfa
        assert shard.n_members == 1
        assert np.array_equal(shard.demux[:, 0],
                              np.arange(dfa.num_states))

    def test_key_is_order_insensitive(self):
        dfas = keyword_fleet(3)
        forward = build_shard(dfas)
        backward = build_shard(list(reversed(dfas)),
                               indices=[2, 1, 0])
        assert forward.key == backward.key
        assert forward.key == shard_key([d.fingerprint for d in dfas])

    def test_budget_aborts_construction(self):
        dfas = keyword_fleet(4)
        with pytest.raises(ProductSizeExceeded):
            build_shard(dfas, max_states=5)

    def test_alphabet_mismatch_rejected(self):
        narrow = Dfa(np.zeros((2, 1), dtype=np.int32), 0, [0])
        with pytest.raises(ValueError):
            build_shard([compile_ruleset(["cat"]), narrow])

    def test_empty_and_mismatched_indices_rejected(self):
        with pytest.raises(ValueError):
            build_shard([])
        with pytest.raises(ValueError):
            build_shard(keyword_fleet(2), indices=[0])

    def test_fleet_indices_carried_through(self):
        dfas = keyword_fleet(3)
        shard = build_shard(dfas, indices=[7, 3, 11])
        final, reports = shard.scan_sequential(TEXT)
        assert set(shard.demux_finals(final)) == {7, 3, 11}
        assert set(reports) == {7, 3, 11}


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_everything_fits_one_shard(self):
        plan = plan_shards(keyword_fleet(6))
        assert plan.n_shards == 1
        assert plan.n_members == 6
        assert plan.singleton_fallbacks == ()

    def test_tight_budget_splits_shards(self):
        dfas = keyword_fleet(6)
        plan = plan_shards(dfas, max_states=12)
        assert plan.n_shards > 1
        assert all(s.num_states <= 12 for s in plan.shards)
        covered = sorted(i for s in plan.shards for i in s.member_indices)
        assert covered == list(range(6))

    def test_oversized_machine_falls_back_to_singleton(self):
        rng = np.random.default_rng(3)
        big = random_dfa(40, 4, rng)
        small = keyword_fleet(2)
        plan = plan_shards(small + [big], max_states=20)
        assert 2 in plan.singleton_fallbacks
        (fallback,) = [s for s in plan.shards if s.member_indices == (2,)]
        assert fallback.dfa is big  # scans exactly as the per-machine loop

    def test_max_members_cap(self):
        plan = plan_shards(keyword_fleet(6), max_members=2)
        assert plan.n_shards == 3
        assert all(s.n_members <= 2 for s in plan.shards)

    def test_alphabet_groups_never_mix(self):
        narrow = Dfa(np.zeros((2, 3), dtype=np.int32), 0, [1])
        dfas = keyword_fleet(2) + [narrow]
        plan = plan_shards(dfas)
        for s in plan.shards:
            alphabets = {dfas[i].alphabet_size for i in s.member_indices}
            assert len(alphabets) == 1
        assert plan.n_members == 3

    def test_plan_accounting(self):
        plan = plan_shards(keyword_fleet(4), config=APConfig())
        assert plan.product_states == sum(s.num_states for s in plan.shards)
        assert plan.rounds() >= 1
        assert plan.half_cores_per_shard() >= 1
        mapping = plan.member_to_shard()
        assert sorted(mapping) == list(range(4))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards([])
        with pytest.raises(ValueError):
            plan_shards(keyword_fleet(2), max_states=0)


# ----------------------------------------------------------------------
# FleetScanner integration: dedupe + shard wiring
# ----------------------------------------------------------------------
class TestFleetScannerSharding:
    def test_shard_scan_reports_equal_per_machine(self):
        dfas = keyword_fleet(5)
        data = TEXT * 5
        sharded = FleetScanner(dfas, shard=True, n_segments=4).scan(data)
        plain = FleetScanner(dfas, n_segments=4).scan(data)
        assert sharded.reports == plain.reports
        assert sharded.n_fsms == plain.n_fsms == 5
        assert sharded.n_scans < plain.n_scans

    def test_dedupe_identical_rulesets(self):
        dfas = [compile_ruleset(["cat"]), compile_ruleset(["cat"]),
                compile_ruleset(["dog"])]
        fleet = FleetScanner(dfas, n_segments=4)
        assert fleet.n_units == 2
        assert fleet.n_duplicates == 1
        result = fleet.scan(TEXT * 2)
        assert result.n_fsms == 3
        assert result.reports[0] == result.reports[1]
        assert result.reports[0] == dfas[0].run_reports(TEXT * 2)
        assert result.reports[2] == dfas[2].run_reports(TEXT * 2)

    def test_explicit_partition_blocks_dedupe(self):
        from repro.core.partition import StatePartition

        dfa = compile_ruleset(["cat"])
        partition = StatePartition.trivial(dfa.num_states)
        fleet = FleetScanner([dfa, dfa], partitions=[partition, partition],
                             n_segments=4)
        assert fleet.n_units == 2  # explicit partitions are respected

    def test_shard_rejects_explicit_partitions(self):
        from repro.core.partition import StatePartition

        dfa = compile_ruleset(["cat"])
        partition = StatePartition.trivial(dfa.num_states)
        with pytest.raises(ValueError):
            FleetScanner([dfa], partitions=[partition], shard=True)

    def test_wallclock_final_states_demuxed(self):
        dfas = keyword_fleet(4) + [compile_ruleset(["cat"])]  # dup of 0
        data = TEXT * 10
        fleet = FleetScanner(dfas, shard=True, n_segments=4)
        result = fleet.scan_wallclock(data, verify=False)
        assert result.final_states == [d.run(data) for d in dfas]
        assert len(result.runs) == fleet.n_units

    def test_precomputed_plan_reused(self):
        dfas = keyword_fleet(4)
        plan = plan_shards(dfas)
        fleet = FleetScanner(dfas, shard=plan, n_segments=4)
        assert fleet.plan is plan
        result = fleet.scan(TEXT)
        for i, dfa in enumerate(dfas):
            assert result.reports[i] == dfa.run_reports(TEXT)

    def test_plan_must_cover_the_fleet(self):
        plan = plan_shards(keyword_fleet(3))
        with pytest.raises(ValueError):
            FleetScanner(keyword_fleet(4), shard=plan)

    def test_per_machine_views_in_shard_mode(self):
        dfas = keyword_fleet(4)
        fleet = FleetScanner(dfas, shard=True, n_segments=4)
        assert len(fleet.engines) == 4
        assert len(fleet.backends) == 4
        # all four machines share their shard's engine object
        assert len({id(e) for e in fleet.engines}) == fleet.n_units

    def test_budget_fallback_end_to_end(self):
        rng = np.random.default_rng(11)
        big = random_dfa(60, 256, rng)
        dfas = keyword_fleet(3) + [big]
        fleet = FleetScanner(dfas, shard=True, max_shard_states=30,
                             n_segments=4)
        assert 3 in fleet.plan.singleton_fallbacks
        data = TEXT * 3
        result = fleet.scan(data)
        for i, dfa in enumerate(dfas):
            assert result.reports[i] == dfa.run_reports(data)


# ----------------------------------------------------------------------
# verify_shard (K120-K123)
# ----------------------------------------------------------------------
class TestVerifyShard:
    def _shard(self):
        dfas = keyword_fleet(3)
        return build_shard(dfas), dfas

    def test_clean_shard_passes(self):
        shard, dfas = self._shard()
        assert verify_shard(shard, members=dfas) == []
        assert verify_shard(shard) == []  # structural-only mode

    def test_key_mutation_is_k120(self):
        shard, dfas = self._shard()
        shard.key = "0" * 64
        codes = {d.code for d in verify_shard(shard, members=dfas)}
        assert codes == {"K120"}

    def test_demux_shape_is_k121(self):
        shard, dfas = self._shard()
        shard.demux = shard.demux[:, :2]
        codes = {d.code for d in verify_shard(shard, members=dfas)}
        assert "K121" in codes

    def test_demux_mutation_is_k122(self):
        shard, dfas = self._shard()
        shard.demux = shard.demux.copy()
        n1 = dfas[1].num_states
        shard.demux[2, 1] = (shard.demux[2, 1] + 1) % n1
        codes = {d.code for d in verify_shard(shard, members=dfas)}
        assert "K122" in codes

    def test_accept_mutation_is_k123(self):
        shard, dfas = self._shard()
        shard.member_accept = shard.member_accept.copy()
        shard.member_accept[0] = ~shard.member_accept[0]
        codes = {d.code for d in verify_shard(shard, members=dfas)}
        assert "K123" in codes

    def test_wrong_members_is_k120(self):
        shard, dfas = self._shard()
        swapped = [dfas[1], dfas[0], dfas[2]]
        codes = {d.code for d in verify_shard(shard, members=swapped)}
        assert "K120" in codes


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetCli:
    def test_fleet_command_compare(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "input.bin"
        data.write_bytes(TEXT * 20)
        rc = main(["fleet", str(data), "--family", "ExactMatch",
                   "--machines", "6", "--patterns", "2", "--compare"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out
        assert "shards:" in out

    def test_fleet_rules_files(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "input.bin"
        data.write_bytes(TEXT * 5)
        for name, word in (("a.txt", "cat"), ("b.txt", "dog")):
            (tmp_path / name).write_text(word + "\n")
        rc = main(["fleet", str(data), str(tmp_path / "a.txt"),
                   str(tmp_path / "b.txt")])
        assert rc == 0
        assert "2 machines" in capsys.readouterr().out

    def test_check_artifact_fleet(self, capsys):
        from repro.cli import main

        rc = main(["check", "artifact", "--fleet", "6",
                   "--family", "ExactMatch", "--patterns", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_check_artifact_fleet_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["check", "artifact", "--fleet", "4",
                   "--family", "ExactMatch", "--patterns", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["shards"]


# ----------------------------------------------------------------------
# property-based equivalence: shard scan ≡ per-machine, all backends
# ----------------------------------------------------------------------
@st.composite
def fleets(draw):
    """A random fleet sharing one alphabet, a word, and a shard budget."""
    k = draw(st.integers(2, 4))
    n_machines = draw(st.integers(1, 4))
    dfas = []
    for _ in range(n_machines):
        n = draw(st.integers(1, 6))
        table = draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=k, max_size=k,
            )
        )
        start = draw(st.integers(0, n - 1))
        accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
        dfas.append(Dfa(np.asarray(table, dtype=np.int32), start, accepting))
    word = np.asarray(
        draw(st.lists(st.integers(0, k - 1), max_size=60)), dtype=np.uint8
    )
    budget = draw(st.sampled_from([8, 32, None]))
    return dfas, word, budget


@settings(max_examples=40, deadline=None)
@given(fleets())
def test_shard_scan_equals_per_machine(fleet_case):
    dfas, word, budget = fleet_case
    fleet = FleetScanner(dfas, shard=True, max_shard_states=budget,
                         n_segments=2)
    result = fleet.scan(word)
    for i, dfa in enumerate(dfas):
        assert result.reports[i] == dfa.run_reports(word)
    wallclock = fleet.scan_wallclock(word, verify=False)
    assert wallclock.final_states == [d.run(word) for d in dfas]


@pytest.mark.parametrize("backend", ["python", "dense", "native", "prefilter", "auto"])
@settings(max_examples=15, deadline=None)
@given(fleets())
def test_shard_wallclock_all_backends(backend, fleet_case):
    dfas, word, budget = fleet_case
    fleet = FleetScanner(dfas, shard=True, max_shard_states=budget,
                         backend=backend, n_segments=2)
    # verify=True runs every unit against the sequential oracle inside
    # software_cse_scan; final states must demux to the per-machine runs
    result = fleet.scan_wallclock(word, verify=True)
    assert result.final_states == [d.run(word) for d in dfas]


@settings(max_examples=25, deadline=None)
@given(fleets())
def test_planned_shards_verify_clean(fleet_case):
    dfas, _, budget = fleet_case
    plan = plan_shards(dfas, max_states=budget)
    assert isinstance(plan, ShardPlan)
    covered = sorted(i for s in plan.shards for i in s.member_indices)
    assert covered == list(range(len(dfas)))
    for shard in plan.shards:
        members = [dfas[i] for i in shard.member_indices]
        diags = [d for d in verify_shard(shard, members=members)
                 if d.severity == "error"]
        assert diags == []
