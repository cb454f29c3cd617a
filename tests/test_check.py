"""Pillar 1 tests: artifact verification + exact convergence certification.

Property-based core (the ISSUE's satellite): any well-formed DFA passes
``verify_dfa`` with zero errors, and every mutation class — out-of-bounds
transition, overlapping convergence set, tampered derived tables /
content addresses — is flagged with the *right*
diagnostic code, never a generic failure.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.builders import random_dfa
from repro.automata.dfa import Dfa
from repro.check import (
    CODES,
    CONVERGENT,
    DIVERGENT,
    UNKNOWN,
    certify_partition,
    certify_set,
    has_errors,
    lint_paths,
    verify_artifact_file,
    verify_compiled,
    verify_dfa,
    verify_partition,
)
from repro.compilecache import compile_dfa
from repro.compilecache.store import (
    ArtifactValidationError,
    artifact_path,
    load_artifact,
    save_artifact,
)
from repro.core.partition import StatePartition
from repro.core.profiling import ProfilingConfig
from repro.regex.compile import compile_ruleset
from repro.workloads.rulesets import generate_ruleset

DOCS = Path(__file__).resolve().parent.parent / "docs" / "static_analysis.md"


def codes_of(diagnostics):
    return {d.code for d in diagnostics}


def error_codes(diagnostics):
    return {d.code for d in diagnostics if d.severity == "error"}


@st.composite
def dfas(draw):
    num_states = draw(st.integers(min_value=1, max_value=12))
    alphabet = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return random_dfa(num_states, alphabet, rng)


# ----------------------------------------------------------------------
# verify_dfa
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(dfas())
def test_random_dfas_always_verify_clean(dfa):
    assert not error_codes(verify_dfa(dfa, deep=True))


@settings(max_examples=40, deadline=None)
@given(dfas(), st.data())
def test_out_of_bounds_mutation_is_always_d103(dfa, data):
    c = data.draw(st.integers(0, dfa.alphabet_size - 1))
    q = data.draw(st.integers(0, dfa.num_states - 1))
    dfa.transitions[c, q] = dfa.num_states + data.draw(st.integers(0, 5))
    assert "D103" in error_codes(verify_dfa(dfa))


def test_verify_dfa_rejects_wrong_shape_and_dtype():
    dfa = Dfa(np.zeros((2, 3), dtype=np.int32), 0, [0])
    dfa.transitions = np.zeros(6, dtype=np.int32)  # 1-D
    assert "D101" in error_codes(verify_dfa(dfa))
    dfa.transitions = np.zeros((2, 3), dtype=np.int64)
    assert "D102" in error_codes(verify_dfa(dfa))


def test_verify_dfa_start_accepting_and_mask(mod3_dfa):
    mod3_dfa.start = 7
    assert "D104" in error_codes(verify_dfa(mod3_dfa))
    mod3_dfa.start = 0

    mod3_dfa.accepting = frozenset({0, 99})
    assert "D105" in error_codes(verify_dfa(mod3_dfa))

    mod3_dfa.accepting = frozenset({0, 1})  # mask still marks only {0}
    assert "D106" in error_codes(verify_dfa(mod3_dfa))


def test_verify_dfa_deep_warnings():
    # state 2 unreachable from start=0; no accepting states at all
    table = np.zeros((1, 3), dtype=np.int32)
    dfa = Dfa(table, 0, [])
    diags = verify_dfa(dfa, deep=True)
    assert not error_codes(diags)
    assert {"D201", "D203"} <= codes_of(diags)


# ----------------------------------------------------------------------
# verify_partition
# ----------------------------------------------------------------------
def tampered_partition(blocks, num_states=None):
    """Build a StatePartition around its validating constructor."""
    p = object.__new__(StatePartition)
    p.blocks = tuple(frozenset(b) for b in blocks)
    p.num_states = num_states if num_states is not None else 3
    p._block_of = {q: i for i, b in enumerate(p.blocks) for q in b}
    return p


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_discrete_and_trivial_partitions_verify_clean(dfa):
    n = dfa.num_states
    assert not verify_partition(StatePartition.discrete(n))
    assert not error_codes(verify_partition(StatePartition.trivial(n)))


def test_overlapping_sets_are_p101():
    p = tampered_partition([{0, 1}, {1, 2}])
    assert "P101" in error_codes(verify_partition(p))


def test_uncovered_states_are_p102():
    p = tampered_partition([{0}, {2}])
    assert "P102" in error_codes(verify_partition(p))


def test_empty_set_is_p103():
    p = tampered_partition([{0, 1, 2}, set()])
    assert "P103" in error_codes(verify_partition(p))


def test_out_of_range_member_is_p104():
    p = tampered_partition([{0, 1, 2, 7}])
    assert "P104" in error_codes(verify_partition(p))


def test_stale_block_index_is_p105():
    p = StatePartition([[0, 1], [2]], 3)
    p._block_of = {0: 0, 1: 1, 2: 1}  # wrong: 1 lives in block 0
    assert "P105" in error_codes(verify_partition(p))


def test_raw_blocks_with_explicit_num_states():
    assert not verify_partition([[0, 1], [2]], num_states=3)
    assert "P102" in error_codes(verify_partition([[0]], num_states=2))


# ----------------------------------------------------------------------
# verify_compiled: every mutation class gets its own code
# ----------------------------------------------------------------------
@pytest.fixture
def compiled(mod3_dfa):
    cfg = ProfilingConfig(n_inputs=40, input_len=24, symbol_high=1, seed=7)
    return compile_dfa(mod3_dfa, profiling=cfg, n_segments=4)


def test_clean_artifact_verifies_clean(compiled):
    assert not error_codes(verify_compiled(compiled, deep=True))


def test_scalar_row_mutation_is_k101(compiled):
    compiled.rows[0][1] = (compiled.rows[0][1] + 1) % 3
    assert error_codes(verify_compiled(compiled)) == {"K101"}


def test_tampered_key_is_k104(compiled):
    compiled.key = "0" * 64
    assert error_codes(verify_compiled(compiled)) == {"K104"}


def test_tampered_fingerprint_is_k105(compiled):
    # the key still re-derives from the *recomputed* fingerprint, so only
    # the stored-fingerprint check fires
    compiled.fingerprint = ("bogus",)
    assert error_codes(verify_compiled(compiled)) == {"K105"}


def test_bad_backend_fields_are_k106(compiled):
    compiled.backend = "cuda"
    assert error_codes(verify_compiled(compiled)) == {"K106"}


def test_tampered_coverage_is_k107(compiled):
    # MergeResult is frozen; pickle-level corruption bypasses that
    object.__setattr__(compiled.merge, "covered", 0.123)
    assert error_codes(verify_compiled(compiled)) == {"K107"}


def test_mutated_dense_table_is_k111(compiled):
    from repro.kernels import native_available

    compiled.dense_tables()  # build, then corrupt one transition
    compiled._dense.table = compiled._dense.table.copy()
    compiled._dense.table[0] = (compiled._dense.table[0] + 1) % 3
    # the native tier diffs its table view against the same corrupted
    # tables, so when it is loadable the tamper trips K114 as well
    want = {"K111", "K114"} if native_available() else {"K111"}
    assert error_codes(verify_compiled(compiled)) == want


def test_wrong_dense_dtype_is_k111(compiled):
    import numpy as np

    compiled.dense_tables()
    # same values, wrong width: the narrowing contract is part of the
    # artifact (store.py records it in the envelope)
    compiled._dense.table = compiled._dense.table.astype(np.int32)
    # int32 is outside the native tier's table kinds, so when it is
    # loadable the unviewable table additionally trips K114
    from repro.kernels import native_available

    want = {"K111", "K114"} if native_available() else {"K111"}
    assert error_codes(verify_compiled(compiled)) == want


def test_mutated_dense_offsets_is_k112(compiled):
    compiled.dense_tables()
    compiled._dense.offsets = compiled._dense.offsets.copy()
    compiled._dense.offsets[1] += 1
    assert error_codes(verify_compiled(compiled)) == {"K112"}


def test_unbuilt_dense_tables_verify_clean(compiled):
    assert compiled._dense is None
    assert not error_codes(verify_compiled(compiled, deep=True))


def test_invalid_census_entry_is_k108(compiled):
    entry = next(iter(compiled.census))
    tampered = tampered_partition([{0, 1}, {1, 2}],
                                  num_states=compiled.dfa.num_states)
    count = compiled.census.pop(entry)
    compiled.census[tampered] = count
    assert "K108" in error_codes(verify_compiled(compiled))


# ----------------------------------------------------------------------
# exact convergence certification
# ----------------------------------------------------------------------
def test_permutation_dfa_is_proven_divergent(mod3_dfa):
    # symbol 0 permutes {0,1,2}: the full set can never collapse
    cert = certify_set(mod3_dfa, np.arange(3))
    assert cert.status == DIVERGENT


def test_constant_dfa_is_proven_convergent_depth_one():
    dfa = Dfa(np.zeros((2, 4), dtype=np.int32), 0, [0])
    cert = certify_set(dfa, np.arange(4))
    assert cert.status == CONVERGENT
    assert cert.depth == 1


def test_singleton_is_trivially_convergent(mod3_dfa):
    cert = certify_set(mod3_dfa, np.asarray([1]))
    assert cert.status == CONVERGENT and cert.depth == 0


def test_budget_exhaustion_is_unknown_and_c301(mod3_dfa):
    cert = certify_set(mod3_dfa, np.arange(3), max_depth=0)
    assert cert.status == UNKNOWN
    _, diags = certify_partition(mod3_dfa, StatePartition.trivial(3),
                                 max_depth=0)
    assert codes_of(diags) == {"C301"}


def test_paper_suite_ruleset_certifies_convergent():
    # the acceptance criterion: a real paper-suite artifact has at least
    # one convergence set the analysis proves convergent outright
    dfa = compile_ruleset(generate_ruleset("ExactMatch", 20, seed=7))
    compiled = compile_dfa(
        dfa, profiling=ProfilingConfig(n_inputs=120, input_len=120, seed=7))
    certs, diags = certify_partition(
        dfa, compiled.partition, census=compiled.census,
        profiling_len=compiled.profiling.input_len)
    assert any(c.status == CONVERGENT for c in certs)
    assert "C201" in codes_of(diags)
    assert not error_codes(diags)  # honest census: no contradiction


def test_corrupt_census_contradiction_is_c401():
    dfa = Dfa(np.zeros((2, 4), dtype=np.int32), 0, [0])  # collapses in 1
    partition = StatePartition.trivial(4)
    # a census claiming the set never converged on length-8 inputs is
    # impossible given the table: C401 must fire as an error
    from collections import Counter

    lying_census = Counter({StatePartition.discrete(4): 10})
    certs, diags = certify_partition(dfa, partition, census=lying_census,
                                     profiling_len=8)
    assert certs[0].status == CONVERGENT
    assert certs[0].profiled_convergence == 0.0
    assert "C401" in error_codes(diags)


# ----------------------------------------------------------------------
# Dfa.validate + load-time artifact rejection
# ----------------------------------------------------------------------
def test_dfa_validate_passes_and_raises(mod3_dfa):
    assert not error_codes(mod3_dfa.validate(deep=True))
    mod3_dfa.transitions[0, 0] = 99
    with pytest.raises(ValueError, match="D103"):
        mod3_dfa.validate()


def _rewrite_consistent(path: Path, payload: dict) -> None:
    """Re-derive the envelope header so checksums agree with the content."""
    compiled = payload["artifact"]
    compiled.dfa._fingerprint = None
    compiled.fingerprint = compiled.dfa.fingerprint
    payload["fingerprint"] = compiled.fingerprint
    path.write_bytes(pickle.dumps(payload))


def test_load_artifact_rejects_corrupt_but_consistent_dfa(compiled, tmp_path):
    save_artifact(compiled, tmp_path)
    path = artifact_path(tmp_path, compiled.key)
    payload = pickle.loads(path.read_bytes())
    # corrupt the table, then make every checksum self-consistent again:
    # only the structural re-validation can catch this
    payload["artifact"].dfa.transitions[0, 0] = 77
    _rewrite_consistent(path, payload)
    with pytest.raises(ArtifactValidationError, match="structurally invalid"):
        load_artifact(tmp_path, compiled.key)


def test_load_artifact_rejects_unsound_partition(compiled, tmp_path):
    save_artifact(compiled, tmp_path)
    path = artifact_path(tmp_path, compiled.key)
    payload = pickle.loads(path.read_bytes())
    bad = tampered_partition([{0, 1}, {1, 2}], num_states=3)
    object.__setattr__(payload["artifact"].merge, "partition", bad)
    _rewrite_consistent(path, payload)
    with pytest.raises(ArtifactValidationError, match="unsound"):
        load_artifact(tmp_path, compiled.key)


def test_verify_artifact_file_reports_envelope_and_content(compiled, tmp_path):
    path = save_artifact(compiled, tmp_path)
    assert not error_codes(verify_artifact_file(path))

    payload = pickle.loads(path.read_bytes())
    payload["format_version"] = 99
    path.write_bytes(pickle.dumps(payload))
    assert "K109" in error_codes(verify_artifact_file(path))

    path.write_bytes(b"not a pickle")
    assert "K110" in error_codes(verify_artifact_file(path))


def test_envelope_dense_dtype_mismatch_is_k111(compiled, tmp_path):
    path = save_artifact(compiled, tmp_path)
    payload = pickle.loads(path.read_bytes())
    assert payload["dense_dtype"] == "uint8"  # mod3: 3 states narrow to u8
    payload["dense_dtype"] = "uint16"
    path.write_bytes(pickle.dumps(payload))
    assert "K111" in error_codes(verify_artifact_file(path))


def test_version_skew_names_missing_fields_and_gates_their_checks(
        compiled, tmp_path):
    path = save_artifact(compiled, tmp_path)
    original = path.read_bytes()

    # a v2 envelope predates the prefilter field: the skew diagnostic
    # must say exactly that (with the remedy), and K133 must not fire
    # against a field the format never carried
    payload = pickle.loads(original)
    payload["format_version"] = 2
    del payload["prefilter"]
    path.write_bytes(pickle.dumps(payload))
    diags = verify_artifact_file(path)
    codes = error_codes(diags)
    assert "K109" in codes
    assert "K133" not in codes
    k109 = next(d for d in diags if d.code == "K109")
    assert "prefilter" in k109.message
    assert "recompile" in k109.message
    assert "dense_dtype" not in k109.message

    # ...but the field v2 *does* carry is still cross-checked
    payload["dense_dtype"] = "uint16"
    path.write_bytes(pickle.dumps(payload))
    assert "K111" in error_codes(verify_artifact_file(path))

    # a v1 envelope predates both fields: named in the skew message,
    # neither envelope cross-check fires
    payload = pickle.loads(original)
    payload["format_version"] = 1
    del payload["dense_dtype"]
    del payload["prefilter"]
    path.write_bytes(pickle.dumps(payload))
    diags = verify_artifact_file(path)
    codes = error_codes(diags)
    assert "K109" in codes
    assert codes.isdisjoint({"K111", "K133"})
    k109 = next(d for d in diags if d.code == "K109")
    assert "dense_dtype" in k109.message and "prefilter" in k109.message

    # an unknown version gets the generic message and the full battery
    # (a missing dense_dtype is not excused for a version this build
    # has never heard of)
    payload = pickle.loads(original)
    payload["format_version"] = 99
    del payload["dense_dtype"]
    path.write_bytes(pickle.dumps(payload))
    diags = verify_artifact_file(path)
    codes = error_codes(diags)
    assert "K109" in codes
    k109 = next(d for d in diags if d.code == "K109")
    assert "recompile" not in k109.message
    assert "K111" in codes


def test_v3_envelope_names_dropped_fields_and_misses_the_cache(
        compiled, tmp_path):
    from repro.compilecache import CompileCache

    # a format-3 file: same envelope fields as today, but the artifact
    # still carries the two tables format 4 dropped
    path = save_artifact(compiled, tmp_path)
    payload = pickle.loads(path.read_bytes())
    payload["format_version"] = 3
    artifact = payload["artifact"]
    artifact.flat_table = artifact.dfa.transitions.astype(np.int64).ravel()
    artifact._bitset = None
    path.write_bytes(pickle.dumps(payload))

    diags = verify_artifact_file(path)
    assert "K109" in error_codes(diags)
    k109 = next(d for d in diags if d.code == "K109")
    assert "flat_table" in k109.message and "_bitset" in k109.message
    assert "lacks" not in k109.message
    assert "recompile" in k109.message

    with pytest.raises(ArtifactValidationError, match="format version 3"):
        load_artifact(tmp_path, compiled.key)
    cache = CompileCache(cache_dir=tmp_path)
    served = cache.get_or_compile(
        compiled.dfa, profiling=compiled.profiling, n_segments=4
    )
    assert served.key == compiled.key
    assert not hasattr(served, "flat_table")
    stats = cache.stats()
    assert stats["invalid_disk_entries"] == 1
    assert stats["disk_hits"] == 0 and stats["misses"] == 1


# ----------------------------------------------------------------------
# CLI, docs and the shipped tree
# ----------------------------------------------------------------------
def test_cli_check_artifact_exit_codes(compiled, tmp_path):
    from repro.cli import main

    path = save_artifact(compiled, tmp_path)
    assert main(["check", "artifact", str(path)]) == 0

    payload = pickle.loads(path.read_bytes())
    payload["artifact"].rows[0][0] = (payload["artifact"].rows[0][0] + 1) % 3
    _rewrite_consistent(path, payload)
    assert main(["check", "artifact", str(path)]) == 1


def test_cli_check_lint_exit_codes(tmp_path):
    from repro.cli import main

    clean = tmp_path / "clean.py"
    clean.write_text("def f(x=None):\n    return x\n")
    assert main(["check", "lint", str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x=[]):\n    return x\n")
    assert main(["check", "lint", str(dirty)]) == 1


def test_every_registered_code_is_documented():
    text = DOCS.read_text(encoding="utf-8")
    missing = [code for code in CODES if code not in text]
    assert not missing, f"codes missing from docs/static_analysis.md: {missing}"


def test_shipped_tree_lints_clean():
    import repro

    diags = lint_paths([Path(repro.__file__).parent])
    assert not has_errors(diags), "\n".join(
        f"{d.where}: {d.code} {d.message}"
        for d in diags if d.severity == "error")
