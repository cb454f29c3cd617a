"""Pillar 1 — static soundness verification of CSE artifacts.

The :class:`~repro.automata.dfa.Dfa` constructor validates its inputs,
but artifacts that travel through pickle (``repro.compilecache``) are
restored *without* running ``__init__`` — a corrupted or hand-edited
``.cdfa`` file can therefore hold a structurally impossible machine whose
checksums all agree (mutate the table, recompute the fingerprint, re-key
the file).  These verifiers re-derive every invariant from first
principles instead of trusting stored metadata:

- :func:`verify_dfa` — table shape/dtype/bounds, start/accepting sanity,
  accepting-mask agreement, and (``deep=True``) unreachable/dead state
  analysis via :mod:`repro.automata.analysis`;
- :func:`verify_partition` — convergence sets are disjoint, exhaustive,
  non-empty, in-range, and the cached block index agrees;
- :func:`verify_compiled` — every derived table of a
  :class:`~repro.compilecache.artifact.CompiledDfa` (scalar rows,
  dtype-narrowed dense table, native table view, prefilter certificate)
  is transition-equivalent to the source table, the cache
  key/fingerprint re-derive to the stored values, the census is
  well-formed and the merge coverage is reproducible;
- :func:`verify_artifact_file` — the on-disk envelope (format version,
  key, header fingerprint) plus everything above.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.check.diagnostics import Diagnostic, register_code

__all__ = [
    "verify_dfa",
    "verify_partition",
    "verify_compiled",
    "verify_native",
    "verify_prefilter",
    "verify_sfa",
    "verify_artifact_file",
    "verify_shard",
]

# ----------------------------------------------------------------------
# diagnostic codes
# ----------------------------------------------------------------------
D101 = register_code("D101", "transition table is not a 2-D integer ndarray")
D102 = register_code("D102", "transition table dtype is not int32")
D103 = register_code("D103", "transition target out of state range")
D104 = register_code("D104", "start state out of range")
D105 = register_code("D105", "accepting state out of range")
D106 = register_code("D106", "accepting mask disagrees with accepting set")
D201 = register_code("D201", "states unreachable from the start state")
D202 = register_code("D202", "dead states (no path to an accepting state)")
D203 = register_code("D203", "DFA has no accepting states")
D204 = register_code("D204", "no accepting state is reachable from start")

P101 = register_code("P101", "convergence sets overlap")
P102 = register_code("P102", "convergence sets do not cover the state space")
P103 = register_code("P103", "empty convergence set")
P104 = register_code("P104", "convergence-set member out of state range")
P105 = register_code("P105", "partition block index disagrees with blocks")

K101 = register_code("K101", "scalar table rows disagree with the transition table")
K104 = register_code("K104", "stored cache key does not re-derive")
K105 = register_code("K105", "stored fingerprint does not re-derive")
K106 = register_code("K106", "backend fields are invalid or do not re-resolve")
K107 = register_code("K107", "merge coverage does not re-derive from the census")
K108 = register_code("K108", "census entry is not a valid state partition")
K109 = register_code("K109", "artifact file format version mismatch")
K110 = register_code("K110", "artifact file envelope is malformed")
K111 = register_code("K111", "dense table disagrees with the transition table")
K114 = register_code("K114", "native table view disagrees with the dense tables")
K115 = register_code("K115", "native single-step replay disagrees with the transition table")
K116 = register_code("K116", "native report walk disagrees with Dfa.run_reports")
K117 = register_code("K117", "native multi-position frontier replay disagrees with Dfa.run_all_states")
K118 = register_code("K118", "grown SFA row does not re-derive from the transition table")
K119 = register_code("K119", "native interleaved span walks disagree with Dfa.run")
K120 = register_code("K120", "shard key does not re-derive from member fingerprints")
K121 = register_code("K121", "shard demux map is malformed or misses members")
K122 = register_code("K122", "shard demux disagrees with member transitions")
K123 = register_code("K123", "shard accepting structure disagrees with members")
K130 = register_code("K130", "prefilter certificate is malformed or does not re-derive")
K131 = register_code("K131", "prefilter home invariance broken (non-anchor byte moves home)")
K132 = register_code("K132", "prefilter skip width unsound (non-anchor run does not absorb, or accepting state anchor-free reachable)")
K133 = register_code("K133", "artifact envelope prefilter summary disagrees with re-derivation")
K134 = register_code("K134", "compiled prefilter replay disagrees with Dfa.run")


def _err(code: str, message: str, location: str) -> Diagnostic:
    return Diagnostic(code=code, severity="error", message=message,
                      location=location)


def _warn(code: str, message: str, location: str) -> Diagnostic:
    return Diagnostic(code=code, severity="warning", message=message,
                      location=location)


def _info(code: str, message: str, location: str) -> Diagnostic:
    return Diagnostic(code=code, severity="info", message=message,
                      location=location)


# ----------------------------------------------------------------------
# DFA structure
# ----------------------------------------------------------------------
def verify_dfa(dfa: "object", deep: bool = True,
               location: str = "dfa") -> List[Diagnostic]:
    """Structural soundness of a (possibly unpickled) :class:`Dfa`.

    Errors mean the object violates an invariant the constructor would
    have rejected — only possible for instances restored around
    ``__init__`` (pickle) or mutated in place.  ``deep=True`` adds the
    reachability/dead-state analyses (warnings/info, never errors: an
    unreachable state is wasteful, not wrong).
    """
    out: List[Diagnostic] = []
    table = getattr(dfa, "transitions", None)
    if not isinstance(table, np.ndarray) or table.ndim != 2 \
            or not np.issubdtype(table.dtype, np.integer):
        out.append(_err(D101, "transitions must be a 2-D integer ndarray",
                        f"{location}.transitions"))
        return out
    if table.dtype != np.int32:
        out.append(_err(
            D102,
            f"transition table dtype is {table.dtype}, expected int32 "
            "(every kernel and fingerprint assumes it)",
            f"{location}.transitions"))
    n_sym, n_state = table.shape
    if n_sym == 0 or n_state == 0:
        out.append(_err(D101, "transition table has a zero-length axis",
                        f"{location}.transitions"))
        return out
    if table.size and (int(table.min()) < 0 or int(table.max()) >= n_state):
        bad = np.argwhere((table < 0) | (table >= n_state))
        c, q = (int(v) for v in bad[0])
        out.append(_err(
            D103,
            f"{bad.shape[0]} transition target(s) outside [0, {n_state}); "
            f"first at symbol {c}, state {q} -> {int(table[c, q])}",
            f"{location}.transitions"))
        # later analyses index with this table; stop before they explode
        return out
    start = getattr(dfa, "start", None)
    if not isinstance(start, int) or not (0 <= start < n_state):
        out.append(_err(D104, f"start state {start!r} outside [0, {n_state})",
                        f"{location}.start"))
    accepting = getattr(dfa, "accepting", frozenset())
    bad_acc = [a for a in accepting if not (0 <= int(a) < n_state)]
    if bad_acc:
        out.append(_err(
            D105,
            f"accepting state(s) {sorted(bad_acc)[:5]} outside [0, {n_state})",
            f"{location}.accepting"))
    mask = getattr(dfa, "accepting_mask", None)
    if not bad_acc:
        expect = np.zeros(n_state, dtype=bool)
        if accepting:
            expect[sorted(int(a) for a in accepting)] = True
        if not isinstance(mask, np.ndarray) or mask.shape != (n_state,) \
                or not bool(np.array_equal(mask.astype(bool), expect)):
            out.append(_err(
                D106,
                "accepting_mask does not match the accepting set "
                "(report events would fire on the wrong states)",
                f"{location}.accepting_mask"))
    if not accepting:
        out.append(_warn(D203, "no accepting states: the machine can never "
                         "report a match", f"{location}.accepting"))
    if deep and not any(d.severity == "error" for d in out):
        from repro.automata.analysis import dead_states

        reachable = dfa.reachable_states()  # type: ignore[attr-defined]
        n_unreachable = n_state - int(reachable.size)
        if n_unreachable:
            out.append(_warn(
                D201,
                f"{n_unreachable} of {n_state} states unreachable from the "
                "start state (minimization would remove them)",
                f"{location}.transitions"))
        dead = dead_states(dfa)  # type: ignore[arg-type]
        n_dead = int(dead.sum())
        if n_dead:
            out.append(_info(
                D202,
                f"{n_dead} dead state(s): enumeration flows entering them "
                "can be deactivated",
                f"{location}.transitions"))
        if accepting and not bad_acc:
            reach_mask = np.zeros(n_state, dtype=bool)
            reach_mask[reachable] = True
            if not any(reach_mask[int(a)] for a in accepting):
                out.append(_warn(
                    D204,
                    "every accepting state is unreachable from the start "
                    "state: scans can never report",
                    f"{location}.accepting"))
    return out


# ----------------------------------------------------------------------
# partition structure
# ----------------------------------------------------------------------
def verify_partition(partition: "object", num_states: Optional[int] = None,
                     location: str = "partition") -> List[Diagnostic]:
    """Convergence sets partition the state space: disjoint, exhaustive.

    Accepts a :class:`~repro.core.partition.StatePartition` (its cached
    ``block_of`` index is cross-checked too) or any iterable of state
    collections together with an explicit ``num_states``.
    """
    out: List[Diagnostic] = []
    if num_states is None:
        num_states = int(getattr(partition, "num_states"))
    blocks_attr = getattr(partition, "blocks", partition)
    blocks: List[Set[int]] = [set(int(q) for q in b) for b in blocks_attr]
    for i, block in enumerate(blocks):
        if not block:
            out.append(_err(P103, f"convergence set {i} is empty",
                            f"{location}.blocks[{i}]"))
    seen: Set[int] = set()
    overlap_reported = False
    for i, block in enumerate(blocks):
        clash = block & seen
        if clash and not overlap_reported:
            out.append(_err(
                P101,
                f"state(s) {sorted(clash)[:5]} appear in more than one "
                "convergence set (speculation outcomes would be ambiguous)",
                f"{location}.blocks[{i}]"))
            overlap_reported = True
        seen |= block
    universe = set(range(num_states))
    bad_members = seen - universe
    if bad_members:
        out.append(_err(
            P104,
            f"member(s) {sorted(bad_members)[:5]} outside [0, {num_states})",
            f"{location}.blocks"))
    missing = universe - seen
    if missing:
        out.append(_err(
            P102,
            f"{len(missing)} state(s) covered by no convergence set "
            f"(first: {sorted(missing)[:5]}); their enumeration paths "
            "would be silently dropped",
            f"{location}.blocks"))
    block_of = getattr(partition, "_block_of", None)
    if block_of is not None and not out:
        expect = {q: i for i, b in enumerate(blocks) for q in b}
        if dict(block_of) != expect:
            out.append(_err(
                P105,
                "cached block-of index disagrees with the blocks "
                "(outcome composition would mix convergence sets)",
                f"{location}._block_of"))
    return out


# ----------------------------------------------------------------------
# compiled artifact cross-validation
# ----------------------------------------------------------------------
def verify_compiled(compiled: "object", deep: bool = True,
                    location: str = "artifact") -> List[Diagnostic]:
    """Cross-validate every derived table of a :class:`CompiledDfa`.

    Every kernel encoding must be transition-equivalent — a scan
    must return the same matches whichever backend executes it — and the
    content-addressing fields must re-derive from the actual content.
    ``deep=True`` adds the DFA reachability analyses and the native
    tier's replays.
    """
    from repro.compilecache.artifact import cache_key
    from repro.kernels import BACKENDS

    out: List[Diagnostic] = []
    dfa = compiled.dfa  # type: ignore[attr-defined]
    out.extend(verify_dfa(dfa, deep=deep, location=f"{location}.dfa"))
    if any(d.severity == "error" for d in out):
        return out  # derived-table checks would chase corrupt indices
    table = dfa.transitions

    # scalar rows =~ table
    rows = compiled.rows  # type: ignore[attr-defined]
    if len(rows) != table.shape[0] or any(
        list(row) != table_row.tolist()
        for row, table_row in zip(rows, table)
    ):
        out.append(_err(
            K101,
            "scalar table rows are not the transition table row-for-row "
            "(the interpreted walk would follow different transitions)",
            f"{location}.rows"))

    # dense tables =~ dtype-narrowed raveled table
    dense = getattr(compiled, "_dense", None)
    if dense is not None:
        from repro.kernels import dense_state_dtype

        expect_dtype = dense_state_dtype(dfa.num_states)
        expect_dense = table.ravel()
        dense_table = getattr(dense, "table", None)
        if not isinstance(dense_table, np.ndarray) \
                or dense_table.dtype != expect_dtype \
                or dense_table.shape != expect_dense.shape \
                or not bool(np.array_equal(dense_table, expect_dense)):
            out.append(_err(
                K111,
                f"dense table is not the transition table narrowed "
                f"to {expect_dtype} (the compiled kernels would follow "
                "different transitions)",
                f"{location}.dense.table"))

    # native tier: the compiled library must read the exact table bytes
    # the Python tier built (absence of the library is not a defect —
    # the system degrades to the interpreted loop — so an unavailable
    # tier adds nothing)
    out.extend(verify_native(dfa, dense=dense, deep=deep,
                             location=f"{location}.native",
                             partition=getattr(compiled, "partition", None)))

    # the SFA plan: a fresh SFA grown by a probe scan must re-derive, and
    # so must the rows of the artifact's own SFA, read as they stand
    if deep and table.size <= 1_000_000:
        out.extend(_probe_sfa(dfa, location=f"{location}.sfa.probe"))
        grown = getattr(compiled, "_sfa", None)
        if grown is not None:
            out.extend(verify_sfa(grown, dfa, location=f"{location}.sfa"))

    # prefilter certificate: home invariance, skip-width soundness,
    # anchor soundness, and full re-derivation
    pf = getattr(compiled, "_prefilter", None)
    if pf is not None:
        out.extend(verify_prefilter(pf, dfa, location=f"{location}.prefilter",
                                    dense=dense))

    # partition + census
    partition = compiled.partition  # type: ignore[attr-defined]
    out.extend(verify_partition(partition, dfa.num_states,
                                location=f"{location}.partition"))
    census = compiled.census  # type: ignore[attr-defined]
    census_ok = True
    for i, entry in enumerate(census):
        entry_diags = verify_partition(entry, dfa.num_states,
                                       location=f"{location}.census[{i}]")
        bad = [d for d in entry_diags if d.severity == "error"]
        if bad:
            census_ok = False
            out.append(_err(
                K108,
                f"census entry {i} is not a valid partition "
                f"({bad[0].code}: {bad[0].message})",
                f"{location}.census[{i}]"))
    if census_ok and census:
        from repro.core.profiling import covered_fraction

        covered = covered_fraction(partition, census)
        stored = float(compiled.merge.covered)  # type: ignore[attr-defined]
        if abs(covered - stored) > 1e-9:
            out.append(_err(
                K107,
                f"stored merge coverage {stored:.6f} does not re-derive "
                f"from the census (actual {covered:.6f})",
                f"{location}.merge.covered"))

    # content addressing
    dfa._fingerprint = None  # drop the memo: recompute from actual bytes
    fingerprint = dfa.fingerprint
    if fingerprint != compiled.fingerprint:  # type: ignore[attr-defined]
        out.append(_err(
            K105,
            "stored fingerprint does not match the transition table "
            "content (the artifact would be served for the wrong DFA)",
            f"{location}.fingerprint"))
    requested = compiled.requested_backend  # type: ignore[attr-defined]
    resolved = compiled.backend  # type: ignore[attr-defined]
    if resolved not in BACKENDS or (
            requested != "auto" and requested not in BACKENDS):
        out.append(_err(
            K106,
            f"backend fields requested={requested!r} resolved={resolved!r} "
            f"are not drawn from {BACKENDS}",
            f"{location}.backend"))
    elif requested != "auto" and resolved != requested and not (
            requested == "native" and resolved == "python"):
        # native -> python is the documented degradation when no compiled
        # library is loadable at compile time; every other divergence
        # from an explicit request is a contradiction
        out.append(_err(
            K106,
            f"resolved backend {resolved!r} contradicts the explicit "
            f"request {requested!r}",
            f"{location}.backend"))
    expect_key = cache_key(
        fingerprint,
        compiled.profiling,  # type: ignore[attr-defined]
        compiled.merge_cutoff,  # type: ignore[attr-defined]
        compiled.max_blocks,  # type: ignore[attr-defined]
        requested,
        compiled.n_segments,  # type: ignore[attr-defined]
    )
    if expect_key != compiled.key:  # type: ignore[attr-defined]
        out.append(_err(
            K104,
            "stored cache key does not re-derive from the artifact's "
            "fingerprint and compile parameters",
            f"{location}.key"))
    return out


# ----------------------------------------------------------------------
# SFA certification
# ----------------------------------------------------------------------
def verify_sfa(sfa: "object", dfa: "object",
               location: str = "sfa") -> List[Diagnostic]:
    """K118: a lazily grown SFA's built rows re-derive from ``T``.

    Every built row ``s`` must satisfy ``funcs[E[s][a]] == T[a][funcs[s]]``
    for every symbol ``a``, where ``E[s][a]`` is the function id whose
    row offset the table holds, with the identity as function 0 and every
    entry the offset of a function the SFA holds.  Reads only: the SFA is
    not scanned or grown, so a live artifact's SFA can be certified as it
    stands.  An SFA abandoned over its budget yields no diagnostics.
    """
    out: List[Diagnostic] = []
    table = getattr(dfa, "transitions", None)
    if not isinstance(table, np.ndarray) or getattr(sfa, "abandoned", True):
        return out
    alphabet, n_states = (int(x) for x in table.shape)
    funcs, built, rows = sfa.grown()  # type: ignore[attr-defined]
    count = int(funcs.shape[0])
    if not bool(np.array_equal(funcs[0], np.arange(n_states))):
        out.append(_err(K118, "SFA function 0 is not the identity",
                        f"{location}.funcs[0]"))
        return out
    for s, row in zip(built.tolist(), rows):
        ids, rem = np.divmod(row.astype(np.int64), alphabet)
        if bool(rem.any()) or int(ids.min()) < 0 or int(ids.max()) >= count:
            out.append(_err(
                K118,
                f"SFA row {s} holds an entry that is not the row offset of "
                f"one of its {count} functions (a lane would read a row "
                "that does not exist)",
                f"{location}.table[{s}]"))
            return out
        want_rows = table[:, funcs[s]]
        bad = np.flatnonzero((funcs[ids] != want_rows).any(axis=1))
        if bad.size:
            a = int(bad[0])
            out.append(_err(
                K118,
                f"SFA row {s} sends symbol {a} to function {int(ids[a])}, "
                f"which is not T[{a}] after function {s} (the SFA plan "
                "would compose a wrong segment function)",
                f"{location}.table[{s},{a}]"))
            return out
    return out


def _probe_sfa(dfa: "object",
               location: str = "sfa.probe") -> List[Diagnostic]:
    """K118 on a fresh SFA of ``dfa`` grown by a probe scan.

    The probe (every symbol once, then 1024 seeded-random symbols, in
    five lanes) grows a new :class:`repro.kernels.sfa.LazySfa`, never an
    artifact's own, and must reach :meth:`Dfa.run`'s final state; the
    rows it built must then pass :func:`verify_sfa`.  Without the native
    library nothing is created and no diagnostics are returned; neither
    are they when the probe outgrows the SFA's budget.
    """
    from repro.engines.base import even_boundaries
    from repro.kernels.native import native_available
    from repro.kernels.sfa import LazySfa

    table = getattr(dfa, "transitions", None)
    if not native_available() or not isinstance(table, np.ndarray):
        return []
    alphabet = int(table.shape[0])
    probe = np.concatenate([
        np.arange(alphabet, dtype=np.int64),
        np.random.default_rng(118).integers(0, alphabet, size=1024),
    ])
    start = int(dfa.start)  # type: ignore[attr-defined]
    spans = [probe[a:b] for a, b in even_boundaries(probe.size, 5)]
    sfa = LazySfa(dfa)  # type: ignore[arg-type]
    done = sfa.scan(spans, start)
    if done is None:
        return []
    want = int(dfa.run(probe, start))  # type: ignore[attr-defined]
    final = done[0][-1]
    if final != want:
        return [_err(
            K118,
            f"SFA lane scan of the probe reached {final}, Dfa.run "
            f"reaches {want} (the SFA plan would return another state)",
            f"{location}.scan")]
    return verify_sfa(sfa, dfa, location=location)


# ----------------------------------------------------------------------
# native tier certification
# ----------------------------------------------------------------------
def verify_native(dfa: "object", dense: "object" = None, deep: bool = True,
                  location: str = "native",
                  partition: "object" = None) -> List[Diagnostic]:
    """Certify the compiled native tier against the Python-built tables.

    K114 proves the bytes: the library's widened table view
    (:func:`repro.kernels.native.native_table_view`) must be bit-identical
    to the dense tables and to the int64 transition matrix.  K115 proves
    the stepping: replaying every symbol as a one-position segment over
    the discrete partition must land each start state exactly where the
    transition table says.  K116 proves the concrete walk: a fixed probe
    string walked by ``cse_native_walk`` with reports on, through a
    three-entry report buffer so the walk pauses and resumes many times,
    must give :meth:`Dfa.run_reports`'s reports and :meth:`Dfa.run`'s
    final state, at uint8 and int64 symbol width.  K119 proves the
    interleaved walks the SFA plan's chained verify runs: the same probe
    cut into 17 spans plus an empty one, and pieces of 1, 2 and 3
    symbols of K117's random tail, walked by ``cse_native_walks`` in one
    call each from its own seeded start state, must end every span where
    :meth:`Dfa.run` does, at both widths.  K117 proves the
    frontier across collapse checks and lane merges: a fixed
    multi-position probe (each symbol repeated 64 times, then 4096
    seeded-random symbols, one representative per distinct table row)
    run through ``run_segments_native`` over ``partition`` (the
    artifact's own; the discrete partition when it is not given or not
    over this machine's states), whole, split in four and split in 17
    (twice the C core's eight tail lanes plus one, so the tail pass runs
    full rounds, refills and a partial round), must give each set's
    ``np.unique`` of :meth:`Dfa.run_all_states`, which reads neither
    kernel, at uint8 and int64 width (``deep=False`` skips the four
    replays; very large tables cap them).  An unavailable native tier
    yields no diagnostics — degradation to the interpreted loop is the
    documented contract, not a defect.
    """
    from repro.kernels import DenseTables
    from repro.kernels.native import (
        native_available,
        native_table_view,
        native_walk,
        native_walks,
        run_segments_native,
    )

    out: List[Diagnostic] = []
    if not native_available():
        return out
    table = getattr(dfa, "transitions", None)
    if not isinstance(table, np.ndarray):
        return out
    tables = dense if dense is not None else DenseTables(dfa)  # type: ignore[arg-type]
    expect_flat = table.astype(np.int64).ravel()
    try:
        view = native_table_view(tables)  # type: ignore[arg-type]
    except (RuntimeError, ValueError) as exc:
        out.append(_err(
            K114,
            f"native table view could not be produced ({exc}); the "
            "compiled library cannot prove it reads the dense tables",
            f"{location}.table"))
        return out
    dense_table = getattr(tables, "table", None)
    if view.shape != expect_flat.shape \
            or not bool(np.array_equal(view, expect_flat)) \
            or not isinstance(dense_table, np.ndarray) \
            or not bool(np.array_equal(
                view, dense_table.astype(np.int64).ravel())):
        out.append(_err(
            K114,
            "native table view is not bit-identical to the dense tables "
            "(the compiled gather would follow different transitions)",
            f"{location}.table"))
        return out
    if not deep or table.size > 1_000_000:
        return out
    # single-step replay: every symbol as a 1-position segment over the
    # discrete partition must reproduce the transition table column
    from repro.core.partition import StatePartition

    n_states = int(table.shape[1])
    probe = [np.asarray([c], dtype=np.int64) for c in range(table.shape[0])]
    grid, _stats = run_segments_native(
        dfa, StatePartition.discrete(n_states), probe,  # type: ignore[arg-type]
        tables=tables,  # type: ignore[arg-type]
    )
    for c, outcomes in enumerate(grid):
        for q, outcome in enumerate(outcomes):
            want = int(table[c, q])
            got = outcome.state if outcome.converged else None
            if got != want:
                out.append(_err(
                    K115,
                    f"native replay of symbol {c} from state {q} reached "
                    f"{got!r}, transition table says {want} (compiled "
                    "stepping disagrees with the Python tier)",
                    f"{location}.step[{c},{q}]"))
                return out

    # report walk replay: every symbol once, then a seeded random tail
    alphabet = int(table.shape[0])
    probe = np.concatenate([
        np.arange(alphabet, dtype=np.int64),
        np.random.default_rng(116).integers(0, alphabet, size=1024),
    ])
    start = int(dfa.start)  # type: ignore[attr-defined]
    want_reports = dfa.run_reports(probe, start)  # type: ignore[attr-defined]
    want_final = int(dfa.run(probe, start))  # type: ignore[attr-defined]
    widths = [probe] + ([probe.astype(np.uint8)] if alphabet <= 256 else [])
    for syms in widths:
        got = native_walk(
            dfa, syms, start, tables=tables,  # type: ignore[arg-type]
            reports=True, cap=3,
        )
        if got != (want_final, want_reports):
            seen = "no result" if got is None else (
                f"final {got[0]} with {len(got[1])} reports")
            out.append(_err(
                K116,
                f"native report walk over the {syms.dtype} probe gave "
                f"{seen}; Dfa.run_reports gives final {want_final} with "
                f"{len(want_reports)} reports (the compiled walk would "
                "report different matches)",
                f"{location}.walk[{syms.dtype}]"))
            return out

    # interleaved span walks: the K116 probe in 17 spans (two full
    # rounds of the tail pass's eight lanes and one partial) plus an
    # empty span, each from its own seeded start state.  Those spans are
    # long enough for a regex machine to forget where they started, so
    # pieces of 1, 2 and 3 symbols drawn one per distinct table row (as
    # K117's random tail is, below) follow: their end states still show
    # a wrong start state, a skipped symbol or a span stopped short
    from repro.engines.base import even_boundaries

    reps = np.unique(table, axis=0, return_index=True)[1].astype(np.int64)
    mixed = reps[np.random.default_rng(117).integers(0, reps.size, size=4096)]
    spans = [probe[a:b] for a, b in even_boundaries(probe.size, 17)]
    spans.append(probe[:0])
    spans += [mixed[a:a + size] for size in (1, 2, 3)
              for a in range(0, 1024 - size + 1, size)]
    starts = np.random.default_rng(119).integers(0, n_states,
                                                 size=len(spans))
    want_ends = [int(dfa.run(span, int(q)))  # type: ignore[attr-defined]
                 for span, q in zip(spans, starts)]
    for width in [np.int64] + ([np.uint8] if alphabet <= 256 else []):
        ends = native_walks(
            dfa, [span.astype(width) for span in spans],  # type: ignore[arg-type]
            starts.tolist(), tables=tables,  # type: ignore[arg-type]
        ).tolist()
        if ends != want_ends:
            i = next(i for i, (a, b) in enumerate(zip(ends, want_ends))
                     if a != b)
            out.append(_err(
                K119,
                f"native interleaved walk of {np.dtype(width)} probe span "
                f"{i} from state {int(starts[i])} ended at {ends[i]}, "
                f"Dfa.run ends at {want_ends[i]} (the SFA plan's chained "
                "verify would check against wrong boundaries)",
                f"{location}.walks[{np.dtype(width)}][{i}]"))
            return out

    # frontier replay: each symbol's run drives every collapse it has,
    # the random tail mixes them, so the probe crosses collapse checks,
    # lane merges and the scalar degrade; 17 pieces fill the core's
    # eight tail lanes twice over and leave one.  The random tail draws
    # one symbol per distinct table row: uniform bytes would mostly reset
    # a regex machine to its home state, where every tail ends alike.
    # Long tails forget where they started, so the random tail is also
    # cut into pieces of NATIVE_STRIDE_MIN and NATIVE_STRIDE_MIN + 3
    # symbols: a frontier that collapses at the first collapse check
    # leaves a tail of 0 or 3 symbols, whose end state still shows a
    # wrong tail start state or a skipped symbol
    from repro.kernels.native import NATIVE_STRIDE_MIN

    part = partition if isinstance(partition, StatePartition) \
        and partition.num_states == n_states \
        else StatePartition.discrete(n_states)
    probe = np.concatenate([
        np.repeat(np.arange(alphabet, dtype=np.int64), 64), mixed,
    ])
    segments = [
        probe[a:b] for n in (4, 17) for a, b in even_boundaries(probe.size, n)
    ]
    segments += [
        mixed[a:a + size]
        for size in (NATIVE_STRIDE_MIN, NATIVE_STRIDE_MIN + 3)
        for a in range(0, mixed.size - size + 1, size)
    ]
    segments.append(probe)
    # the reference reads only the transition matrix, so a defect in the
    # artifact's own dense tables (K111) stays theirs
    blocks = part.block_arrays()
    want = [[np.unique(finals[block]) for block in blocks]
            for finals in (dfa.run_all_states(seg)  # type: ignore[attr-defined]
                           for seg in segments)]
    batches = [segments] + (
        [[seg.astype(np.uint8) for seg in segments]] if alphabet <= 256
        else []
    )
    for batch in batches:
        dtype = batch[0].dtype
        got, _stats = run_segments_native(
            dfa, part, batch,  # type: ignore[arg-type]
            tables=tables,  # type: ignore[arg-type]
        )
        for i, (row_got, row_want) in enumerate(zip(got, want)):
            same = len(row_got) == len(row_want) and all(
                a.converged == (b.size == 1)
                and a.state == (int(b[0]) if b.size == 1 else None)
                and np.array_equal(a.states, b)
                for a, b in zip(row_got, row_want)
            )
            if not same:
                out.append(_err(
                    K117,
                    f"native frontier replay of probe segment {i} over "
                    f"the {dtype} probe disagrees with Dfa.run_all_states "
                    "(the compiled frontier would speculate different "
                    "segment functions)",
                    f"{location}.frontier[{dtype}][{i}]"))
                return out
    return out


# ----------------------------------------------------------------------
# prefilter certificates
# ----------------------------------------------------------------------
def verify_prefilter(tables: "object", dfa: "object",
                     location: str = "prefilter",
                     dense: "object" = None) -> List[Diagnostic]:
    """Soundness of a literal-prefilter certificate against its DFA.

    The certificate licenses a scan to *skip input bytes*, so every fact
    it asserts is re-proved from the transition table:

    - structural sanity (LUT shape/dtype, home/skip-width ranges) — K130;
    - **home invariance**: no non-anchor byte moves the home state — K131;
    - **skip-width soundness**: with the *stored* anchor set, the
      non-anchor transition graph away from home is acyclic and its
      longest path does not exceed the stored width (so any
      ``skip_width``-long non-anchor run provably absorbs every state at
      home), and no accepting state is reachable from start or home
      through non-anchor bytes alone (every accepting path contains an
      anchor — a skipped window can never hide a report) — K132;
    - the whole certificate re-derives bit-for-bit from the table — K130;
    - when the native library loads, a fixed probe replayed through
      ``cse_native_prefilter`` with this certificate over ``dense`` (the
      dense tables, built from ``dfa`` when not given) lands where
      :meth:`Dfa.run` does — K134 (see :func:`_replay_prefilter`).
    """
    from repro.kernels.prefilter import (
        _absorption_depths,
        _non_anchor_closure,
        derive_prefilter,
    )

    out: List[Diagnostic] = []
    table = dfa.transitions  # type: ignore[attr-defined]
    n = int(table.shape[1])
    k = int(table.shape[0])
    lut = getattr(tables, "anchor_lut", None)
    home = getattr(tables, "home", None)
    sw = getattr(tables, "skip_width", None)
    if not isinstance(lut, np.ndarray) or lut.dtype != np.bool_ \
            or lut.shape != (k,) \
            or not isinstance(home, (int, np.integer)) \
            or not 0 <= int(home) < n \
            or not isinstance(sw, (int, np.integer)) or int(sw) < 1:
        out.append(_err(
            K130,
            "prefilter certificate is malformed (anchor LUT must be a "
            f"bool ({k},) array, home in [0, {n}), skip width >= 1)",
            location))
        return out
    home = int(home)
    sw = int(sw)
    moved = np.flatnonzero((table[:, home] != home) & ~lut)
    if moved.size:
        out.append(_err(
            K131,
            f"non-anchor byte {int(moved[0])} moves home {home} to "
            f"{int(table[int(moved[0]), home])}; a skipped run would not "
            "hold the machine at home",
            f"{location}.anchor_lut"))
    depth, finite = _absorption_depths(table, home, lut)
    if not bool(finite.all()):
        stuck = int(np.flatnonzero(~finite)[0])
        out.append(_err(
            K132,
            f"state {stuck} sits on a non-anchor cycle away from home: "
            "a non-anchor run of any length need not absorb it",
            f"{location}.skip_width"))
    elif int(depth.max()) > sw:
        out.append(_err(
            K132,
            f"longest non-anchor path is {int(depth.max())} but the "
            f"stored skip width is {sw}: a {sw}-long run does not prove "
            "absorption",
            f"{location}.skip_width"))
    acc = dfa.accepting_mask  # type: ignore[attr-defined]
    start = int(dfa.start)  # type: ignore[attr-defined]
    reach = _non_anchor_closure(table, lut, start)
    if bool(acc[home]) or bool((acc & reach).any()):
        out.append(_err(
            K132,
            "an accepting state is reachable from start/home without any "
            "anchor byte: an accepting path need not contain an anchor "
            "and a skipped window could hide a report",
            f"{location}.anchor_lut"))
    fresh = derive_prefilter(dfa)
    if fresh is None or fresh.home != home or fresh.skip_width != sw \
            or not bool(np.array_equal(fresh.anchor_lut, lut)):
        out.append(_err(
            K130,
            "stored prefilter certificate does not re-derive from the "
            "transition table",
            location))
    out.extend(_replay_prefilter(tables, dfa, fresh or tables, dense,
                                 f"{location}.native"))
    return out


def _replay_prefilter(tables: "object", dfa: "object", probe_cert: "object",
                      dense: "object", location: str) -> List[Diagnostic]:
    """K134: the compiled prefilter on a fixed probe agrees with Dfa.run.

    The probe is drawn from ``probe_cert`` (the re-derived certificate when
    there is one, so a tampered anchor set cannot shape its own probe):
    a reset-bearing segment (mixed symbols, a ``skip_width`` run of
    non-anchors, an anchor tail), an anchor-dense segment (anchors
    between non-anchor runs one short of ``skip_width``), a segment
    shorter than ``skip_width`` and an empty one, each scanned from fixed
    start states and once enumeratively; and per anchor ``a``, an
    enumerative ``skip_width`` run, ``a``, then a symbol that tells the
    state ``a`` leads home to from home (a dropped anchor would erase
    ``a`` and land elsewhere).  A concrete result must be
    :meth:`Dfa.run`'s, an enumerative one what :meth:`Dfa.run` gives
    from *every* state, and the position the scan resumed from must be
    the anchor sweep's (:func:`repro.kernels.prefilter._last_reset`).
    An unavailable native tier yields no diagnostics.
    """
    from repro.kernels import DenseTables
    from repro.kernels.native import native_available, native_prefilter
    from repro.kernels.prefilter import _last_reset

    if not native_available():
        return []
    table = dfa.transitions  # type: ignore[attr-defined]
    n = int(table.shape[1])
    lut = tables.anchor_lut  # type: ignore[attr-defined]
    sw = int(tables.skip_width)  # type: ignore[attr-defined]
    probe_lut = probe_cert.anchor_lut  # type: ignore[attr-defined]
    probe_sw = int(probe_cert.skip_width)  # type: ignore[attr-defined]
    anchors = np.flatnonzero(probe_lut)
    plain = np.flatnonzero(~probe_lut)
    if anchors.size == 0 or plain.size == 0:
        return []
    rng = np.random.default_rng(134)

    def pick(pool: np.ndarray, size: int) -> np.ndarray:
        return pool[rng.integers(0, pool.size, size)].astype(np.int64)

    dense_run: List[np.ndarray] = []
    for _ in range(64):
        dense_run.extend([pick(anchors, 1), pick(plain, probe_sw - 1)])
    probe = [
        np.concatenate([pick(np.arange(table.shape[0]), 64),
                        pick(plain, probe_sw), pick(anchors, 32)]),
        np.concatenate(dense_run),
        pick(plain, probe_sw - 1),
        np.empty(0, dtype=np.int64),
    ]
    home = int(probe_cert.home)  # type: ignore[attr-defined]
    per_anchor = []
    for a in anchors.tolist():
        moved = int(table[a, home])
        tells = np.flatnonzero(table[:, moved] != table[:, home])
        per_anchor.append(np.concatenate([
            pick(plain, probe_sw),
            np.asarray([a, int(tells[0]) if tells.size else a], dtype=np.int64),
        ]))
    starts = sorted({int(dfa.start), n - 1, home})  # type: ignore[attr-defined]
    segments = [seg for seg in probe for _ in starts] + probe + per_anchor
    seg_starts = [q for _ in probe for q in starts] + [-1] * (
        len(probe) + len(per_anchor))
    got = native_prefilter(
        dfa, tables, segments, seg_starts,  # type: ignore[arg-type]
        dense if dense is not None else DenseTables(dfa),  # type: ignore[arg-type]
    )
    if got is None:
        return [_err(
            K134,
            "the compiled prefilter declined an in-range probe (the "
            "library cannot scan with this certificate)",
            location)]
    every = np.arange(n, dtype=np.int64)
    for i, (seg, start) in enumerate(zip(segments, seg_starts)):
        final, walk_from = int(got[0][i]), int(got[1][i])
        proven, resume = _last_reset(np.flatnonzero(lut[seg]),
                                     int(seg.size), sw)
        want_from = resume if proven else -1
        if start >= 0:
            want = int(dfa.run(seg, start))  # type: ignore[attr-defined]
        else:
            reached = every
            for sym in seg.tolist():
                reached = table[sym, reached]
            # an unproven enumerative segment is left to the frontier
            collapsed = bool((reached == reached[0]).all())
            want = int(reached[0]) if proven and collapsed else -1
        if final != want or walk_from != want_from:
            mode = "enumerative" if start < 0 else f"from state {start}"
            return [_err(
                K134,
                f"compiled prefilter on probe segment {i} ({seg.size} "
                f"symbols, {mode}) gave final {final} resuming at "
                f"{walk_from}; Dfa.run gives {want} and the anchor sweep "
                f"resumes at {want_from} (the compiled scan would skip "
                "live input)",
                f"{location}.probe[{i}]")]
    return []


# ----------------------------------------------------------------------
# fleet shard artifacts
# ----------------------------------------------------------------------
def verify_shard(shard: "object",
                 members: Optional[Sequence["object"]] = None,
                 deep: bool = True,
                 location: str = "shard") -> List[Diagnostic]:
    """Soundness of a :class:`~repro.fleet.ShardMachine` artifact.

    A shard's correctness rests on one invariant: the product state
    after any input is exactly the tuple of member states the demux map
    decodes it to.  That is checked *structurally* — one matrix identity
    per member instead of sample inputs:

    - the stored :attr:`key` re-derives from the member fingerprints
      (sorted, so fold order cannot change identity) — K120;
    - the demux map covers every member with in-range states — K121;
    - with ``members`` given: fingerprints match, the demux commutes
      with the transition tables (``demux[delta(c, p), m] ==
      delta_m(c, demux[p, m])`` for all symbols/states) and decodes the
      start state to every member's start — K122;
    - ``member_accept`` rows equal the members' accepting masks under
      the demux, and the shard machine accepts exactly the union — K123.

    The embedded product DFA gets the full :func:`verify_dfa` treatment
    (``deep`` forwards to it).
    """
    from repro.fleet.shard import shard_key

    out: List[Diagnostic] = []
    dfa = getattr(shard, "dfa", None)
    out.extend(verify_dfa(dfa, deep=deep, location=f"{location}.dfa"))
    if any(d.severity == "error" for d in out):
        return out  # demux checks would chase a corrupt table
    n_states = dfa.num_states  # type: ignore[attr-defined]

    fingerprints = tuple(getattr(shard, "member_fingerprints", ()))
    indices = tuple(getattr(shard, "member_indices", ()))
    n_members = len(fingerprints)
    if n_members == 0 or len(indices) != n_members:
        out.append(_err(
            K121,
            f"{n_members} member fingerprint(s) but {len(indices)} member "
            "index(es); a shard names each member exactly once",
            f"{location}.member_indices"))
        return out

    # content addressing: the key must re-derive, order-insensitively
    expect_key = shard_key(fingerprints)
    if expect_key != getattr(shard, "key", None):
        out.append(_err(
            K120,
            "stored shard key does not re-derive from the member "
            "fingerprints (the artifact would be served for the wrong "
            "member set)",
            f"{location}.key"))

    # demux map shape / range
    demux = getattr(shard, "demux", None)
    if not isinstance(demux, np.ndarray) or demux.ndim != 2 \
            or not np.issubdtype(demux.dtype, np.integer) \
            or demux.shape[0] != n_states \
            or demux.shape[1] != n_members:
        shape = getattr(demux, "shape", None)
        out.append(_err(
            K121,
            f"demux map shape {shape!r} is not (num_states={n_states}, "
            f"n_members={n_members}); some members could never be "
            "demultiplexed",
            f"{location}.demux"))
        return out
    if demux.size and int(demux.min()) < 0:
        out.append(_err(
            K121,
            "demux map contains negative member states",
            f"{location}.demux"))
        return out

    member_accept = getattr(shard, "member_accept", None)
    accept_ok = isinstance(member_accept, np.ndarray) \
        and member_accept.shape == (n_members, n_states) \
        and member_accept.dtype == np.bool_
    if not accept_ok:
        out.append(_err(
            K123,
            f"member_accept is not a (n_members={n_members}, "
            f"num_states={n_states}) bool matrix; report demux would "
            "misattribute events",
            f"{location}.member_accept"))
    elif not bool(np.array_equal(
            member_accept.any(axis=0),
            dfa.accepting_mask.astype(bool))):  # type: ignore[attr-defined]
        out.append(_err(
            K123,
            "shard accepting mask is not the union of the member accept "
            "rows (the product would fire on the wrong states)",
            f"{location}.member_accept"))

    if members is None:
        return out

    # cross-validation against the actual member machines
    if len(members) != n_members:
        out.append(_err(
            K121,
            f"{len(members)} member machine(s) supplied for a "
            f"{n_members}-member shard",
            f"{location}.members"))
        return out
    table = dfa.transitions  # type: ignore[attr-defined]
    for m, member in enumerate(members):
        mem_diags = verify_dfa(member, deep=False,
                               location=f"{location}.members[{m}]")
        errors = [d for d in mem_diags if d.severity == "error"]
        if errors:
            out.extend(errors)
            continue
        if member.fingerprint != fingerprints[m]:  # type: ignore[attr-defined]
            out.append(_err(
                K120,
                f"member {m} fingerprint does not match the stored one",
                f"{location}.member_fingerprints[{m}]"))
            continue
        col = demux[:, m]
        mem_states = member.num_states  # type: ignore[attr-defined]
        if int(col.max()) >= mem_states:
            out.append(_err(
                K121,
                f"demux column {m} exceeds member state range "
                f"[0, {mem_states})",
                f"{location}.demux"))
            continue
        mem_table = member.transitions  # type: ignore[attr-defined]
        if mem_table.shape[0] != table.shape[0]:
            out.append(_err(
                K122,
                f"member {m} alphabet {mem_table.shape[0]} differs from "
                f"the shard's {table.shape[0]}",
                f"{location}.members[{m}]"))
            continue
        # the demux must commute with one step of both machines
        if not bool(np.array_equal(col[table], mem_table[:, col])):
            out.append(_err(
                K122,
                f"demux column {m} does not commute with the transition "
                "tables: after some symbol the decoded member state is "
                "not the state the member itself would reach",
                f"{location}.demux"))
        start = dfa.start  # type: ignore[attr-defined]
        if int(col[start]) != int(member.start):  # type: ignore[attr-defined]
            out.append(_err(
                K122,
                f"shard start decodes member {m} to state "
                f"{int(col[start])}, not the member's start "
                f"{int(member.start)}",  # type: ignore[attr-defined]
                f"{location}.demux"))
        if accept_ok and not bool(np.array_equal(
                member_accept[m],
                member.accepting_mask[col])):  # type: ignore[attr-defined]
            out.append(_err(
                K123,
                f"member_accept row {m} disagrees with the member's "
                "accepting mask under the demux (its report events would "
                "fire on the wrong offsets)",
                f"{location}.member_accept"))
    return out


#: envelope cross-check fields by the format version that introduced
#: them (see ``repro.compilecache.store.FORMAT_VERSION`` history)
_ENVELOPE_FIELDS: List[Tuple[int, str]] = [(2, "dense_dtype"), (3, "prefilter")]
#: artifact fields by the format version that dropped them
_DROPPED_FIELDS: List[Tuple[int, str]] = [
    (4, "flat_table"), (4, "_bitset"), (5, "_dense.offsets"),
]


def verify_artifact_file(path: Union[str, Path],
                         deep: bool = True) -> List[Diagnostic]:
    """Verify an on-disk ``.cdfa`` file: envelope + full artifact checks.

    Unlike :func:`repro.compilecache.store.load_artifact` (which treats
    any problem as a cache miss), this reports *what* is wrong, as
    diagnostics.
    """
    from repro.compilecache.artifact import CompiledDfa
    from repro.compilecache.store import FORMAT_VERSION

    path = Path(path)
    location = str(path)
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        return [_err(K110, f"unreadable artifact: {exc}", location)]
    if not isinstance(payload, dict):
        return [_err(K110, "payload is not the save_artifact envelope",
                     location)]
    out: List[Diagnostic] = []
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        # distinguish version *skew* (an older-but-known envelope, the
        # normal cross-build cache situation) from a version this build
        # has never heard of: skew names exactly which cross-check
        # fields the old format lacks and which dropped fields it still
        # carries, so the remedy — recompile to refresh the cache
        # entry — is obvious from the finding alone
        if isinstance(version, int) and 1 <= version < FORMAT_VERSION:
            lacks = [name for v, name in _ENVELOPE_FIELDS if version < v]
            dropped = [name for v, name in _DROPPED_FIELDS if version < v]
            skew: List[str] = []
            if lacks:
                skew.append(f"the envelope lacks {', '.join(lacks)} so "
                            "those cross-checks cannot run")
            if dropped:
                skew.append(f"the artifact carries {', '.join(dropped)}, "
                            "fields this build no longer reads")
            out.append(_err(
                K109,
                f"format version {version} predates this build's "
                f"{FORMAT_VERSION}; {'; '.join(skew)} — "
                "recompile to refresh the cache entry",
                location))
        else:
            out.append(_err(
                K109,
                f"format version {version!r} (this build reads "
                f"{FORMAT_VERSION})", location))
    compiled = payload.get("artifact")
    if not isinstance(compiled, CompiledDfa):
        out.append(_err(K110, "envelope carries no CompiledDfa", location))
        return out
    expect_name = f"{compiled.key}"
    if payload.get("key") != compiled.key or (
            path.suffix == ".cdfa" and path.stem != expect_name):
        out.append(_err(
            K110,
            "envelope key / filename do not match the artifact key",
            location))
    if payload.get("fingerprint") != compiled.fingerprint:
        out.append(_err(
            K105,
            "envelope fingerprint does not match the artifact's",
            location))
    # envelope-field cross-checks are gated on the version that
    # introduced each field: a v1 envelope is not charged for fields its
    # format never carried, while a v2+ envelope *missing* its required
    # field is — and an unknown version gets the full battery
    v = version if isinstance(version, int) else FORMAT_VERSION
    if "dense_dtype" in payload or v >= 2:
        from repro.kernels import dense_state_dtype

        try:
            expect_dtype = str(dense_state_dtype(compiled.dfa.num_states))
        except (AttributeError, TypeError):
            expect_dtype = None
        if expect_dtype is not None \
                and payload.get("dense_dtype") != expect_dtype:
            out.append(_err(
                K111,
                f"envelope dense dtype {payload.get('dense_dtype')!r} does "
                f"not match the stored DFA's narrowing ({expect_dtype})",
                location))
    if "prefilter" in payload or v >= 3:
        from repro.kernels.prefilter import derive_prefilter

        try:
            fresh = derive_prefilter(compiled.dfa)
            expect_summary = None if fresh is None else fresh.summary()
        except (AttributeError, TypeError, ValueError):
            expect_summary = None
        if payload.get("prefilter") != expect_summary:
            out.append(_err(
                K133,
                f"envelope prefilter summary {payload.get('prefilter')!r} "
                f"does not re-derive from the stored table "
                f"({expect_summary!r}); a stale certificate could skip "
                "live bytes",
                location))
    out.extend(verify_compiled(compiled, deep=deep, location=location))
    return out
