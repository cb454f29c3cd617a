"""The one input contract: every public entry point refuses bad input alike.

CSE's speculation and re-execution are exact only when every segment
reads symbols the sequential walk can read.  :func:`repro.ingest.admit`
is the one place that decides what is readable, and every public scan
entry point calls it before any segment runs.  So on every backend, with
the native tier loaded or absent, and at every symbol width, a symbol
outside ``[0, alphabet)`` (even inside a prefix a proven reset erases)
or a start state outside ``[0, num_states)`` raises
:class:`repro.ingest.InputError`.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.nfa_exec import CompiledNfa
from repro.automata.onehot import OneHotAutomaton, PySetAutomaton
from repro.compilecache import CompileCache, scan_with_cache
from repro.core.engine import CseEngine
from repro.core.partition import StatePartition
from repro.core.recovery import recover_reports
from repro.core.setfsm import SetFsm
from repro.engines.sequential import SequentialEngine
from repro.fleet.shard import build_shard
from repro.ingest import InputError
from repro.kernels import (
    BACKENDS,
    KERNEL_BACKENDS,
    derive_prefilter,
    prefilter_scan_scalar,
    run_segments_batch,
    walk,
)
from repro.regex.compile import compile_ruleset, pattern_to_nfa
from repro.software import run_segment, scan_sequential, software_cse_scan
from repro.stream import FleetScanner, StreamScanner
from repro.workloads.splitting import insert_delimiters, split_by_delimiter
from tests.kernel_inputs import native_tier, symbols_of


@functools.lru_cache(maxsize=None)
def machine(k):
    """A literal machine over ``k`` symbols the prefilter certifies."""
    dfa = compile_ruleset(["\x01\x02", "\x03\x01"], alphabet_size=k)
    other = compile_ruleset(["\x02\x02"], alphabet_size=k)
    partition = StatePartition.from_labels(
        [q % 2 for q in range(dfa.num_states)])
    scanners = {
        backend: (StreamScanner(dfa, backend=backend),
                  FleetScanner([dfa, other], n_segments=3, backend=backend))
        for backend in BACKENDS
    }
    engines = (CseEngine(dfa, n_segments=3), SequentialEngine(dfa))
    nfa = CompiledNfa(pattern_to_nfa("\x01\x02", alphabet_size=k))
    return (dfa, derive_prefilter(dfa), partition, scanners, engines,
            CompileCache(), nfa, build_shard([dfa, other]))


def entry_points(k):
    """``(name, takes_state, call(syms, state))`` for every entry point.

    A ``call`` that takes no start state ignores ``state``.
    """
    dfa, tables, partition, scanners, engines, cache, nfa, shard = machine(k)
    for backend in BACKENDS:
        stream, fleet = scanners[backend]
        yield f"software_cse_scan/{backend}", True, (
            lambda s, q, b=backend: software_cse_scan(
                dfa, s, partition, n_segments=3, backend=b, start_state=q))
        yield f"scan_with_cache/{backend}", True, (
            lambda s, q, b=backend: scan_with_cache(
                dfa, s, cache, n_segments=3, backend=b, start_state=q))
        yield f"run_segment/{backend}", False, (
            lambda s, q, b=backend: run_segment(dfa, partition, s, backend=b))
        yield f"StreamScanner.feed/{backend}", False, (
            lambda s, q, st=stream: (st.reset(), st.feed(s)))
        yield f"FleetScanner.scan/{backend}", False, (
            lambda s, q, f=fleet: f.scan(s))
        yield f"FleetScanner.scan_wallclock/{backend}", False, (
            lambda s, q, f=fleet: f.scan_wallclock(s))
    for backend in KERNEL_BACKENDS:
        yield f"run_segments_batch/{backend}", False, (
            lambda s, q, b=backend: run_segments_batch(
                dfa, partition, [s, s[1:]], backend=b))
    yield "walk", True, lambda s, q: walk(dfa, s, q, reports=True)
    yield "scan_sequential", True, (
        lambda s, q: scan_sequential(dfa, s, start_state=q))
    yield "prefilter_scan_scalar", True, (
        lambda s, q: prefilter_scan_scalar(dfa, tables, s, start_state=q))
    yield "Dfa.run", True, lambda s, q: dfa.run(s, q)
    yield "Dfa.run_reports", True, lambda s, q: dfa.run_reports(s, q)
    yield "Dfa.run_all_states", False, lambda s, q: dfa.run_all_states(s)
    for engine in engines:
        yield f"{type(engine).__name__}.run", True, (
            lambda s, q, e=engine: e.run(s, start_state=q))
    # the set-level and active-mask machines of the cycle model
    setfsm, onehot, pyset = SetFsm(dfa), OneHotAutomaton(dfa), PySetAutomaton(dfa)
    yield "SetFsm.run", False, lambda s, q: setfsm.run([dfa.start], s)
    yield "SetFsm.run_with_reports", False, (
        lambda s, q: setfsm.run_with_reports([dfa.start], s))
    yield "OneHotAutomaton.run_mask", False, (
        lambda s, q: onehot.run_mask(onehot.mask_from_states([dfa.start]), s))
    yield "PySetAutomaton.run_set", False, (
        lambda s, q: pyset.run_set([dfa.start], s))
    yield "CompiledNfa.run", False, lambda s, q: nfa.run(s)
    yield "CompiledNfa.run_reports", False, lambda s, q: nfa.run_reports(s)
    yield from leftover_entry_points(dfa, shard)


def leftover_entry_points(dfa, shard):
    """Entry points outside the scan stack that admit their input too."""
    yield "recover_reports", True, (
        lambda s, q: recover_reports(dfa, s, 3, start_state=q))
    # the shard's states are product states, not the member's
    yield "ShardMachine.scan_sequential", False, (
        lambda s, q: shard.scan_sequential(s))


def splitting_entry_points():
    """The byte-delimiter utilities admit their input against 256 symbols,
    not a machine's alphabet, so only a negative symbol is theirs to
    refuse."""
    yield "split_by_delimiter", False, (
        lambda s, q: split_by_delimiter(s, 1))
    yield "insert_delimiters", False, (
        lambda s, q: insert_delimiters([s, s], 1))


@st.composite
def bad_inputs(draw):
    """``(k, word, state, kind)`` with exactly one thing outside the machine.

    Either one symbol outside ``[0, k)`` sits in a prefix a proven reset
    erases, in the tail after that reset, or anywhere in a plain word;
    or every symbol is fine and the start state is outside the machine.
    """
    k = draw(st.sampled_from([5, 8, 13]))
    dfa, tables = machine(k)[:2]
    kind = draw(st.sampled_from(["uint8", "int64", "view"]))
    where = draw(st.sampled_from(["prefix", "tail", "anywhere", "state"]))
    word = draw(st.lists(st.integers(0, k - 1), max_size=24))
    plain = int(np.flatnonzero(~tables.anchor_lut)[0])
    reset = [plain] * (tables.skip_width + 1)
    state = dfa.start
    if where == "state":
        state = draw(st.sampled_from(
            [-1, -7, dfa.num_states, dfa.num_states + 5]))
        word = word + reset + [1, 2]
    else:
        if kind == "int64":
            bad = draw(st.one_of(st.integers(-16, -1), st.integers(k, 300)))
        else:
            bad = draw(st.integers(k, 255))  # a byte cannot be negative
        word.insert(draw(st.integers(0, len(word))), bad)
        if where == "prefix":
            word = word + reset + [1, 2]
        elif where == "tail":
            word = [1] + reset + word
    return k, symbols_of(np.asarray(word), kind), state, where == "state"


class TestInputContract:
    @given(bad_inputs())
    @settings(max_examples=100, deadline=None)
    def test_every_entry_point_refuses_alike(self, case):
        k, syms, state, bad_state = case
        for absent in (False, True):
            with native_tier(absent):
                for name, takes_state, call in entry_points(k):
                    if bad_state and not takes_state:
                        continue
                    where = f"{name} (native absent: {absent})"
                    try:
                        call(syms, state)
                    except InputError:
                        continue
                    except Exception as exc:
                        pytest.fail(f"{where} raised {exc!r}")
                    pytest.fail(f"{where} admitted the input")

    def test_error_names_symbol_position_and_alphabet(self):
        dfa = machine(5)[0]
        with pytest.raises(InputError) as info:
            walk(dfa, np.asarray([1, 2, -3, 9]))
        assert str(info.value) == (
            "negative symbol -3 at position 2 outside [0, alphabet) = [0, 5)"
        )
        with pytest.raises(InputError, match="symbol 9 at position 3"):
            dfa.run(np.asarray([1, 2, 3, 9]))
        with pytest.raises(InputError, match=r"start state 9 outside"):
            walk(dfa, b"", 9)
        # a negative symbol no longer wraps to the top of the alphabet
        with pytest.raises(InputError, match="negative symbol -1"):
            SetFsm(dfa).run([dfa.start], np.asarray([-1]))
        with pytest.raises(InputError, match="negative symbol -1"):
            machine(5)[-2].run(np.asarray([1, -1]))
        # callers that catch ValueError catch the contract's error
        assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("name", [
    "recover_reports", "ShardMachine.scan_sequential", "split_by_delimiter",
    "insert_delimiters",
])
def test_negative_symbol_refused_where_input_enters(name):
    """Recovery, a shard's sequential pass and delimiter splitting admit
    their input instead of widening it unchecked: a negative symbol is
    refused, not read as a huge index or wrapped to the alphabet's top."""
    dfa, shard = machine(5)[0], machine(5)[-1]
    calls = [*leftover_entry_points(dfa, shard), *splitting_entry_points()]
    call = {entry: fn for entry, _takes, fn in calls}[name]
    with pytest.raises(InputError, match="negative symbol -2 at position 1"):
        call(np.asarray([1, -2, 3]), dfa.start)
    call(np.asarray([1, 2, 3]), dfa.start)


@pytest.mark.parametrize("name", ["split_by_delimiter", "insert_delimiters"])
def test_splitting_refuses_a_symbol_past_a_byte(name):
    call = {entry: fn for entry, _t, fn in splitting_entry_points()}[name]
    with pytest.raises(InputError, match=r"symbol 256 at position 2 .*\[0, 256\)"):
        call(np.asarray([1, 255, 256]), 0)


class TestCorpora:
    """The structured corpora come out through the contract too."""

    def test_sentences_are_admitted_bytes(self, rng):
        from repro.workloads.corpus import sentence_corpus

        text = sentence_corpus(rng, 300)
        assert text.dtype == np.uint8 and text.size == 300
        assert text.flags.writeable
        assert bytes(text).decode("latin-1").replace(".", " ").split()

    @pytest.mark.parametrize("corpus", ["packet", "protein"])
    def test_streams_are_admitted_int64(self, rng, corpus):
        from repro.workloads import corpus as corpora

        stream = getattr(corpora, f"{corpus}_corpus")(rng, 500)
        assert stream.dtype == np.int64 and stream.size == 500
        assert int(stream.min()) >= 0 and int(stream.max()) < 256

    def test_a_symbol_past_a_byte_is_refused(self, rng):
        from repro.workloads.corpus import (
            mixed_corpus, packet_corpus, protein_corpus,
        )

        with pytest.raises(InputError, match="negative symbol -1"):
            packet_corpus(rng, 50, delimiter=-1, packet_len=10)
        with pytest.raises(InputError, match="symbol 300"):
            packet_corpus(rng, 50, delimiter=300, packet_len=10)
        with pytest.raises(InputError, match="symbol 8364"):
            protein_corpus(rng, 200, motif_fragments=["€"],
                           fragment_rate=1.0)
        with pytest.raises(InputError, match="negative symbol -2"):
            mixed_corpus(rng, 4, [np.asarray([1, -2, 3])])
