"""Zero-copy ingestion: mmap-backed views through the whole scan stack.

``repro.ingest.open_input`` maps a file once and every consumer slices
the same pages: ``admit`` keeps it a uint8 view, ``as_symbols`` widens
without a ``bytes()`` round-trip,
the prefilter kernel scans the uint8 view directly, and a pooled scan
ships ``(path, offset, length)`` coordinates so workers mmap the file
themselves.  The contract under test is equivalence — an mmap view and
the equivalent ``bytes`` object must produce bit-identical scans on
every backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import as_symbols
from repro.core.partition import StatePartition
from repro.ingest import (
    InputError, InputView, Segments, admit, from_bytes, open_input,
)
from repro.kernels import walk
from repro.regex.compile import compile_ruleset
from repro.software import segment_pool, software_cse_scan
from repro.workloads import generate_ruleset, literal_payload


@pytest.fixture(scope="module")
def patterns():
    return generate_ruleset("LiteralHeavy", 5, 23)


@pytest.fixture(scope="module")
def literal_dfa(patterns):
    return compile_ruleset(patterns)


@pytest.fixture
def payload_file(tmp_path, patterns):
    data = literal_payload(patterns, 16384, match_density=0.002, seed=41)
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path, data


class TestInputView:
    def test_open_input_maps_file(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            assert len(view) == len(data)
            assert bytes(view) == data
            assert view.path == str(path)
            assert view.offset == 0
            assert view.nbytes == len(data)

    def test_view8_is_zero_copy_uint8(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            arr = view.view8()
            assert arr.dtype == np.uint8
            assert not arr.flags.writeable
            assert arr.base is not None  # a view, not a copy
            assert bytes(arr[:64]) == data[:64]

    def test_coords_roundtrip(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            coords = view.coords()
            assert coords == (str(path), 0, len(data))

    def test_from_bytes_has_no_coords(self):
        view = from_bytes(b"abcdef")
        assert view.coords() is None
        assert bytes(view) == b"abcdef"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with open_input(path) as view:
            assert len(view) == 0
            assert not view
            assert bytes(view) == b""

    def test_getitem_slices(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            assert bytes(view[10:20]) == data[10:20]

    def test_find_single_byte(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            needle = data[100:101]
            assert view.find(needle) == data.find(needle)
            assert view.find(b"\x00" * 64) == data.find(b"\x00" * 64)

    def test_numpy_protocol(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            arr = np.asarray(view)
            assert arr.dtype == np.uint8
            assert arr.size == len(data)


class TestByteView:
    """:func:`admit` reads byte-like input as a zero-copy uint8 view."""

    def test_accepts_byte_likes(self, tmp_path):
        import mmap

        path = tmp_path / "abc.bin"
        path.write_bytes(b"abc")
        with open(path, "rb") as f:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        view = open_input(path)
        for source in (b"abc", bytearray(b"abc"), memoryview(b"abc"),
                       np.frombuffer(b"abc", dtype=np.uint8), mapped,
                       from_bytes(b"abc"), view):
            base = (source.view8() if isinstance(source, InputView)
                    else np.frombuffer(source, dtype=np.uint8))
            arr = admit(source, 256)
            assert arr.dtype == np.uint8
            assert bytes(arr) == b"abc"
            assert np.shares_memory(arr, base)
            del arr, base
        mapped.close()
        view.close()

    def test_rejects_wide_symbols(self):
        # a symbol wider than the alphabet is refused, and anything not
        # byte-like comes back as int64
        with pytest.raises(InputError, match="symbol 300 at position 2"):
            admit(np.asarray([1, 2, 300], dtype=np.int64), 256)
        with pytest.raises(InputError, match="negative symbol -1 at position 0"):
            admit([-1, 2, 3], 256)
        with pytest.raises(InputError, match=r"\[0, alphabet\) = \[0, 16\)"):
            admit(b"\x00\x10", 16)
        assert admit([1, 2, 3], 4).dtype == np.int64
        # no byte is out of range for a 256-symbol alphabet
        assert admit(b"\xff", 256).tolist() == [255]

    def test_as_symbols_on_view(self):
        view = from_bytes(bytes(range(8)))
        syms = as_symbols(view)
        assert syms.dtype == np.int64
        assert syms.tolist() == list(range(8))


class TestSegments:
    """Admitted input cut at bounds: what a scan hands the kernels."""

    def test_slices_and_lengths(self):
        buf = admit(b"abcdefgh", 256)
        segs = Segments(buf, [(0, 3), (3, 3), (3, 8)])
        assert len(segs) == 3
        assert [bytes(s) for s in segs] == [b"abc", b"", b"defgh"]
        assert bytes(segs[2]) == b"defgh" and bytes(segs[-1]) == b"defgh"
        assert [bytes(s) for s in segs[1:]] == [b"", b"defgh"]
        assert segs.lengths == [3, 0, 5]
        assert np.shares_memory(segs[0], buf)

    def test_refuses_what_admit_never_returns(self):
        with pytest.raises(ValueError, match="admitted input"):
            Segments(np.zeros(4, dtype=np.int32), [(0, 4)])
        with pytest.raises(ValueError, match="admitted input"):
            Segments(np.zeros((2, 2), dtype=np.uint8), [(0, 1)])
        buf = admit(b"abcd", 256)
        for bounds in ([(0, 5)], [(-1, 2)], [(3, 2)]):
            with pytest.raises(ValueError, match="outside the buffer"):
                Segments(buf, bounds)

    @pytest.mark.parametrize("width", ["uint8", "int64"])
    def test_kernels_read_segments_like_slices(self, width):
        """Addresses from the base plus the bounds give every backend the
        same functions as the slices themselves, at both widths."""
        from repro.kernels import KERNEL_BACKENDS, run_segments_batch
        from repro.kernels.native import native_walks, native_available

        dfa = compile_ruleset(generate_ruleset("Dotstar06", 4, 3))
        rng = np.random.default_rng(9)
        word = rng.integers(97, 123, size=3000).astype(width)
        bounds = [(0, 700), (700, 700), (700, 2100), (2100, 3000)]
        segs = Segments(admit(word, dfa.alphabet_size), bounds)
        slices = [word[a:b] for a, b in bounds]
        partition = StatePartition.from_labels(
            [q % 3 for q in range(dfa.num_states)])
        for backend in KERNEL_BACKENDS:
            got = run_segments_batch(dfa, partition, segs, backend=backend)
            want = run_segments_batch(dfa, partition, slices, backend=backend)
            assert [[(o.converged, o.state, o.states.tolist())
                     for o in fn.outcomes] for fn in got] == \
                [[(o.converged, o.state, o.states.tolist())
                  for o in fn.outcomes] for fn in want]
        if native_available():
            starts = [dfa.start, 1, 2, 0]
            assert native_walks(dfa, segs, starts).tolist() == [
                dfa.run(s, q) for s, q in zip(slices, starts)]


class TestScanEquivalence:
    @pytest.mark.parametrize(
        "backend", ["python", "native", "prefilter", "auto"]
    )
    def test_mmap_equals_bytes(self, payload_file, literal_dfa, backend):
        path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        want = software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend=backend
        )
        with open_input(path) as view:
            got = software_cse_scan(
                literal_dfa, view, partition, n_segments=4, backend=backend
            )
        assert got.final_state == want.final_state
        assert got.backend == want.backend
        assert got.n_symbols == want.n_symbols

    @given(st.binary(min_size=0, max_size=400), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_bytes_vs_view(self, literal_dfa, data, n_segments):
        partition = StatePartition.trivial(literal_dfa.num_states)
        for backend in ("native", "prefilter"):
            want = software_cse_scan(
                literal_dfa, data, partition,
                n_segments=n_segments, backend=backend,
            ).final_state
            got = software_cse_scan(
                literal_dfa, from_bytes(data), partition,
                n_segments=n_segments, backend=backend,
            ).final_state
            assert got == want


class TestPooledMmapDispatch:
    def test_workers_scan_by_coordinates(self, payload_file, literal_dfa):
        from repro import obs

        path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        want = software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend="native"
        ).final_state
        with obs.using() as registry:
            with segment_pool(literal_dfa, max_workers=2) as pool:
                with open_input(path) as view:
                    run = software_cse_scan(
                        literal_dfa, view, partition, n_segments=4,
                        backend="native", executor=pool,
                    )
            snapshot = registry.snapshot()
        assert run.final_state == want
        names = {m["name"]: m for m in snapshot["metrics"]}
        assert names["software_mmap_scans_total"]["value"] == 1
        assert names["software_mmap_bytes_total"]["value"] >= len(data)

    def test_pooled_without_coords_pickles_slices(self, payload_file,
                                                  literal_dfa):
        from repro import obs

        _path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        with obs.using() as registry:
            with segment_pool(literal_dfa, max_workers=2) as pool:
                run = software_cse_scan(
                    literal_dfa, data, partition, n_segments=4,
                    backend="native", executor=pool,
                )
            snapshot = registry.snapshot()
        names = {m["name"]: m for m in snapshot["metrics"]}
        assert "software_mmap_scans_total" not in names
        assert run.final_state == software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend="native"
        ).final_state

    def test_file_is_not_widened_in_the_parent(self, tmp_path, literal_dfa):
        # the parent keeps a file-backed view at byte width: it walks
        # segment 0 and any re-executed segment itself, the workers map
        # the file, and an int64 copy of the file would be 8 MiB
        import tracemalloc

        data = np.random.default_rng(7).integers(
            0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        partition = StatePartition.trivial(literal_dfa.num_states)
        with segment_pool(literal_dfa, max_workers=2) as pool:
            with open_input(path) as view:
                tracemalloc.start()
                try:
                    run = software_cse_scan(
                        literal_dfa, view, partition, n_segments=16,
                        backend="native", executor=pool, verify=False,
                    )
                    _size, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert run.final_state == walk(literal_dfa, data)[0]
        assert peak < 2 << 20

    @pytest.mark.parametrize("size", [0, 3, 40])
    def test_short_files_on_a_pool(self, tmp_path, literal_dfa, size):
        # an empty file maps to an in-memory view with no coordinates, so
        # it travels as pickled slices instead of failing a worker's mmap
        data = bytes(range(97, 97 + 26)) * 2
        path = tmp_path / "short.bin"
        path.write_bytes(data[:size])
        partition = StatePartition.trivial(literal_dfa.num_states)
        with segment_pool(literal_dfa, max_workers=2) as pool:
            for backend in ("python", "native"):
                with open_input(path) as view:
                    assert (view.coords() is None) == (size == 0)
                    run = software_cse_scan(
                        literal_dfa, view, partition, n_segments=16,
                        backend=backend, executor=pool,
                    )
                assert run.final_state == literal_dfa.run(data[:size])
